package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"dps/internal/blackbox"
	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/trace"
)

// Status is the controller's observable state, served as JSON for
// dashboards and scrapers. Every deployed power manager needs this view:
// what each socket reported, what cap it was assigned, and whether the
// budget holds.
type Status struct {
	Policy string `json:"policy"`
	Units  int    `json:"units"`
	Agents int    `json:"agents"`
	Rounds uint64 `json:"rounds"`
	// UptimeRounds counts rounds decided by this process; StateAgeRounds
	// counts rounds the controller state has accumulated, including rounds
	// inherited through a snapshot restore or standby takeover. On a cold
	// boot the three round counters coincide.
	UptimeRounds   uint64    `json:"uptime_rounds"`
	StateAgeRounds uint64    `json:"state_age_rounds"`
	BudgetW        float64   `json:"budget_w"`
	CapSumW        float64   `json:"cap_sum_w"`
	Readings       []float64 `json:"readings_w"`
	Caps           []float64 `json:"caps_w"`
	Priority       []bool    `json:"high_priority,omitempty"`
	Restored       bool      `json:"restored,omitempty"`
	// Health is the per-unit degraded-mode state ("fresh"/"stale"/"dead");
	// omitted while health tracking is disabled.
	Health     []string `json:"health,omitempty"`
	StaleUnits int      `json:"stale_units,omitempty"`
	DeadUnits  int      `json:"dead_units,omitempty"`
	// Sparse-round work counters from the most recent decision round:
	// units the snapshot marked changed, units the controller skipped as
	// settled, and the dirty fraction. All omitted on dense controllers.
	DirtyUnits   int     `json:"dirty_units,omitempty"`
	SkippedUnits int     `json:"skipped_units,omitempty"`
	DirtyFrac    float64 `json:"dirty_frac,omitempty"`
	// AlertsFiring is the number of watchdog rules currently firing;
	// omitted (0) when the watchdog is disabled or everything is healthy.
	AlertsFiring int `json:"alerts_firing,omitempty"`
}

// Snapshot assembles the current Status. It reads only the server's own
// round cache, never the controller: a /status scrape may overlap a
// decision round, and the controller's accessors are not synchronized.
func (s *Server) Snapshot() Status {
	s.imu.Lock()
	readings := s.readings.Clone()
	s.imu.Unlock()
	rounds := s.rounds.Load()

	s.mu.Lock()
	agents := len(s.conns)
	caps := s.lastCaps.Clone()
	var prio []bool
	if s.lastPrio != nil {
		prio = append([]bool(nil), s.lastPrio...)
	}
	restored := s.lastRestored
	dirtyUnits, skippedUnits, dirtyFrac := s.lastDirtyUnits, s.lastSkippedUnits, s.lastDirtyFrac
	var health []string
	var stale, dead int
	if s.health != nil {
		health = make([]string, len(s.health))
		for u, h := range s.health {
			health[u] = h.String()
			switch h {
			case core.HealthStale:
				stale++
			case core.HealthDead:
				dead++
			}
		}
	}
	s.mu.Unlock()

	return Status{
		Policy:         s.cfg.Manager.Name(),
		Units:          s.cfg.Units,
		Agents:         agents,
		Rounds:         rounds,
		UptimeRounds:   rounds - s.inheritedRounds.Load(),
		StateAgeRounds: rounds,
		BudgetW:        float64(s.cfg.Manager.Budget().Total),
		Readings:       toFloats(readings),
		Caps:           toFloats(caps),
		CapSumW:        float64(caps.Sum()),
		Priority:       prio,
		Restored:       restored,
		Health:         health,
		StaleUnits:     stale,
		DeadUnits:      dead,
		DirtyUnits:     dirtyUnits,
		SkippedUnits:   skippedUnits,
		DirtyFrac:      dirtyFrac,
		AlertsFiring:   s.watcher.FiringCount(),
	}
}

func toFloats(v power.Vector) []float64 {
	out := make([]float64, len(v))
	for i, w := range v {
		out[i] = float64(w)
	}
	return out
}

// RoundView is one GET /debug/rounds entry, rendered on request from the
// flight recorder's compact round record. Power values carry the
// record's deciwatt precision: the value the agent actually enforces.
type RoundView struct {
	Round           uint64       `json:"round"`
	Time            time.Time    `json:"time"`
	IntervalS       float64      `json:"interval_s"`
	Stages          StageSeconds `json:"stage_seconds"`
	Restored        bool         `json:"restored,omitempty"`
	PriorityFlips   int          `json:"priority_flips,omitempty"`
	BudgetExhausted bool         `json:"budget_exhausted,omitempty"`
	BudgetClamped   bool         `json:"budget_clamped,omitempty"`
	StaleUnits      int          `json:"stale_units,omitempty"`
	DeadUnits       int          `json:"dead_units,omitempty"`
	DirtyUnits      int          `json:"dirty_units,omitempty"`
	SkippedUnits    int          `json:"skipped_units,omitempty"`
	// UptimeRounds/StateAgeRounds split the round counter across process
	// generations: uptime is rounds this process decided, state age counts
	// rounds inherited through a snapshot restore or standby takeover too.
	// Omitted (equal to Round) on processes that never inherited state.
	UptimeRounds   uint64     `json:"uptime_rounds,omitempty"`
	StateAgeRounds uint64     `json:"state_age_rounds,omitempty"`
	BudgetW        float64    `json:"budget_w"`
	CapSumW        float64    `json:"cap_sum_w"`
	Units          []UnitView `json:"units"`
}

// StageSeconds is the wall time one decision round spent in each pipeline
// stage of the paper's Figure 3 (zero for managers without that stage).
type StageSeconds struct {
	Kalman    float64 `json:"kalman_s"`
	Stateless float64 `json:"stateless_s"`
	Priority  float64 `json:"priority_s"`
	Readjust  float64 `json:"readjust_s"`
	Total     float64 `json:"total_s"`
}

// UnitView is one unit's row of a RoundView.
type UnitView struct {
	Unit     int     `json:"unit"`
	ReadingW float64 `json:"reading_w"`
	CapW     float64 `json:"cap_w"`
	// CapDeltaW is the cap's move since the previous held round; omitted
	// on the oldest held round.
	CapDeltaW    *float64 `json:"cap_delta_w,omitempty"`
	HighPriority bool     `json:"high_priority,omitempty"`
	// Health is the unit's degraded state ("stale" or "dead"); empty for a
	// fresh unit or when health tracking is disabled.
	Health string `json:"health,omitempty"`
	// Reason names the module that last changed this unit's cap in the
	// round ("mimd_cut", "readjust_grant", "degraded_deliver", ...); empty
	// when the cap did not move or the manager records no provenance.
	Reason string `json:"reason,omitempty"`
}

// roundViews renders up to n held rounds, newest first (every held
// round when n <= 0). A non-negative unit narrows each round to that
// unit's row (no rows when out of range).
func (s *Server) roundViews(n, unit int) []RoundView {
	scan := n
	if n > 0 {
		scan++ // the round before the oldest shown one, for its cap delta
	}
	recs := s.ring.Last(scan, unit)
	if n <= 0 || n > len(recs) {
		n = len(recs)
	}
	first := max(unit, 0)
	inherited := s.inheritedRounds.Load()
	out := make([]RoundView, n)
	for i := range out {
		r := &recs[i]
		v := RoundView{
			Round:     r.Round,
			Time:      time.Unix(0, r.UnixNano).UTC(),
			IntervalS: r.IntervalS,
			Stages: StageSeconds{
				Kalman:    r.KalmanS,
				Stateless: r.StatelessS,
				Priority:  r.PriorityS,
				Readjust:  r.ReadjustS,
				Total:     r.TotalS,
			},
			Restored:        r.Restored,
			PriorityFlips:   r.PriorityFlips,
			BudgetExhausted: r.BudgetExhausted,
			BudgetClamped:   r.BudgetClamped,
			StaleUnits:      r.StaleUnits,
			DeadUnits:       r.DeadUnits,
			DirtyUnits:      r.DirtyUnits,
			SkippedUnits:    r.SkippedUnits,
			BudgetW:         r.BudgetW,
			CapSumW:         r.CapSumW,
			Units:           make([]UnitView, len(r.Units)),
		}
		if inherited != 0 {
			v.UptimeRounds = r.Round - inherited
			v.StateAgeRounds = r.Round
		}
		var prev []blackbox.UnitRound
		if i+1 < len(recs) {
			prev = recs[i+1].Units
		}
		for j, ur := range r.Units {
			uv := UnitView{
				Unit:         first + j,
				ReadingW:     ur.ReadingW(),
				CapW:         ur.CapW(),
				HighPriority: ur.Prio,
			}
			if j < len(prev) {
				d := float64(int(ur.CapDW)-int(prev[j].CapDW)) / 10
				uv.CapDeltaW = &d
			}
			if ur.Health != 0 {
				uv.Health = ur.HealthString()
			}
			if ur.Reason != trace.ReasonNone {
				uv.Reason = ur.Reason.String()
			}
			v.Units[j] = uv
		}
		out[i] = v
	}
	return out
}

// WhyRecord is one answer row of GET /debug/why: a round in which the
// queried unit's cap was changed by some module, and why.
type WhyRecord struct {
	Round     uint64    `json:"round"`
	Time      time.Time `json:"time"`
	Reason    string    `json:"reason"`
	CapW      float64   `json:"cap_w"`
	CapDeltaW *float64  `json:"cap_delta_w,omitempty"`
	ReadingW  float64   `json:"reading_w"`
	Health    string    `json:"health,omitempty"`
}

// Why answers "why did unit u's cap change?" from the flight recorder:
// the newest-first list of recorded rounds in which some module moved the
// unit's cap (or pinned it against the manager), each with its provenance
// reason. n <= 0 scans every held round.
func (s *Server) Why(u, n int) []WhyRecord {
	out := []WhyRecord{}
	for _, v := range s.roundViews(n, u) {
		if len(v.Units) == 0 || v.Units[0].Reason == "" {
			continue
		}
		uv := v.Units[0]
		out = append(out, WhyRecord{
			Round:     v.Round,
			Time:      v.Time,
			Reason:    uv.Reason,
			CapW:      uv.CapW,
			CapDeltaW: uv.CapDeltaW,
			ReadingW:  uv.ReadingW,
			Health:    uv.Health,
		})
	}
	return out
}

// writeJSON encodes v as the response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// StatusHandler returns the daemon's HTTP mux:
//
//	GET /status        controller state as JSON
//	GET /metrics       the telemetry registry in Prometheus text format
//	GET /healthz       200 once at least one decision round has run
//	GET /alerts        watchdog alert states as JSON ([] when disabled)
//	GET /debug/rounds  the decision flight recorder as JSON (?n=K&unit=U;
//	                   last= is an accepted alias for n=)
//	GET /debug/trace   recorded spans as Chrome trace_event JSON (?n=N;
//	                   last= is an accepted alias for n=)
//	GET /debug/why     cap-change provenance for one unit (?unit=K&n=N)
//	GET /debug/series  embedded metric history as JSON (?name=K&last=5m;
//	                   404 when the series store is disabled)
//
// Returning the concrete mux lets the daemon binary mount extra debug
// handlers (net/http/pprof) on the same listener.
func (s *Server) StatusHandler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Snapshot())
	})
	mux.Handle("GET /metrics", s.tel.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Rounds() == 0 {
			http.Error(w, "no decision rounds yet", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("GET /alerts", s.watcher.Handler())
	mux.HandleFunc("GET /debug/rounds", func(w http.ResponseWriter, r *http.Request) {
		n, ok := trace.CountParam(w, r, 16)
		if !ok {
			return
		}
		unit := -1
		if q := r.URL.Query().Get("unit"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, "unit must be a non-negative integer", http.StatusBadRequest)
				return
			}
			unit = v
		}
		writeJSON(w, s.roundViews(n, unit))
	})
	mux.Handle("GET /debug/trace", s.tracer.Handler())
	if s.store != nil {
		mux.Handle("GET /debug/series", s.store.Handler(func() time.Time { return s.now() }))
	}
	mux.HandleFunc("GET /debug/why", func(w http.ResponseWriter, r *http.Request) {
		u, err := strconv.Atoi(r.URL.Query().Get("unit"))
		if err != nil || u < 0 || u >= s.cfg.Units {
			http.Error(w, fmt.Sprintf("unit must be an integer in [0,%d)", s.cfg.Units), http.StatusBadRequest)
			return
		}
		n := 0 // all held rounds
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v <= 0 {
				http.Error(w, "n must be a positive integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		writeJSON(w, s.Why(u, n))
	})
	return mux
}
