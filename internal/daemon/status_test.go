package daemon

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dps/internal/baseline"
	"dps/internal/blackbox"
	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/telemetry"
)

func TestStatusEndpoint(t *testing.T) {
	srv := newTestServer(t, 2)
	h := srv.StatusHandler()

	// Before any round: healthz must report not-ready.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Errorf("healthz before first round = %d, want 503", rec.Code)
	}

	setReadings(srv, power.Vector{30, 100})
	if _, err := srv.DecideOnce(1); err != nil {
		t.Fatal(err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	if rec.Code != 200 {
		t.Fatalf("/status = %d", rec.Code)
	}
	var st Status
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Policy != "DPS" || st.Units != 2 || st.Rounds != 1 {
		t.Errorf("status = %+v", st)
	}
	// Per-unit answers come from /status, not from per-unit series.
	if len(st.Caps) != 2 || len(st.Readings) != 2 || len(st.Priority) != 2 {
		t.Fatalf("vectors: caps=%d readings=%d priority=%d", len(st.Caps), len(st.Readings), len(st.Priority))
	}
	if st.Readings[0] != 30 || st.Readings[1] != 100 {
		t.Errorf("status readings = %v, want [30 100]", st.Readings)
	}
	if st.Caps[0] <= 0 || st.Caps[1] <= 0 {
		t.Errorf("status caps = %v, want positive", st.Caps)
	}
	if st.CapSumW > st.BudgetW+1e-6 {
		t.Errorf("reported cap sum %v exceeds budget %v", st.CapSumW, st.BudgetW)
	}
	if st.Priority == nil {
		t.Error("DPS status missing priorities")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"dps_rounds_total 1",
		"dps_agents 0",
		"dps_budget_watts",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(body, "dps_unit_") {
		t.Error("/metrics carries per-unit dps_unit_* series; /metrics must stay at aggregate cardinality")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Errorf("healthz after a round = %d", rec.Code)
	}
}

func TestStatusForNonDPSPolicy(t *testing.T) {
	// A constant-allocation server has no priorities to report.
	mgr, err := baseline.NewConstant(2, testBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Manager: mgr, Units: 2, Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.DecideOnce(1); err != nil {
		t.Fatal(err)
	}
	st := srv.Snapshot()
	if st.Priority != nil {
		t.Error("constant policy reported priorities")
	}
	if st.Policy != "Constant" {
		t.Errorf("policy = %q", st.Policy)
	}
}

// maskTimings blanks the values of wall-time histogram series whose
// observations depend on the machine's clock, and the toolchain-dependent
// goversion label of dps_build_info, keeping the exposition's structure
// (names, labels, ordering) exact.
func maskTimings(body string) string {
	lines := strings.Split(body, "\n")
	for i, ln := range lines {
		if strings.HasPrefix(ln, "dps_stage_seconds_bucket") ||
			strings.HasPrefix(ln, "dps_stage_seconds_sum") {
			if j := strings.LastIndexByte(ln, ' '); j >= 0 {
				lines[i] = ln[:j] + " <T>"
			}
		}
		if strings.HasPrefix(ln, "dps_build_info{") {
			lines[i] = strings.Replace(ln, runtime.Version(), "<GO>", 1)
		}
	}
	return strings.Join(lines, "\n")
}

func TestMetricsGolden(t *testing.T) {
	srv := newTestServer(t, 2)
	// Pin the server clock so dps_decide_seconds observes exactly 0 and
	// the flight-recorder timestamps are fixed; only the per-stage
	// histograms (timed inside core.DPS) stay wall-clock dependent and
	// are masked.
	srv.now = func() time.Time { return time.Unix(1700000000, 0).UTC() }
	if _, err := srv.DecideOnce(1); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	srv.StatusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	got := maskTimings(rec.Body.String())

	golden := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from %s (UPDATE_GOLDEN=1 regenerates):\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

func TestStageMetricsAndCounters(t *testing.T) {
	srv := newTestServer(t, 2)
	// Zero readings keep every unit quiet, so each round restores.
	const rounds = 3
	for i := 0; i < rounds; i++ {
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	srv.StatusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, stage := range []string{"kalman", "stateless", "priority", "readjust"} {
		want := fmt.Sprintf("dps_stage_seconds_count{stage=%q} %d", stage, rounds)
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, want := range []string{
		"dps_restore_total 3",
		"dps_budget_violations_total 0",
		"dps_readjust_exhausted_total 0",
		fmt.Sprintf("dps_decide_seconds_count %d", rounds),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestDebugRoundsEndpoint(t *testing.T) {
	cfg := core.DefaultConfig(2, testBudget(2))
	mgr, err := core.NewDPS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Manager: mgr, Units: 2, Interval: time.Second, FlightRecorderSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.StatusHandler()

	// Before any round: an empty array, not an error.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds", nil))
	if rec.Code != 200 || strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Errorf("empty recorder: code=%d body=%q", rec.Code, rec.Body.String())
	}

	for i := 0; i < 5; i++ {
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds?n=5", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/rounds = %d", rec.Code)
	}
	var recs []RoundView
	if err := json.NewDecoder(rec.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	// Ring capacity 3: rounds 1-2 evicted, newest first.
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3 (ring capacity)", len(recs))
	}
	for i, wantRound := range []uint64{5, 4, 3} {
		if recs[i].Round != wantRound {
			t.Errorf("record %d round = %d, want %d", i, recs[i].Round, wantRound)
		}
	}
	top := recs[0]
	if len(top.Units) != 2 {
		t.Fatalf("record carries %d units", len(top.Units))
	}
	if top.Units[1].Unit != 1 || top.Units[1].CapW <= 0 || top.Units[1].CapDeltaW == nil {
		t.Errorf("unit record = %+v", top.Units[1])
	}
	// The oldest held round has no previous round to take a cap delta from.
	if oldest := recs[len(recs)-1]; oldest.Units[1].CapDeltaW != nil {
		t.Errorf("oldest held round carries cap_delta_w %v", *oldest.Units[1].CapDeltaW)
	}
	if top.Stages.Total <= 0 {
		t.Errorf("record stage timings = %+v, want positive total", top.Stages)
	}
	if top.CapSumW > top.BudgetW+1e-6 {
		t.Errorf("recorded cap sum %v exceeds budget %v", top.CapSumW, top.BudgetW)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds?n=1", nil))
	recs = nil
	if err := json.NewDecoder(rec.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Round != 5 {
		t.Errorf("n=1 returned %+v", recs)
	}

	// last= is an accepted alias for n=; a bad count or both spellings
	// at once is a 400, not a silent default.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/rounds?last=2", nil))
	recs = nil
	if err := json.NewDecoder(rec.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Round != 5 {
		t.Errorf("last=2 returned %+v", recs)
	}
	for _, bad := range []string{"/debug/rounds?n=bogus", "/debug/rounds?n=2&last=3"} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", bad, nil))
		if rec.Code != 400 {
			t.Errorf("GET %s = %d, want 400", bad, rec.Code)
		}
	}
}

// TestMetricsCardinalityIndependentOfUnits is the cardinality guard: the
// registry holds aggregate series only, so a 4-unit and a 4096-unit
// daemon with every optional subsystem on register the identical series
// set, and no /metrics body carries a per-unit label. Per-unit answers
// come from /status, /debug/rounds?unit= and /debug/why instead.
func TestMetricsCardinalityIndependentOfUnits(t *testing.T) {
	seriesOf := func(units int) (map[string]bool, string) {
		mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(ServerConfig{
			Manager:       mgr,
			Units:         units,
			Interval:      time.Second,
			StaleAfter:    time.Minute,
			DeadAfter:     2 * time.Minute,
			SeriesEnabled: true,
			WatchEnabled:  true,
			BlackboxPath:  t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
		set := make(map[string]bool)
		srv.Telemetry().Each(func(s telemetry.Sample) { set[s.Name+s.Labels] = true })
		rec := httptest.NewRecorder()
		srv.StatusHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return set, rec.Body.String()
	}
	small, smallBody := seriesOf(4)
	large, largeBody := seriesOf(4096)
	if len(small) != len(large) {
		t.Errorf("4 units register %d series, 4096 units %d", len(small), len(large))
	}
	for name := range large {
		if !small[name] {
			t.Errorf("series %s exists only at 4096 units", name)
		}
	}
	for units, body := range map[int]string{4: smallBody, 4096: largeBody} {
		if strings.Contains(body, `unit="`) {
			t.Errorf("/metrics at %d units carries a per-unit label", units)
		}
	}
}

// TestPerUnitViewsAgree pins that the three per-unit views of one round —
// /debug/rounds?unit=K, /debug/why?unit=K and the black box on disk —
// report the same reading, cap, health and reason for unit K.
func TestPerUnitViewsAgree(t *testing.T) {
	const units, k = 4, 2
	dir := t.TempDir()
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Manager:      mgr,
		Units:        units,
		Interval:     time.Second,
		StaleAfter:   time.Minute,
		DeadAfter:    2 * time.Minute,
		BlackboxPath: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		// Unit k idles under pressed neighbours: its cap is cut every round.
		setReadings(srv, power.Vector{140, 150, 20.04, 160})
		if _, err := srv.DecideOnce(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	get := func(path string, v any) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.StatusHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			t.Fatal(err)
		}
	}
	var rounds []RoundView
	get(fmt.Sprintf("/debug/rounds?unit=%d", k), &rounds)
	var why []WhyRecord
	get(fmt.Sprintf("/debug/why?unit=%d", k), &why)
	disk, err := blackbox.Dump(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 || len(why) != 3 || len(disk) != 3 {
		t.Fatalf("views hold %d, %d and %d rounds, want 3 each", len(rounds), len(why), len(disk))
	}
	for i, v := range rounds {
		row, w, d := v.Units[0], why[i], disk[len(disk)-1-i]
		du := d.Units[k]
		if row.Unit != k || w.Round != v.Round || d.Round != v.Round {
			t.Fatalf("view %d: unit %d, rounds %d/%d/%d", i, row.Unit, v.Round, w.Round, d.Round)
		}
		if row.Reason == "" {
			t.Fatalf("round %d: unit %d has no reason; the fixture must move its cap", v.Round, k)
		}
		health := ""
		if du.Health != 0 {
			health = du.HealthString()
		}
		if row.ReadingW != w.ReadingW || row.ReadingW != du.ReadingW() ||
			row.CapW != w.CapW || row.CapW != du.CapW() ||
			row.Health != w.Health || row.Health != health ||
			row.Reason != w.Reason || row.Reason != du.Reason.String() {
			t.Errorf("round %d disagrees: rounds %+v, why %+v, black box %+v", v.Round, row, w, du)
		}
	}
}
