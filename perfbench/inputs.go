package main

import (
	"fmt"
	"math/rand"

	"dps/internal/power"
	"dps/internal/rapl"
	"dps/internal/workload"
)

// workloadSpec is one benchmark workload: the input every unit's demand
// follows and the operations stack the daemon runs beside the control
// path. README.md gives the reason each workload exists.
type workloadSpec struct {
	Name string `json:"name"`
	// Churn selects phase-trace demand with noise above the delta band, so
	// (nearly) every unit reports every interval; otherwise about 5% of
	// units change demand per interval and the rest hold inside the band.
	Churn bool `json:"churn"`
	// Ops runs the operations stack: black box, series sampler with the
	// watchdog, a warm standby following over loopback, and a /metrics
	// scrape every ScrapeEvery rounds.
	Ops bool `json:"ops"`
	// Failover makes the timed part of a run a sequence of lifecycle
	// cycles (cold start, warm rounds, takeover) instead of back-to-back
	// rounds on one long-lived fleet.
	Failover bool `json:"failover"`
}

var workloads = []workloadSpec{
	{Name: "steady-ops", Ops: true},
	{Name: "churn-ops", Churn: true, Ops: true},
	{Name: "churn-bare", Churn: true},
	{Name: "failover", Churn: true, Ops: true, Failover: true},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

// params are the fixed load-shape settings of a run. They are recorded in
// every result, and the comparator refuses to compare runs whose params
// differ.
type params struct {
	Agents        int     `json:"agents"`
	UnitsPerAgent int     `json:"units_per_agent"`
	BudgetPerUnit float64 `json:"budget_per_unit_w"`
	DeltaEpsilonW float64 `json:"delta_epsilon_w"`
	// WarmRounds fill the controller's 20-sample histories before any
	// round is timed, and precede every takeover.
	WarmRounds int `json:"warm_rounds"`
	// Cycles is the number of set-up cycles a non-failover run makes; the
	// last one hosts the timed loop. Failover runs cycle until time is up,
	// but make at least this many.
	Cycles int `json:"cycles"`
	// Probes is the number of takeovers, and of further cold starts on
	// fresh daemons, each non-failover cycle ends with; a failover cycle
	// makes one of each, since its cycles repeat.
	Probes      int `json:"probes"`
	ScrapeEvery int `json:"scrape_every"`
	// ScrapeProbes is the number of /metrics scrapes taken after the timed
	// loop on workloads that do not scrape inside it.
	ScrapeProbes int `json:"scrape_probes"`
	// TraceBlock is the length of the alternating untraced/traced round
	// blocks of a traced run; TraceRounds caps the traced rounds, so the
	// span rings hold the whole traced run.
	TraceBlock  int `json:"trace_block"`
	TraceRounds int `json:"trace_rounds"`
}

func defaultParams() params {
	return params{
		Agents:        64,
		UnitsPerAgent: 255, // the protocol's per-session ceiling
		BudgetPerUnit: 110,
		DeltaEpsilonW: 2,
		WarmRounds:    22,
		Cycles:        2,
		Probes:        4,
		ScrapeEvery:   10,
		ScrapeProbes:  30,
		TraceBlock:    10,
		TraceRounds:   150,
	}
}

func (p params) units() int { return p.Agents * p.UnitsPerAgent }

// demand drives every simulated socket's uncapped power demand, one
// interval at a time. It is a pure function of the seed: the same seed
// gives the same demand sequence, so readings and caps repeat.
type demand struct {
	churn bool
	rng   *rand.Rand
	// steady: the current demand level per unit.
	level []power.Watts
	// churn: each unit replays one of a pool of phase traces from its own
	// offset, with a jitter whose sign alternates every interval.
	pool   [][]power.Watts
	pick   []int
	offset []int
	sign   []float64
}

// runsPerSpec is how many jittered runs of each catalog workload the
// churn trace pool holds. Every seed gets the same mix of workloads, so
// the seed moves phases and jitter but not the amount of work.
const runsPerSpec = 4

func newDemand(churn bool, units int, seed int64) *demand {
	rng := rand.New(rand.NewSource(seed))
	d := &demand{churn: churn, rng: rng}
	if !churn {
		d.level = make([]power.Watts, units)
		for u := range d.level {
			d.level[u] = power.Watts(40 + 60*rng.Float64())
		}
		return d
	}
	for i := 0; i < runsPerSpec; i++ {
		for _, spec := range workload.All() {
			d.pool = append(d.pool, workload.NewRun(spec, rng).DemandTrace(1))
		}
	}
	d.pick = make([]int, units)
	d.offset = make([]int, units)
	d.sign = make([]float64, units)
	for u := 0; u < units; u++ {
		d.pick[u] = u % len(d.pool)
		d.offset[u] = rng.Intn(len(d.pool[d.pick[u]]))
		d.sign[u] = 1
		if rng.Intn(2) == 0 {
			d.sign[u] = -1
		}
	}
	return d
}

// deviceConfig is the simulated socket of the paper's platform. Steady
// units get a noise σ small enough that readings stay inside the 2 W delta
// band; churn units keep the RAPL default.
func deviceConfig(churn bool, seed int64) rapl.SimConfig {
	c := rapl.DefaultSimConfig()
	c.Seed = seed
	if !churn {
		c.NoiseStdDev = 0.3
	}
	return c
}

// advance sets every device's demand for interval round and moves its
// virtual clock forward one second.
func (d *demand) advance(round int, devs []*rapl.SimDevice) {
	if d.churn {
		for u, dev := range devs {
			tr := d.pool[d.pick[u]]
			w := tr[(d.offset[u]+round)%len(tr)]
			d.sign[u] = -d.sign[u]
			w += power.Watts(d.sign[u] * (3 + 5*d.rng.Float64()))
			dev.SetLoad(w)
			dev.Advance(1)
		}
		return
	}
	for i := 0; i < len(devs)/20; i++ {
		d.level[d.rng.Intn(len(devs))] = power.Watts(40 + 120*d.rng.Float64())
	}
	for u, dev := range devs {
		dev.SetLoad(d.level[u])
		dev.Advance(1)
	}
}
