// Command perfbench is the repository's end-to-end benchmark: an
// in-process dpsd serving a fleet of real agents over loopback TCP, one
// lockstep control interval at a time. See README.md for the workloads,
// the metrics and how the per-layer metrics map onto the end-to-end ones.
//
//	perfbench --workload steady-ops --seed 1 --seconds 16 --trace 0
//	perfbench --workload all
//	perfbench compare parent.jsonl change.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dps/internal/trace"
)

// defaultSeed is the seed results are quoted at; heldOutSeed is kept out
// of tuning and used only to confirm a claimed gain.
const (
	defaultSeed = 1
	heldOutSeed = 4099
)

// benchSpans sizes the driver's own span ring in a traced run.
const benchSpans = 1 << 16

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's full record, appended to the results file the
// comparator reads. The last line of standard output carries only the
// summary fields.
type result struct {
	Meta      meta                   `json:"meta"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Tails     map[string]tail        `json:"tails,omitempty"`
	SelfTime  []layerTime            `json:"self_time,omitempty"`
	TraceFile string                 `json:"trace_file,omitempty"`
	Errors    []string               `json:"errors,omitempty"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: steady-ops, churn-ops, churn-bare, failover, or all")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed for confirming claims: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", 16, "length of the timed part of a run")
	traced := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", filepath.Join(".bench_build", "results.jsonl"), "append each run's full record to this file (empty: don't)")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its merged Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	var specs []workloadSpec
	if *name == "all" {
		specs = workloads
	} else {
		spec, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		specs = []workloadSpec{spec}
	}
	status := 0
	for _, spec := range specs {
		res, err := runWorkload(spec, defaultParams(), *seed, *seconds, *traced == 1, *traceDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", spec.Name, err)
			return 1
		}
		report(stdout, res)
		if *out != "" {
			if err := appendRecord(*out, res); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				status = 1
			}
		}
		line, err := json.Marshal(summary{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			status = 1
		}
	}
	return status
}

func appendRecord(path string, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints every metric by name with its unit, the tails' sample
// counts, the error rate, and any failures.
func report(w io.Writer, res *result) {
	fmt.Fprintf(w, "workload %s seed %d trace %v: %d timed rounds in %d cycles\n",
		res.Meta.Config.Workload.Name, res.Meta.Run.Seed, res.Meta.Config.Trace, res.Meta.Run.TimedRounds, res.Meta.Run.Cycles)
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.4f %s", name, m.Value, m.Unit)
		if t, ok := res.Tails[name]; ok {
			fmt.Fprintf(w, "   (p%.2f of %d samples, %d beyond)", t.Percentile, t.Samples, t.Beyond)
		}
		fmt.Fprintln(w)
	}
	for _, name := range sortedKeys(res.Tails) {
		if _, ok := res.Metrics[name]; !ok {
			t := res.Tails[name]
			fmt.Fprintf(w, "  %-28s %14.4f ms   (p%.2f of %d samples, %d beyond; reported, not a metric of this run)\n", name, t.Value, t.Percentile, t.Samples, t.Beyond)
		}
	}
	for _, lt := range res.SelfTime {
		fmt.Fprintf(w, "  self %-36s total %10.1f us  self %10.1f us  (%d rounds)\n", lt.Layer, lt.TotalUS, lt.SelfUS, lt.Rounds)
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "  merged trace: %s\n", res.TraceFile)
	}
	rate := 0.0
	if res.Attempted > 0 {
		rate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "  %-28s %14.6f (%d failed of %d attempted)\n", "error_rate", rate, res.Failed, res.Attempted)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

// collector gathers one run's samples.
type collector struct {
	setup, cold, takeover          []float64 // ms
	restore, redial, firstRound    []float64 // us
	rounds                         []roundTimes
	traced                         []bool
	scrapes, scrapeBytes, liveHeap []float64
	series                         float64
	standbyLag                     float64
	procs                          []trace.Process
}

type runner struct {
	spec    workloadSpec
	p       params
	seed    int64
	seconds float64
	traced  bool
	work    string
	t       tally
	c       collector
	cycles  int
}

func runWorkload(spec workloadSpec, p params, seed int64, seconds float64, traced bool, traceDir string) (*result, error) {
	work := filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	r := &runner{spec: spec, p: p, seed: seed, seconds: seconds, traced: traced, work: work}
	runErr := r.run()
	if runErr != nil {
		r.t.op(runErr)
	}
	res := &result{
		Meta:      newMeta(spec, p, seconds, traced, seed),
		Attempted: r.t.ops,
		Failed:    r.t.failed,
		Errors:    r.t.errs,
	}
	res.Meta.Run.TimedRounds = len(r.c.rounds)
	res.Meta.Run.Cycles = r.cycles
	if runErr == nil && len(r.c.rounds) == 0 {
		r.t.op(errors.New("no round was timed"))
		res.Attempted, res.Failed, res.Errors = r.t.ops, r.t.failed, r.t.errs
	}
	res.Correct = res.Failed == 0
	if traced {
		if err := r.layerResult(res, traceDir); err != nil {
			return nil, err
		}
	} else {
		r.endToEnd(res)
	}
	return res, nil
}

func (r *runner) run() error {
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for cycle := 0; ; cycle++ {
		if r.spec.Failover {
			if cycle >= r.p.Cycles && time.Now().After(deadline) {
				return nil
			}
		} else if cycle == r.p.Cycles {
			return nil
		}
		if err := r.cycle(cycle); err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		r.cycles++
	}
}

// cycle builds a fleet from scratch and cold-starts it, runs it warm,
// takes over to its standby and verifies the lineage, then cold-starts
// fresh daemons for the same agents. On a non-failover workload the last
// cycle runs the timed loop before the takeovers; on failover every
// cycle's warm rounds are its timed rounds.
func (r *runner) cycle(i int) (err error) {
	hostsLoop := !r.spec.Failover && i == r.p.Cycles-1
	timed := hostsLoop || r.spec.Failover
	spans := 1
	if r.traced && timed {
		spans = benchSpans
	}
	runtime.GC()
	start := time.Now()
	f, err := newFleet(r.spec, r.p, r.work, fleetSeed(r.seed, i), trace.NewRecorder(spans), &r.t)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.stopDaemons()) }()
	cold, err := f.coldStart()
	if err != nil {
		return err
	}
	r.c.setup = append(r.c.setup, ms(time.Since(start)))
	r.c.cold = append(r.c.cold, ms(cold))

	// Failover traces whole cycles, alternating with untraced ones.
	traceCycle := r.spec.Failover && r.traced && i%2 == 1 && r.tracedRounds() < r.p.TraceRounds
	f.setTracing(traceCycle)
	for f.prim.decided < uint64(r.p.WarmRounds) {
		rt, err := f.step(r.scrapeDue(f))
		if err != nil {
			return err
		}
		if r.spec.Failover {
			r.record(f, rt, traceCycle)
		}
	}
	f.setTracing(false)
	if hostsLoop {
		if err := r.loop(f); err != nil {
			return err
		}
		if !r.spec.Ops {
			r.probeScrapes(f)
		}
	}
	if timed {
		if r.traced && f.bench.Len() > 0 {
			r.c.procs = append(r.c.procs, f.harvest(fmt.Sprintf("c%d/", i))...)
		}
		// Measured before the first replay builds the dense shadow, and
		// without the readings the ledger holds for it.
		live := liveHeapBytes() - f.led.pendingBytes()
		r.c.liveHeap = append(r.c.liveHeap, float64(live)/(1<<20))
		count, err := f.prim.checkBound()
		r.t.op(err)
		r.c.series = float64(count)
	}
	// Every probe, the timed loop and each cycle's set-up start from a
	// finished collection, so garbage left by earlier work does not land
	// in them.
	probes := r.p.Probes
	if r.spec.Failover {
		probes = 1
	}
	// Takeovers: the first follows the timed rounds; each further one first
	// attaches a fresh standby to the promoted daemon. churn-bare runs
	// without a standby, so its first one is attached only now.
	for k := 0; k < probes; k++ {
		if f.standby == nil {
			if err := f.attachStandby(); err != nil {
				return err
			}
			if _, err := f.step(false); err != nil {
				return err
			}
			if err := await(f.standby.log.synced, "the standby's initial sync"); err != nil {
				return err
			}
		}
		runtime.GC()
		tt, err := f.takeover()
		if err != nil {
			return err
		}
		r.c.takeover = append(r.c.takeover, ms(tt.total))
		r.c.restore = append(r.c.restore, us(tt.restore))
		r.c.redial = append(r.c.redial, us(tt.redial))
		r.c.firstRound = append(r.c.firstRound, us(tt.firstRound))
	}
	r.t.op(f.led.verify())
	// Cold starts of fresh daemons serving the same agents.
	for j := 0; j < probes; j++ {
		if err := f.stopDaemons(); err != nil {
			return err
		}
		runtime.GC()
		cold, err := f.coldStart()
		if err != nil {
			return err
		}
		r.c.cold = append(r.c.cold, ms(cold))
		r.t.op(f.led.verify())
	}
	return nil
}

func (r *runner) scrapeDue(f *fleet) bool {
	return r.spec.Ops && (f.prim.decided+1)%uint64(r.p.ScrapeEvery) == 0
}

func (r *runner) tracedRounds() int {
	n := 0
	for _, on := range r.c.traced {
		if on {
			n++
		}
	}
	return n
}

func (r *runner) record(f *fleet, rt roundTimes, traced bool) {
	r.c.rounds = append(r.c.rounds, rt)
	r.c.traced = append(r.c.traced, traced)
	if rt.scraped {
		r.c.scrapes = append(r.c.scrapes, ms(rt.scrape))
		r.c.scrapeBytes = append(r.c.scrapeBytes, float64(rt.scrapeBytes))
	}
	if f.standby != nil {
		r.c.standbyLag = max(r.c.standbyLag, f.standby.lag.Value())
	}
}

// loop runs back-to-back rounds for the run's length. A traced run
// alternates untraced and traced blocks, so both see the same drift.
func (r *runner) loop(f *fleet) error {
	runtime.GC()
	d := time.Duration(r.seconds * float64(time.Second))
	traced := 0
	for start, i := time.Now(), 0; time.Since(start) < d; i++ {
		on := r.traced && (i/r.p.TraceBlock)%2 == 1 && traced < r.p.TraceRounds
		if on != f.bench.On() {
			f.setTracing(on)
		}
		rt, err := f.step(r.scrapeDue(f))
		if err != nil {
			return err
		}
		r.record(f, rt, on)
		if on {
			traced++
		}
	}
	f.setTracing(false)
	return nil
}

// probeScrapes measures /metrics on a workload that does not scrape
// inside its timed loop.
func (r *runner) probeScrapes(f *fleet) {
	runtime.GC()
	for i := 0; i < r.p.ScrapeProbes; i++ {
		s := time.Now()
		code, body := f.prim.scrape()
		r.c.scrapes = append(r.c.scrapes, ms(time.Since(s)))
		r.c.scrapeBytes = append(r.c.scrapeBytes, float64(len(body)))
		r.t.op(checkScrape(code, body, f.prim.decided))
	}
}

// endToEnd fills the untraced metrics.
func (r *runner) endToEnd(res *result) {
	var caps, rounds []float64
	var cpu time.Duration
	var alloc uint64
	for _, rt := range r.c.rounds {
		caps = append(caps, ms(rt.capsLatency()))
		rounds = append(rounds, ms(rt.roundLatency()))
		cpu += rt.cpu
		alloc += rt.allocBytes
	}
	n := float64(max(1, len(r.c.rounds)))
	ct, rtl := tailOf(caps), tailOf(rounds)
	res.Metrics = map[string]metricValue{
		"caps_p50_ms":        {median(caps), "ms"},
		"round_p50_ms":       {median(rounds), "ms"},
		"round_tail_ms":      {rtl.Value, "ms"},
		"cpu_ms_per_round":   {ms(cpu) / n, "ms"},
		"alloc_kb_per_round": {float64(alloc) / 1024 / n, "KiB"},
		"live_heap_mb":       {median(r.c.liveHeap), "MiB"},
		"scrape_p50_ms":      {median(r.c.scrapes), "ms"},
		"takeover_p50_ms":    {median(r.c.takeover), "ms"},
		"cold_start_p50_ms":  {median(r.c.cold), "ms"},
		"setup_s":            {median(r.c.setup) / 1000, "s"},
	}
	res.Tails = map[string]tail{"caps_tail_ms": ct, "round_tail_ms": rtl}
}
