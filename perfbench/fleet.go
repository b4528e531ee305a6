package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"dps/internal/core"
	"dps/internal/daemon"
	"dps/internal/power"
	"dps/internal/rapl"
	"dps/internal/telemetry"
	"dps/internal/trace"
)

// The daemon's decision ticker must never fire: the driver calls
// DecideOnce itself, in lockstep with the agents. Serve (and the
// standby's Serve after takeover) still runs its ticker, so the
// configured interval is an hour; every round is told it covers one
// virtual second.
const (
	idleIntervalMS = 3_600_000
	virtualDT      = power.Seconds(1)
)

// waitLimit bounds every wait on the program (ingest, standby sync,
// takeover), so a program that stops answering fails the run instead of
// hanging it.
const waitLimit = 20 * time.Second

// Span ring sizes: large enough that a traced run (params.TraceRounds
// traced rounds) never evicts a span.
const (
	serverSpans = 1 << 16
	agentSpans  = 1 << 10
)

// logHook receives a daemon's operational log lines. Two lines mark
// events the driver must wait for and that the program exports nowhere
// else; a few others report faults that count as failed operations.
type logHook struct {
	replica chan struct{} // primary: a standby registered for replication
	synced  chan struct{} // standby: adopted a full state image
	faults  atomic.Int64
	fault   atomic.Value // string: the last fault line
}

func newLogHook() *logHook {
	return &logHook{replica: make(chan struct{}, 1), synced: make(chan struct{}, 1)}
}

var faultPrefixes = []string{
	"daemon: blackbox append",
	"daemon: dropping standby",
	"daemon: standby: rejecting snapshot",
	"daemon: snapshot write",
}

func (h *logHook) logf(format string, args ...any) {
	switch {
	case strings.HasPrefix(format, "daemon: standby connected from"):
		signal(h.replica)
	case strings.HasPrefix(format, "daemon: standby: synced full state"):
		signal(h.synced)
	default:
		for _, p := range faultPrefixes {
			if strings.HasPrefix(format, p) {
				h.faults.Add(1)
				h.fault.Store(fmt.Sprintf(format, args...))
			}
		}
	}
}

func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

func await(c <-chan struct{}, what string) error {
	select {
	case <-c:
		return nil
	case <-time.After(waitLimit):
		return fmt.Errorf("timed out after %v waiting for %s", waitLimit, what)
	}
}

// node is one in-process dpsd, built from a config file the way cmd/dpsd
// builds it, plus the existing telemetry handles the driver reads.
type node struct {
	srv       *daemon.Server
	mgr       core.Manager
	mux       http.Handler
	cfgPath   string
	dir       string
	log       *logHook
	ln        net.Listener
	addr      string
	done      chan error // Serve or RunStandby result
	cancel    context.CancelFunc
	promoted  chan takeoverListen // standby: listener opened at takeover
	sampling  bool
	scrapeOut scrapeWriter

	batches, reports, heartbeats *telemetry.Counter
	records                      *telemetry.Counter
	snapDur                      *telemetry.Histogram
	snapBytes                    *telemetry.Gauge
	bbBytes                      *telemetry.Counter
	dirty, skipped               *telemetry.Gauge
	lag                          *telemetry.Gauge

	decided uint64 // DecideOnce calls the driver made on this server
}

type takeoverListen struct {
	at  time.Time
	ln  net.Listener
	err error
}

// newNode writes the node's config file and builds the server through
// LoadFileConfig → BuildManager → ApplyKnobs → NewServer.
func newNode(dir string, spec workloadSpec, p params, standbyOf string) (*node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fc := daemon.FileConfig{
		Listen:        "127.0.0.1:0",
		Units:         p.units(),
		BudgetW:       p.BudgetPerUnit * float64(p.units()),
		IntervalMS:    idleIntervalMS,
		DeltaEpsilonW: p.DeltaEpsilonW,
		TraceSpans:    serverSpans,
		StandbyOf:     standbyOf,
	}
	if spec.Ops {
		fc.Series = true
		fc.Watch = true
		fc.BlackboxPath = filepath.Join(dir, "blackbox")
	}
	raw, err := json.Marshal(fc)
	if err != nil {
		return nil, err
	}
	n := &node{cfgPath: filepath.Join(dir, "dpsd.json"), dir: dir, log: newLogHook(), done: make(chan error, 1)}
	n.scrapeOut.hdr = http.Header{}
	if err := os.WriteFile(n.cfgPath, raw, 0o644); err != nil {
		return nil, err
	}
	loaded, err := daemon.LoadFileConfig(n.cfgPath)
	if err != nil {
		return nil, err
	}
	mgr, err := loaded.BuildManager()
	if err != nil {
		return nil, err
	}
	n.mgr = mgr
	var cfg daemon.ServerConfig
	loaded.ApplyKnobs(&cfg)
	cfg.Manager = mgr
	cfg.Units = loaded.Units
	cfg.Interval = loaded.Interval()
	cfg.Logf = n.log.logf
	cfg.WatchRules = loaded.WatchRules
	n.srv, err = daemon.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	n.mux = n.srv.StatusHandler()
	n.sampling = n.srv.Series() != nil
	n.bind()
	return n, nil
}

// bind looks up the telemetry handles the driver reads. Registry lookups
// return the program's own series; checkBound confirms each name existed
// before the lookup, so the driver never adds a series of its own.
func (n *node) bind() {
	reg := n.srv.Telemetry()
	kind := func(k string) telemetry.Label { return telemetry.Label{Key: "kind", Value: k} }
	n.reports = reg.Counter("dps_ingest_frames_total", "", kind("report"))
	n.batches = reg.Counter("dps_ingest_frames_total", "", kind("batch"))
	n.heartbeats = reg.Counter("dps_ingest_frames_total", "", kind("heartbeat"))
	n.records = reg.Counter("dps_ingest_records_total", "")
	n.snapDur = reg.Histogram("dps_snapshot_duration_seconds", "", nil)
	n.snapBytes = reg.Gauge("dps_snapshot_bytes", "")
	n.bbBytes = reg.Counter("dps_blackbox_bytes_total", "")
	n.dirty = reg.Gauge("dps_decide_dirty_units", "")
	n.skipped = reg.Gauge("dps_decide_skipped_units", "")
	n.lag = reg.Gauge("dps_standby_lag_rounds", "")
}

// boundSeries are the series bind looks up.
var boundSeries = []string{
	`dps_ingest_frames_total{kind="report"}`,
	`dps_ingest_frames_total{kind="batch"}`,
	`dps_ingest_frames_total{kind="heartbeat"}`,
	"dps_ingest_records_total",
	"dps_snapshot_duration_seconds",
	"dps_snapshot_bytes",
	"dps_blackbox_bytes_total",
	"dps_decide_dirty_units",
	"dps_decide_skipped_units",
	"dps_standby_lag_rounds",
}

// checkBound fails when a series the driver reads is not one the program
// registered (a renamed metric would otherwise read as a silent zero).
// It also returns the registry's series count.
func (n *node) checkBound() (int, error) {
	have := make(map[string]bool)
	count := 0
	n.srv.Telemetry().Each(func(s telemetry.Sample) {
		have[s.Name+s.Labels] = true
		count++
	})
	for _, name := range boundSeries {
		if !have[name] {
			return count, fmt.Errorf("the daemon no longer exports %s", name)
		}
	}
	return count, nil
}

func (n *node) frames() uint64 {
	return n.reports.Value() + n.batches.Value() + n.heartbeats.Value()
}

func (n *node) serve() {
	go func() { n.done <- n.srv.Serve(n.ln) }()
}

// follow starts the node as a warm standby. Its agent listener opens only
// at takeover, from the listen callback, which reports the moment the
// replicated state is restored.
func (n *node) follow() {
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.promoted = make(chan takeoverListen, 1)
	go func() {
		n.done <- n.srv.RunStandby(ctx, func() (net.Listener, error) {
			at := time.Now()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			n.promoted <- takeoverListen{at: at, ln: ln, err: err}
			return ln, err
		})
	}()
}

// stop shuts the node down and waits for its goroutines. A standby that
// never took over is cancelled; anything serving is closed with its
// listener.
func (n *node) stop() error {
	var err error
	if n.cancel != nil && n.ln == nil {
		n.cancel()
		err = errors.Join(<-n.done, n.srv.Close())
	} else {
		if n.cancel != nil {
			n.cancel()
		}
		err = n.srv.Close()
		n.ln.Close()
		err = errors.Join(err, <-n.done)
	}
	return errors.Join(err, closeManager(n.mgr), os.RemoveAll(n.dir))
}

// closeManager stops a controller's shard workers now rather than at
// finalization, which would keep each discarded controller (and the
// trace ring it points at) alive across one more collection.
func closeManager(m core.Manager) error {
	if c, ok := m.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// scrapeWriter is the response writer scrapes are served into. It keeps
// its buffer across scrapes, so the driver's own allocations stay out of
// the scrape's time.
type scrapeWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *scrapeWriter) Header() http.Header { return w.hdr }

func (w *scrapeWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *scrapeWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

// scrape serves GET /metrics in-process. The body is valid until the
// next scrape.
func (n *node) scrape() (int, []byte) {
	w := &n.scrapeOut
	w.code = 0
	w.body.Reset()
	clear(w.hdr)
	n.mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return w.code, w.body.Bytes()
}

// fleet is one lockstep deployment: the simulated sockets, one agent per
// 255-unit session, the serving daemon and (on the ops stack) its warm
// standby.
type fleet struct {
	spec  workloadSpec
	p     params
	work  string
	devs  []*rapl.SimDevice
	dem   *demand
	ticks int // intervals the devices have advanced

	agents []*daemon.Agent
	conns  []net.Conn

	prim, standby *node
	nodes         int

	bench *trace.Recorder
	led   *ledger
	tally *tally
	caps  power.Vector // caps of the latest round, kept for the checks
}

// fleetSeed derives the input seed of one set-up cycle.
func fleetSeed(seed int64, cycle int) int64 { return seed*1_000_003 + int64(cycle) }

// newFleet builds the sockets and agents of one cycle. Nothing is
// connected yet.
func newFleet(spec workloadSpec, p params, work string, seed int64, bench *trace.Recorder, t *tally) (*fleet, error) {
	f := &fleet{spec: spec, p: p, work: work, bench: bench, tally: t}
	units := p.units()
	f.dem = newDemand(spec.Churn, units, seed)
	f.devs = make([]*rapl.SimDevice, units)
	for u := range f.devs {
		d, err := rapl.NewSimDevice(deviceConfig(spec.Churn, seed*int64(units+1)+int64(u)))
		if err != nil {
			return nil, err
		}
		f.devs[u] = d
	}
	for i := 0; i < p.Agents; i++ {
		devs := make([]rapl.Device, p.UnitsPerAgent)
		for j := range devs {
			devs[j] = f.devs[i*p.UnitsPerAgent+j]
		}
		a, err := daemon.NewAgent(daemon.AgentConfig{
			FirstUnit:  power.UnitID(i * p.UnitsPerAgent),
			Devices:    devs,
			Interval:   time.Second,
			ApplyEcho:  true,
			Batch:      true,
			TraceCtx:   true,
			TraceSpans: agentSpans,
		})
		if err != nil {
			return nil, err
		}
		f.agents = append(f.agents, a)
	}
	f.conns = make([]net.Conn, p.Agents)
	f.caps = make(power.Vector, units)
	return f, nil
}

func (f *fleet) budget() power.Watts {
	return power.Watts(f.p.BudgetPerUnit * float64(f.p.units()))
}

func (f *fleet) nodeDir() string {
	f.nodes++
	return filepath.Join(f.work, fmt.Sprintf("node-%d", f.nodes))
}

// dialAll (re)connects every agent, in session order, to addr.
func (f *fleet) dialAll(addr string) error {
	for i, a := range f.agents {
		if f.conns[i] != nil {
			f.conns[i].Close()
		}
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			err = a.Handshake(conn)
		}
		if err != nil {
			f.conns[i] = nil
			return fmt.Errorf("agent %d: %w", i, err)
		}
		f.conns[i] = conn
	}
	return nil
}

// setTracing turns every span recorder on or off: the driver's own, the
// daemons' (which the controller shares), and every agent's.
func (f *fleet) setTracing(on bool) {
	f.bench.SetEnabled(on)
	for _, n := range []*node{f.prim, f.standby} {
		if n != nil {
			n.srv.Trace().SetEnabled(on)
		}
	}
	for _, a := range f.agents {
		a.Trace().SetEnabled(on)
	}
}

// attachStandby starts a warm standby following the serving daemon and
// waits until the primary has registered it for replication.
func (f *fleet) attachStandby() error {
	sb, err := newNode(f.nodeDir(), f.spec, f.p, f.prim.addr)
	if err != nil {
		return fmt.Errorf("standby: %w", err)
	}
	f.standby = sb
	sb.follow()
	return await(f.prim.log.replica, "the primary to register its standby")
}

// coldStart builds a fresh daemon (and, on the ops stack, its standby),
// connects every agent and runs the first round. It returns the time from
// the fresh daemon's construction until every agent applied its first
// caps.
func (f *fleet) coldStart() (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	// The standby is constructed before the clock starts: a cold start is
	// the primary's, and a standby exists long before any takeover.
	var sb *node
	if f.spec.Ops {
		if sb, err = newNode(f.nodeDir(), f.spec, f.p, ln.Addr().String()); err != nil {
			ln.Close()
			return 0, fmt.Errorf("standby: %w", err)
		}
		sb.follow()
	}
	start := time.Now()
	pr, err := newNode(f.nodeDir(), f.spec, f.p, "")
	if err != nil {
		ln.Close()
		if sb != nil {
			sb.stop()
		}
		return 0, err
	}
	pr.ln, pr.addr = ln, ln.Addr().String()
	pr.serve()
	f.prim, f.standby = pr, sb
	if err := f.dialAll(pr.addr); err != nil {
		return 0, err
	}
	if sb != nil {
		if err := await(pr.log.replica, "the primary to register its standby"); err != nil {
			return 0, err
		}
	}
	if f.led, err = newLedger(pr.cfgPath, f.p.units()); err != nil {
		return 0, err
	}
	rt, err := f.step(false)
	if err != nil {
		return 0, err
	}
	if sb != nil {
		if err := await(sb.log.synced, "the standby's initial sync"); err != nil {
			return 0, err
		}
	}
	return rt.applied.Sub(start), nil
}

// roundTimes is what the driver observed of one lockstep interval.
type roundTimes struct {
	round                               uint64
	tick, reported, ingested, decideEnd time.Time
	applied, end                        time.Time
	decideStart                         time.Time
	sample, scrape                      time.Duration
	scraped                             bool
	scrapeBytes                         int
	cpu                                 time.Duration
	allocBytes, decideAllocs            uint64
	frames, records, heartbeats         uint64
	dirty, skipped                      float64
	snapEncode                          time.Duration
	snapBytes                           float64
	bbBytes                             uint64
	gcCycles                            uint64
}

func (rt roundTimes) capsLatency() time.Duration  { return rt.applied.Sub(rt.tick) }
func (rt roundTimes) roundLatency() time.Duration { return rt.end.Sub(rt.tick) }

// Span names of the driver's own recorder, one per public call it times.
const (
	spanRound       = "pb.round"
	spanReportOnce  = "pb.report_once"
	spanIngestWait  = "pb.ingest_wait"
	spanDecideOnce  = "pb.decide_once"
	spanReceiveCaps = "pb.receive_caps"
	spanSampleOnce  = "pb.sample_once"
	spanScrape      = "pb.scrape"
)

func (f *fleet) span(round uint64, name string, lane, unit int32, start, end time.Time) {
	if f.bench.On() {
		f.bench.Record(round, name, lane, unit, start, end.Sub(start))
	}
}

type applyResult struct {
	at  time.Time
	err error
}

// step runs one lockstep interval on the serving daemon: advance the
// sockets, every agent reports, wait until ingest covers the round,
// DecideOnce while a second goroutine drains the caps, then the sampler
// and any due scrape. It then checks the round's outputs, outside the
// timed window.
func (f *fleet) step(scrape bool) (roundTimes, error) {
	n := f.prim
	f.dem.advance(f.ticks, f.devs)
	f.ticks++

	var rt roundTimes
	rt.round = n.srv.Rounds() + 1
	frames0, records0, beats0 := n.frames(), n.records.Value(), n.heartbeats.Value()
	snap0, bb0 := n.snapDur.Sum(), n.bbBytes.Value()
	before := readRuntime()

	rt.tick = time.Now()
	for i, a := range f.agents {
		s := time.Now()
		err := a.ReportOnce(virtualDT)
		f.span(rt.round, spanReportOnce, trace.LaneAgent, int32(i*f.p.UnitsPerAgent), s, time.Now())
		if f.tally.op(err) {
			return rt, fmt.Errorf("agent %d report: %w", i, err)
		}
	}
	rt.reported = time.Now()
	want := frames0 + uint64(len(f.agents))
	for n.frames() < want {
		if time.Since(rt.reported) > waitLimit {
			f.tally.op(errors.New("ingest timeout"))
			return rt, fmt.Errorf("round %d: ingest counters stuck at %d of %d frames", rt.round, n.frames()-frames0, len(f.agents))
		}
		runtime.Gosched()
	}
	rt.ingested = time.Now()
	f.span(rt.round, spanIngestWait, trace.LaneIngest, -1, rt.reported, rt.ingested)

	applied := make(chan applyResult, 1)
	go func() {
		for i, a := range f.agents {
			s := time.Now()
			err := a.ReceiveCaps()
			f.span(rt.round, spanReceiveCaps, trace.LaneAgent, int32(i*f.p.UnitsPerAgent), s, time.Now())
			if err != nil {
				applied <- applyResult{time.Now(), fmt.Errorf("agent %d receive: %w", i, err)}
				return
			}
		}
		applied <- applyResult{at: time.Now()}
	}()

	m0 := readMallocs()
	rt.decideStart = time.Now()
	caps, derr := n.srv.DecideOnce(virtualDT)
	rt.decideEnd = time.Now()
	rt.decideAllocs = readMallocs() - m0
	f.span(rt.round, spanDecideOnce, trace.LaneDecide, -1, rt.decideStart, rt.decideEnd)
	n.decided++
	if derr != nil {
		// A failed push leaves the receiver blocked; closing the agents'
		// sockets releases it.
		for _, c := range f.conns {
			if c != nil {
				c.Close()
			}
		}
	}
	if n.sampling {
		s := time.Now()
		n.srv.SampleOnce()
		e := time.Now()
		rt.sample = e.Sub(s)
		f.span(rt.round, spanSampleOnce, trace.LaneSim, -1, s, e)
	}
	var code int
	var body []byte
	if scrape {
		s := time.Now()
		code, body = n.scrape()
		e := time.Now()
		rt.scrape, rt.scraped, rt.scrapeBytes = e.Sub(s), true, len(body)
		f.span(rt.round, spanScrape, trace.LaneSim, -1, s, e)
	}
	res := <-applied
	rt.applied = res.at
	rt.end = time.Now()
	if rt.applied.After(rt.end) {
		rt.end = rt.applied
	}
	after := readRuntime()
	f.span(rt.round, spanRound, trace.LaneSim, -1, rt.tick, rt.end)

	rt.cpu = after.cpu - before.cpu
	rt.allocBytes = after.allocBytes - before.allocBytes
	rt.gcCycles = after.gcCycles - before.gcCycles
	rt.frames = n.frames() - frames0
	rt.records = n.records.Value() - records0
	rt.heartbeats = n.heartbeats.Value() - beats0
	rt.dirty, rt.skipped = n.dirty.Value(), n.skipped.Value()
	rt.snapEncode = time.Duration((n.snapDur.Sum() - snap0) * 1e9)
	rt.snapBytes = n.snapBytes.Value()
	rt.bbBytes = n.bbBytes.Value() - bb0

	// Output checks, outside the timed window.
	if f.tally.op(derr) {
		return rt, derr
	}
	if f.tally.op(res.err) {
		return rt, res.err
	}
	f.tally.ops += len(f.agents) - 1 // the other receives succeeded too
	copy(f.caps, caps)
	f.tally.op(checkBudget(f.caps, f.budget()))
	f.tally.op(checkDeviceCaps(f.devs, f.caps))
	if scrape {
		f.tally.op(checkScrape(code, body, n.decided))
	}
	if faults := n.log.faults.Load(); faults > 0 {
		f.tally.op(fmt.Errorf("daemon logged %d faults, last: %v", faults, n.log.fault.Load()))
		n.log.faults.Store(0)
	}
	f.led.record(n.srv.Readings(), f.caps)
	return rt, nil
}

// takeoverTimes splits one takeover into its phases.
type takeoverTimes struct {
	total, restore, redial, firstRound time.Duration
}

// takeover closes the primary and moves the fleet to the standby: wait
// for the standby to restore and open its listener, re-dial every agent
// to it in lockstep, and run one round there.
func (f *fleet) takeover() (takeoverTimes, error) {
	var tt takeoverTimes
	pr, sb := f.prim, f.standby
	primRounds := pr.srv.Rounds()
	start := time.Now()
	pr.srv.Close()
	pr.ln.Close()
	var tl takeoverListen
	select {
	case tl = <-sb.promoted:
	case <-time.After(waitLimit):
		return tt, fmt.Errorf("timed out after %v waiting for the standby to take over", waitLimit)
	}
	if tl.err != nil {
		return tt, fmt.Errorf("standby listener: %w", tl.err)
	}
	sb.ln, sb.addr = tl.ln, tl.ln.Addr().String()
	f.prim, f.standby = sb, nil
	if err := f.dialAll(sb.addr); err != nil {
		return tt, err
	}
	redialed := time.Now()
	rt, err := f.step(false)
	if err != nil {
		return tt, err
	}
	tt.total = rt.applied.Sub(start)
	tt.restore = tl.at.Sub(start)
	tt.redial = redialed.Sub(tl.at)
	tt.firstRound = rt.applied.Sub(redialed)
	f.tally.op(checkTakeover(sb.srv.Rounds(), primRounds))
	f.tally.op(errors.Join(<-pr.done, closeManager(pr.mgr), os.RemoveAll(pr.dir)))
	return tt, nil
}

// stopDaemons disconnects the agents and stops the daemons: the standby
// first, so it cannot take over, then the serving daemon. The agents stay
// ready to be dialled to a fresh daemon.
func (f *fleet) stopDaemons() error {
	for i, c := range f.conns {
		if c != nil {
			c.Close()
			f.conns[i] = nil
		}
	}
	var err error
	if f.standby != nil {
		err = f.standby.stop()
		f.standby = nil
	}
	if f.prim != nil {
		err = errors.Join(err, f.prim.stop())
		f.prim = nil
	}
	return err
}
