package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dps/internal/trace"
)

// events exports one recorder's spans as Chrome trace events.
func events(r *trace.Recorder) []trace.Event {
	var b bytes.Buffer
	if err := r.WriteTraceEvents(&b, 0); err != nil {
		return nil
	}
	ev, err := trace.ParseEvents(b.Bytes())
	if err != nil {
		return nil
	}
	return ev
}

// Process roles in the merged trace, from the name prefix after the
// cycle tag.
const (
	roleDriver = "perfbench"
	roleServer = "dpsd"
	roleAgent  = "agent"
)

// harvest collects the spans of one cycle's recorders: the driver's own
// first, then the serving daemon's (which the controller shares), then
// every agent's. The driver's process leads the merged trace: it has no
// "apply" spans, so trace.Merge finds no clock anchors and leaves every
// process unshifted, which is right for processes sharing one clock.
func (f *fleet) harvest(tag string) []trace.Process {
	procs := []trace.Process{
		{Name: tag + roleDriver, Events: events(f.bench)},
		{Name: tag + roleServer, Events: events(f.prim.srv.Trace())},
	}
	for i, a := range f.agents {
		procs = append(procs, trace.Process{Name: fmt.Sprintf("%s%s-%d", tag, roleAgent, i*f.p.UnitsPerAgent), Events: events(a.Trace())})
	}
	return procs
}

// layerTime is one layer's median time per traced round: its whole span
// time and its self time (span time minus the child spans it contains).
type layerTime struct {
	Layer   string  `json:"layer"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
	Rounds  int     `json:"rounds"`
}

// children names, per parent layer, the spans nested inside it on the
// call path. Spans that merely overlap in time (the cap receiver runs
// beside DecideOnce) are not children.
var children = map[string][]string{
	roleDriver + "/" + spanRound:      {roleDriver + "/" + spanReportOnce, roleDriver + "/" + spanIngestWait, roleDriver + "/" + spanDecideOnce, roleDriver + "/" + spanSampleOnce, roleDriver + "/" + spanScrape},
	roleDriver + "/" + spanReportOnce: {roleAgent + "/" + trace.SpanRead, roleAgent + "/" + trace.SpanReport},
	roleDriver + "/" + spanDecideOnce: {roleServer + "/" + trace.SpanDecide, roleServer + "/" + trace.SpanPush},
	roleServer + "/" + trace.SpanDecide: {roleServer + "/" + trace.SpanKalman, roleServer + "/" + trace.SpanStateless,
		roleServer + "/" + trace.SpanPriority, roleServer + "/" + trace.SpanReadjust, roleServer + "/" + trace.SpanHealthPin},
	roleDriver + "/" + spanReceiveCaps: {roleAgent + "/" + trace.SpanCapApply},
}

type span struct {
	layer      string
	start, end float64 // us
}

// roundKey identifies one round of one cycle in the merged trace.
type roundKey struct {
	cycle string
	round uint64
}

// selfTimes reads a merged trace and returns, per traced round, every
// layer's summed span time and self time in microseconds. Only rounds the
// driver traced (those with a driver round span) are kept.
func selfTimes(path string) (total, self map[roundKey]map[string]float64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	evs, err := trace.ParseEvents(raw)
	if err != nil {
		return nil, nil, err
	}
	type proc struct{ cycle, role string }
	procs := map[int]proc{}
	for _, ev := range evs {
		if ev.Ph == "M" && ev.Name == "process_name" {
			name, _ := ev.Args["name"].(string)
			cycle, rest, _ := strings.Cut(name, "/")
			role, _, _ := strings.Cut(rest, "-")
			procs[ev.Pid] = proc{cycle, role}
		}
	}
	byRound := map[roundKey][]span{}
	for _, ev := range evs {
		if ev.Ph != "X" {
			continue
		}
		id, ok := ev.Args["trace_id"].(float64)
		if !ok {
			continue
		}
		p := procs[ev.Pid]
		k := roundKey{p.cycle, uint64(id)}
		byRound[k] = append(byRound[k], span{layer: p.role + "/" + ev.Name, start: ev.Ts, end: ev.Ts + ev.Dur})
	}
	total = map[roundKey]map[string]float64{}
	self = map[roundKey]map[string]float64{}
	const slackUS = 1 // trace timestamps are rounded to the microsecond
	for k, spans := range byRound {
		traced := false
		for _, s := range spans {
			traced = traced || s.layer == roleDriver+"/"+spanRound
		}
		if !traced {
			continue
		}
		tot, slf := map[string]float64{}, map[string]float64{}
		for _, s := range spans {
			d := s.end - s.start
			tot[s.layer] += d
			kids := children[s.layer]
			for _, c := range spans {
				if c.start >= s.start-slackUS && c.end <= s.end+slackUS && contains(kids, c.layer) {
					d -= c.end - c.start
				}
			}
			slf[s.layer] += d
		}
		total[k], self[k] = tot, slf
	}
	return total, self, nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// layerResult writes the merged trace of a traced run, computes the
// per-layer metrics from it and from the driver's per-round counters,
// and fills res.
func (r *runner) layerResult(res *result, traceDir string) error {
	res.Metrics = map[string]metricValue{}
	var spanTotal, spanSelf map[roundKey]map[string]float64
	if len(r.c.procs) > 0 {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.trace.json", r.spec.Name, r.seed))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := trace.Merge(f, r.c.procs); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		res.TraceFile = path
		if spanTotal, spanSelf, err = selfTimes(path); err != nil {
			return err
		}
	}
	perRound := func(m map[roundKey]map[string]float64, layer string) []float64 {
		var xs []float64
		for _, v := range m {
			xs = append(xs, v[layer])
		}
		return xs
	}
	fromSpans := map[string]string{
		"rapl.read_us":          roleAgent + "/" + trace.SpanRead,
		"daemon.report_us":      roleDriver + "/" + spanReportOnce,
		"daemon.ingest_us":      roleServer + "/" + trace.SpanIngest,
		"core.decide_us":        roleServer + "/" + trace.SpanDecide,
		"kalman.stage_us":       roleServer + "/" + trace.SpanKalman,
		"stateless.stage_us":    roleServer + "/" + trace.SpanStateless,
		"priority.stage_us":     roleServer + "/" + trace.SpanPriority,
		"readjust.stage_us":     roleServer + "/" + trace.SpanReadjust,
		"daemon.push_us":        roleServer + "/" + trace.SpanPush,
		"daemon.cap_apply_us":   roleAgent + "/" + trace.SpanCapApply,
		"daemon.receive_us":     roleDriver + "/" + spanReceiveCaps,
		"daemon.decide_once_us": roleDriver + "/" + spanDecideOnce,
	}
	for name, layer := range fromSpans {
		res.Metrics[name] = metricValue{median(perRound(spanTotal, layer)), "us"}
	}
	res.Metrics["daemon.bookkeeping_us"] = metricValue{median(perRound(spanSelf, roleDriver+"/"+spanDecideOnce)), "us"}
	layers := map[string]bool{}
	for _, m := range spanTotal {
		for l := range m {
			layers[l] = true
		}
	}
	for _, l := range sortedKeys(layers) {
		res.SelfTime = append(res.SelfTime, layerTime{Layer: l, TotalUS: median(perRound(spanTotal, l)), SelfUS: median(perRound(spanSelf, l)), Rounds: len(spanTotal)})
	}

	// Counter-derived layers cover every timed round, traced or not.
	var lag, frames, records, beats, dirty, skipped, allocs, snapUS, snapBytes, bb, sample []float64
	var gc uint64
	var tracedRound, plainRound, plainCaps []float64
	for i, rt := range r.c.rounds {
		lag = append(lag, us(rt.ingested.Sub(rt.reported)))
		frames = append(frames, float64(rt.frames-rt.heartbeats))
		records = append(records, float64(rt.records))
		beats = append(beats, float64(rt.heartbeats))
		dirty = append(dirty, rt.dirty)
		skipped = append(skipped, rt.skipped)
		allocs = append(allocs, float64(rt.decideAllocs))
		snapUS = append(snapUS, us(rt.snapEncode))
		snapBytes = append(snapBytes, rt.snapBytes)
		bb = append(bb, float64(rt.bbBytes))
		sample = append(sample, us(rt.sample))
		gc += rt.gcCycles
		if r.c.traced[i] {
			tracedRound = append(tracedRound, ms(rt.roundLatency()))
		} else {
			plainRound = append(plainRound, ms(rt.roundLatency()))
			plainCaps = append(plainCaps, ms(rt.capsLatency()))
		}
	}
	overhead := 0.0
	if p := median(plainRound); p > 0 && len(tracedRound) > 0 {
		overhead = 100 * (median(tracedRound)/p - 1)
	}
	set := func(name string, v float64, unit string) { res.Metrics[name] = metricValue{v, unit} }
	set("proto.records_per_round", median(records), "count")
	set("proto.frames_per_round", median(frames), "count")
	set("proto.heartbeats_per_round", median(beats), "count")
	set("daemon.ingest_lag_us", median(lag), "us")
	set("core.dirty_units", median(dirty), "count")
	set("core.skipped_units", median(skipped), "count")
	set("daemon.decide_once_allocs", median(allocs), "count")
	set("snapshot.encode_us", median(snapUS), "us")
	set("snapshot.image_bytes", median(snapBytes), "bytes")
	set("blackbox.bytes_per_round", median(bb), "bytes")
	set("daemon.standby_lag_rounds", r.c.standbyLag, "count")
	set("series.sample_us", median(sample), "us")
	set("telemetry.series", r.c.series, "count")
	set("telemetry.scrape_bytes", median(r.c.scrapeBytes), "bytes")
	set("runtime.gc_per_round", float64(gc)/float64(max(1, len(r.c.rounds))), "count")
	set("snapshot.restore_us", median(r.c.restore), "us")
	set("daemon.redial_us", median(r.c.redial), "us")
	set("daemon.first_round_us", median(r.c.firstRound), "us")
	set("trace.overhead_pct", overhead, "%")
	// The caps tail moves with host CPU steal far more than any bound
	// allows, so it is reported here, from the untraced rounds, and not
	// gated as an end-to-end metric.
	ct := tailOf(plainCaps)
	set("caps_tail_ms", ct.Value, "ms")
	res.Tails = map[string]tail{"caps_tail_ms": ct}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
