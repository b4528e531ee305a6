package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchMetric is one metric as BENCHMARK.json declares it. Per-layer
// metrics have no bound.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

// compareMain compares a parent and a change result set (files of result
// records, one JSON object a line, as runs append them with --out), per
// workload row and per metric, by the rules of the choosing-metrics
// guide: a gain needs the change to win at least nine tenths of the
// seed-matched pairs and to move the median by more than the parent's
// quartile spread; a regression is a median worse by more than the
// metric's bound; a metric whose parent spread exceeds its bound is
// unresolved unless every change run beats every parent run.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition with each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-benchmark BENCHMARK.json] PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	bf, err := readBenchFile(*benchPath)
	if err == nil {
		var parent, change []result
		if parent, err = readResults(fs.Arg(0)); err == nil {
			if change, err = readResults(fs.Arg(1)); err == nil {
				err = compare(w, bf, parent, change)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	return 0
}

func readBenchFile(path string) (benchFile, error) {
	var bf benchFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(raw, &bf)
}

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no results", path)
	}
	return out, nil
}

type rowKey struct {
	workload string
	trace    bool
}

func compare(w io.Writer, bf benchFile, parent, change []result) error {
	groups := map[rowKey][2][]result{}
	var meta string
	for side, set := range [][]result{parent, change} {
		for _, r := range set {
			k := rowKey{r.Meta.Config.Workload.Name, r.Meta.Config.Trace}
			g := groups[k]
			g[side] = append(g[side], r)
			groups[k] = g
		}
	}
	keys := make([]rowKey, 0, len(groups))
	for k, g := range groups {
		if len(g[0]) == 0 || len(g[1]) == 0 {
			return fmt.Errorf("workload %s (trace %v) is in only one result set", k.workload, k.trace)
		}
		for _, r := range append(append([]result(nil), g[0]...), g[1]...) {
			if meta == "" {
				meta = sharedMeta(r.Meta)
			}
			if sharedMeta(r.Meta) != meta {
				return errors.New("refusing to compare: the result sets differ in host, toolchain or benchmark settings, not only in the commit")
			}
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace
	})
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	for _, k := range keys {
		g := groups[k]
		fmt.Fprintf(tw, "\n%s (trace %v): parent %d runs, %d failed ops; change %d runs, %d failed ops\n",
			k.workload, k.trace, len(g[0]), failedOps(g[0]), len(g[1]), failedOps(g[1]))
		fmt.Fprintln(tw, "metric\tunit\tparent q1\tmedian\tq3\tchange q1\tmedian\tq3\tdelta\twins\tverdict")
		metrics := bf.EndToEnd
		if k.trace {
			metrics = bf.PerLayer
		}
		for _, m := range metrics {
			p, c := values(g[0], m.Name), values(g[1], m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := judge(m, g[0], g[1])
			pq1, pm, pq3 := quartiles(p)
			cq1, cm, cq3 := quartiles(c)
			delta := "n/a"
			if pm != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(cm-pm)/math.Abs(pm))
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%s\t%d/%d\t%s\n",
				m.Name, m.Unit, pq1, pm, pq3, cq1, cm, cq3, delta, v.wins, v.pairs, v.verdict)
		}
	}
	return tw.Flush()
}

// sharedMeta is the metadata every compared result must share: the host,
// the toolchain and the benchmark settings (the workload and the trace
// flag pick the row).
func sharedMeta(m meta) string {
	h := m.Host
	return fmt.Sprintf("%s|%d|%d|%s|%v|%.3f", h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.CPUModel, m.Config.Params, m.Config.Seconds)
}

func failedOps(rs []result) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

func values(rs []result, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

type verdict struct {
	pairs, wins int
	verdict     string
}

// judge applies the comparison rules to one metric of one workload row.
// Runs pair up by seed.
func judge(m benchMetric, parent, change []result) verdict {
	lower := m.Better != "higher"
	better := func(a, b float64) bool { // a better than b
		if lower {
			return a < b
		}
		return a > b
	}
	var v verdict
	bySeed := map[int64]float64{}
	for _, r := range parent {
		if x, ok := r.Metrics[m.Name]; ok {
			bySeed[r.Meta.Run.Seed] = x.Value
		}
	}
	for _, r := range change {
		x, ok := r.Metrics[m.Name]
		pv, paired := bySeed[r.Meta.Run.Seed]
		if !ok || !paired {
			continue
		}
		v.pairs++
		if better(x.Value, pv) {
			v.wins++
		}
	}
	p, c := values(parent, m.Name), values(change, m.Name)
	pq1, pm, pq3 := quartiles(p)
	_, cm, _ := quartiles(c)
	allBetter := true
	for _, x := range c {
		for _, y := range p {
			allBetter = allBetter && better(x, y)
		}
	}
	// A gain also needs the change to fail no more operations.
	gain := v.pairs > 0 && 10*v.wins >= 9*v.pairs && better(cm, pm) && math.Abs(cm-pm) > pq3-pq1 &&
		failedOps(change) <= failedOps(parent)
	worse := 0.0
	if pm != 0 {
		worse = (cm - pm) / math.Abs(pm)
		if !lower {
			worse = -worse
		}
	}
	switch {
	case m.Bound == 0 && gain:
		v.verdict = "improved"
	case m.Bound == 0:
		v.verdict = "-"
	case pm != 0 && (pq3-pq1)/math.Abs(pm) > m.Bound && !allBetter:
		v.verdict = "unresolved (spread exceeds bound)"
	case worse > m.Bound:
		v.verdict = fmt.Sprintf("regressed (bound %.0f%%)", 100*m.Bound)
	case gain:
		v.verdict = "improved"
	default:
		v.verdict = "unchanged"
	}
	return v
}
