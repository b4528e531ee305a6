package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/rapl"
)

// Every output check must fire on a deliberately wrong input.

func TestCheckBudgetFiresOverBudget(t *testing.T) {
	caps := power.Vector{60, 50}
	if err := checkBudget(caps, 110); err != nil {
		t.Fatalf("caps at the budget rejected: %v", err)
	}
	if err := checkBudget(power.Vector{60, 50.1}, 110); err == nil {
		t.Fatal("over-budget caps accepted")
	}
}

func TestCheckDeviceCapsFiresOnPerturbedCap(t *testing.T) {
	caps := power.Vector{87.34, 120.06, 5} // 5 W clamps up to the 10 W floor
	devs := make([]*rapl.SimDevice, len(caps))
	for u := range devs {
		d, err := rapl.NewSimDevice(rapl.DefaultSimConfig())
		if err != nil {
			t.Fatal(err)
		}
		d.SetCap(proto.FromDeciwatts(proto.ToDeciwatts(caps[u])))
		devs[u] = d
	}
	if err := checkDeviceCaps(devs, caps); err != nil {
		t.Fatalf("applied caps rejected: %v", err)
	}
	devs[1].SetCap(120.2)
	if err := checkDeviceCaps(devs, caps); err == nil {
		t.Fatal("perturbed cap accepted")
	}
}

func TestCheckScrapeFires(t *testing.T) {
	body := []byte("# TYPE dps_rounds_total counter\ndps_rounds_total 7\ndps_agents 2\n")
	if err := checkScrape(200, body, 7); err != nil {
		t.Fatalf("good scrape rejected: %v", err)
	}
	for name, c := range map[string]struct {
		code   int
		body   []byte
		rounds uint64
	}{
		"failed":       {500, body, 7},
		"short":        {200, body[:len("# TYPE dps_rounds_total counter\ndps_rounds_total 7")], 7},
		"missing":      {200, []byte("dps_agents 2\n"), 7},
		"wrong rounds": {200, body, 8},
	} {
		if err := checkScrape(c.code, c.body, c.rounds); err == nil {
			t.Errorf("%s scrape accepted", name)
		}
	}
}

func TestCheckTakeoverFiresOnLostRounds(t *testing.T) {
	if err := checkTakeover(31, 30); err != nil {
		t.Fatalf("continuing round rejected: %v", err)
	}
	if err := checkTakeover(1, 30); err == nil {
		t.Fatal("takeover restarting the round count accepted")
	}
}

// The dense shadow reproduces a dense controller's caps, and a perturbed
// cap or a wrong digest fails the check.
func TestLedgerDigestFiresOnWrongCaps(t *testing.T) {
	p := defaultParams()
	p.Agents, p.UnitsPerAgent = 1, 6
	n, err := newNode(t.TempDir(), workloadSpec{Name: "t"}, p, "")
	if err != nil {
		t.Fatal(err)
	}
	led := func() *ledger {
		l, err := newLedger(n.cfgPath, p.units())
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	good, bad := led(), led()
	ref, err := led().dense.BuildManager()
	if err != nil {
		t.Fatal(err)
	}
	readings := power.Vector{30, 150, 90.5, 20, 164.9, 75}
	for round := 0; round < 25; round++ {
		readings[round%len(readings)] += 7
		snap := make(power.Vector, len(readings))
		for u, r := range readings {
			snap[u] = proto.FromDeciwatts(proto.ToDeciwatts(r))
		}
		caps := ref.Decide(core.Snapshot{Power: snap, Interval: virtualDT}).Clone()
		good.record(snap, caps)
		if round == 12 {
			caps[3] += 0.1
		}
		bad.record(snap, caps)
	}
	if err := good.verify(); err != nil {
		t.Fatalf("matching lineage rejected: %v", err)
	}
	if err := bad.verify(); err == nil {
		t.Fatal("perturbed cap accepted by the digest check")
	}
	if err := checkDigest(1, 2, 1); err == nil {
		t.Fatal("wrong digest accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Fatalf("quartiles of 3 = %v %v %v", q1, q2, q3)
	}
}

func TestTailLeavesTenBeyond(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	tl := tailOf(xs)
	if tl.Value != 90 || tl.Beyond != 10 || tl.Samples != 100 || tl.Percentile != 90 {
		t.Fatalf("tail = %+v, want value 90 at p90 with 10 beyond", tl)
	}
}

func benchmarkFile(t *testing.T) benchFile {
	t.Helper()
	bf, err := readBenchFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// A two-agent fleet runs every workload end to end, untraced and traced,
// with every check passing and every declared metric reported.
func TestSmokeEveryWorkload(t *testing.T) {
	bf := benchmarkFile(t)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	p := defaultParams()
	p.Agents, p.UnitsPerAgent = 2, 8
	p.ScrapeProbes = 2
	for _, spec := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(spec, p, 3, 0.2, traced, filepath.Join(dir, "traces"))
			if err != nil {
				t.Fatalf("%s trace %v: %v", spec.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace %v: correct %v, %d of %d failed: %v", spec.Name, traced, res.Correct, res.Failed, res.Attempted, res.Errors)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
				if _, err := os.Stat(res.TraceFile); err != nil {
					t.Errorf("%s: merged trace: %v", spec.Name, err)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics, BENCHMARK.json declares %d", spec.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %v: %s missing", spec.Name, traced, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s unit %q, declared %q", spec.Name, m.Name, v.Unit, m.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end %s is %v", spec.Name, m.Name, v.Value)
				}
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	bf := benchFile{EndToEnd: []benchMetric{
		{Name: "faster", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "slower", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "noisy", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "same", Unit: "ms", Better: "lower", Bound: 0.1},
	}}
	mk := func(commit string, seed int64, faster, slower, noisy, same float64) result {
		r := result{Meta: newMeta(workloads[0], defaultParams(), 12, false, seed)}
		r.Meta.Commit = commit
		r.Metrics = map[string]metricValue{
			"faster": {faster, "ms"}, "slower": {slower, "ms"}, "noisy": {noisy, "ms"}, "same": {same, "ms"},
		}
		return r
	}
	var parent, change []result
	for s := int64(0); s < 10; s++ {
		d := float64(s%3) * 0.1
		parent = append(parent, mk("a", s, 10+d, 10+d, 10+5*float64(s%2), 10+d))
		change = append(change, mk("b", s, 8+d, 12+d, 9+5*float64(s%2), 10.05+d))
	}
	var out bytes.Buffer
	if err := compare(&out, bf, parent, change); err != nil {
		t.Fatal(err)
	}
	for name, verdict := range map[string]string{"faster": "improved", "slower": "regressed", "noisy": "unresolved", "same": "unchanged"} {
		line := lineFor(out.String(), name)
		if !strings.Contains(line, verdict) {
			t.Errorf("%s: want %q in %q", name, verdict, line)
		}
	}
	other := mk("b", 0, 8, 12, 9, 10)
	other.Meta.Host.GOMAXPROCS++
	if err := compare(&out, bf, parent, append(change, other)); err == nil {
		t.Fatal("result sets from different hosts compared")
	}
}

func lineFor(table, metric string) string {
	for _, l := range strings.Split(table, "\n") {
		if strings.HasPrefix(l, metric+" ") {
			return l
		}
	}
	return ""
}

func TestResultRecordRoundTrips(t *testing.T) {
	r := result{Meta: newMeta(workloads[1], defaultParams(), 12, false, 5), Metrics: map[string]metricValue{"x": {1.5, "ms"}}}
	path := filepath.Join(t.TempDir(), "r.jsonl")
	if err := appendRecord(path, &r); err != nil {
		t.Fatal(err)
	}
	got, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(got[0])
	b, _ := json.Marshal(r)
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip changed the record:\n%s\n%s", a, b)
	}
}
