package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// meta describes the run a result came from. Commit and Dirty name the
// program version and Run holds what varies from run to run; the
// comparator refuses to compare results that differ in anything else.
type meta struct {
	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty"`
	Host   host   `json:"host"`
	Config config `json:"config"`
	Run    runID  `json:"run"`
}

type host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

type config struct {
	Workload workloadSpec `json:"workload"`
	Params   params       `json:"params"`
	Seconds  float64      `json:"seconds"`
	Trace    bool         `json:"trace"`
}

type runID struct {
	Seed        int64 `json:"seed"`
	TimedRounds int   `json:"timed_rounds"`
	Cycles      int   `json:"cycles"`
}

func newMeta(spec workloadSpec, p params, seconds float64, traced bool, seed int64) meta {
	m := meta{
		Commit: "unknown",
		Host: host{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			CPUModel:   cpuModel(),
		},
		Config: config{Workload: spec, Params: p, Seconds: seconds, Trace: traced},
		Run:    runID{Seed: seed},
	}
	// The go command stamps the revision when it builds inside a git
	// checkout; a source tree without git history records "unknown".
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				m.Dirty = s.Value == "true"
			}
		}
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
