package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// runtimeReading is the process-wide counters sampled at the edges of a
// timed round.
type runtimeReading struct {
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() runtimeReading {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(runtimeSamples)
	return runtimeReading{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: runtimeSamples[0].Value.Uint64(),
		gcCycles:   runtimeSamples[1].Value.Uint64(),
	}
}

var mallocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// readMallocs returns the process's cumulative heap allocation count.
func readMallocs() uint64 {
	metrics.Read(mallocSample)
	return mallocSample[0].Value.Uint64()
}

// liveHeapBytes forces a collection and returns the heap still in use.
func liveHeapBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// median returns the middle value (mean of the middle two for an even
// count), 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie above a reported tail.
const tailBeyond = 10

// tail is the highest percentile that has at least tailBeyond samples
// beyond it: the (tailBeyond+1)-th largest sample. With fewer samples
// than that it falls back to the maximum and reports how many lie beyond
// (none).
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

func tailOf(xs []float64) tail {
	if len(xs) == 0 {
		return tail{}
	}
	s := sorted(xs)
	beyond := min(tailBeyond, len(s)-1)
	i := len(s) - 1 - beyond
	return tail{
		Value:      s[i],
		Percentile: 100 * float64(i+1) / float64(len(s)),
		Samples:    len(s),
		Beyond:     beyond,
	}
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), which
// the acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
