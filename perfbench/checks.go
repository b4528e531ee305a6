package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"strconv"

	"dps/internal/core"
	"dps/internal/daemon"
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/rapl"
)

// tally counts the operations a run attempted and the ones that failed:
// report, receive and push errors, failed output checks, non-200 scrapes
// and failed takeovers.
type tally struct {
	ops, failed int
	errs        []string
}

// op counts one operation and reports whether it failed.
func (t *tally) op(err error) bool {
	t.ops++
	if err == nil {
		return false
	}
	t.failed++
	if len(t.errs) < 20 {
		t.errs = append(t.errs, err.Error())
	}
	return true
}

// budgetToleranceW is the float slack on the budget check, the default of
// the daemon's own budget_conservation audit: summing 16k caps in a
// different order than the controller's final clamp can land a few
// rounding steps above the budget.
const budgetToleranceW = 1e-3

// checkBudget: the caps DecideOnce returned sum to at most the budget.
func checkBudget(caps power.Vector, budget power.Watts) error {
	if sum := caps.Sum(); sum > budget+budgetToleranceW {
		return fmt.Errorf("caps sum exceeds the %.1f W budget by %.3g W", float64(budget), float64(sum-budget))
	}
	return nil
}

// checkDeviceCaps: every socket holds exactly the cap DecideOnce returned
// for it, as quantized to deciwatts on the wire and clamped to the
// socket's range.
func checkDeviceCaps(devs []*rapl.SimDevice, caps power.Vector) error {
	for u, d := range devs {
		want := proto.FromDeciwatts(proto.ToDeciwatts(caps[u]))
		want = max(d.MinPower(), min(want, d.MaxPower()))
		got, err := d.Cap()
		if err != nil {
			return fmt.Errorf("unit %d: reading cap: %w", u, err)
		}
		if got != want {
			return fmt.Errorf("unit %d holds cap %v W, DecideOnce sent %v W", u, got, want)
		}
	}
	return nil
}

// checkScrape: a /metrics scrape answered 200 and reports the number of
// rounds the driver ran on that daemon.
func checkScrape(code int, body []byte, rounds uint64) error {
	if code != http.StatusOK {
		return fmt.Errorf("/metrics answered %d", code)
	}
	const key = "\ndps_rounds_total "
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return errors.New("/metrics carries no dps_rounds_total sample")
	}
	rest := body[i+len(key):]
	end := bytes.IndexByte(rest, '\n')
	if end < 0 {
		return errors.New("/metrics ends inside the dps_rounds_total sample")
	}
	got, err := strconv.ParseUint(string(rest[:end]), 10, 64)
	if err != nil {
		return fmt.Errorf("/metrics dps_rounds_total: %w", err)
	}
	if got != rounds {
		return fmt.Errorf("/metrics dps_rounds_total is %d after %d rounds", got, rounds)
	}
	return nil
}

// checkTakeover: the standby's first round continues the primary's round
// count.
func checkTakeover(standbyRounds, primaryRounds uint64) error {
	if standbyRounds != primaryRounds+1 {
		return fmt.Errorf("standby's first round is %d, want %d (primary ran %d)", standbyRounds, primaryRounds+1, primaryRounds)
	}
	return nil
}

// checkDigest: the daemon's caps and the dense shadow's agree bit for bit
// over a lineage.
func checkDigest(daemonDigest, shadowDigest uint64, rounds int) error {
	if daemonDigest != shadowDigest {
		return fmt.Errorf("caps digest over %d rounds is %016x, the dense shadow's %016x", rounds, daemonDigest, shadowDigest)
	}
	return nil
}

// digestCaps folds one round's caps into a running FNV-1a digest.
func digestCaps(h io.Writer, caps power.Vector) {
	var b [8]byte
	for _, c := range caps {
		bits := math.Float64bits(float64(c))
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
}

// ledger records one controller lineage — a fresh daemon's rounds and,
// after a takeover, its standby's — for the verification pass: the
// readings each round decided on (as the deciwatts they arrived in) and
// a digest of the caps it returned. The pass replays the readings through
// a dense controller built from the same config file with sparse rounds
// off — an independent oracle, since sparse rounds must equal dense ones
// bit for bit — and compares the caps digests.
type ledger struct {
	dense   daemon.FileConfig
	units   int
	pending [][]uint16
	rounds  int
	got     hash.Hash64 // the daemon's caps

	shadow core.Manager
	want   hash.Hash64 // the shadow's caps
	snap   core.Snapshot
}

// newLedger reads the lineage's config file up front: the file goes away
// with the daemon that was built from it.
func newLedger(cfgPath string, units int) (*ledger, error) {
	fc, err := daemon.LoadFileConfig(cfgPath)
	if err != nil {
		return nil, err
	}
	dense := false
	fc.SparseRounds = &dense
	return &ledger{dense: fc, units: units, got: fnv.New64a(), want: fnv.New64a()}, nil
}

func (l *ledger) record(readings, caps power.Vector) {
	dw := make([]uint16, len(readings))
	for u, r := range readings {
		dw[u] = proto.ToDeciwatts(r)
	}
	l.pending = append(l.pending, dw)
	l.rounds++
	digestCaps(l.got, caps)
}

// replay feeds the recorded rounds to the shadow and drops them, so the
// ledger holds no readings while the live heap is measured.
func (l *ledger) replay() error {
	if l.shadow == nil {
		var err error
		if l.shadow, err = l.dense.BuildManager(); err != nil {
			return err
		}
		l.snap = core.Snapshot{Power: make(power.Vector, l.units), Interval: virtualDT}
	}
	for _, dw := range l.pending {
		for u, v := range dw {
			l.snap.Power[u] = proto.FromDeciwatts(v)
		}
		digestCaps(l.want, l.shadow.Decide(l.snap))
	}
	l.pending = nil
	return nil
}

// pendingBytes is the memory the unreplayed readings hold.
func (l *ledger) pendingBytes() uint64 {
	return uint64(len(l.pending)) * uint64(l.units) * 2
}

// verify replays what is left, compares the digests and releases the
// shadow.
func (l *ledger) verify() error {
	err := l.replay()
	if err == nil {
		err = checkDigest(l.got.Sum64(), l.want.Sum64(), l.rounds)
	}
	return errors.Join(err, closeManager(l.shadow))
}
