package blackbox

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestRingEvictionAndLast checks the in-memory ring's newest-first
// window, eviction, the unit filter, and that Last returns copies.
func TestRingEvictionAndLast(t *testing.T) {
	g := NewRing(3)
	if got := g.Last(0, -1); len(got) != 0 {
		t.Fatalf("empty ring returned %d rounds", len(got))
	}
	for n := uint64(1); n <= 5; n++ {
		g.Append(testRound(n, 4))
	}
	all := g.Last(0, -1)
	if len(all) != 3 {
		t.Fatalf("ring holds %d rounds, want 3", len(all))
	}
	for i, want := range []uint64{5, 4, 3} {
		if all[i].Round != want {
			t.Fatalf("record %d is round %d, want %d", i, all[i].Round, want)
		}
	}
	if !reflect.DeepEqual(all[0], *testRound(5, 4)) {
		t.Fatalf("newest round = %+v, want %+v", all[0], *testRound(5, 4))
	}
	all[0].Units[0].CapDW = 1 // a copy: the ring must not see this
	if g.Last(1, -1)[0].Units[0].CapDW == 1 {
		t.Fatal("Last aliases the ring's unit buffers")
	}

	one := g.Last(2, 3)
	if len(one) != 2 || len(one[0].Units) != 1 || one[0].Units[0] != testRound(5, 4).Units[3] {
		t.Fatalf("unit filter = %+v", one)
	}
	if out := g.Last(1, 9); len(out) != 1 || len(out[0].Units) != 0 {
		t.Fatalf("out-of-range unit filter = %+v", out)
	}
}

// TestRingSteadyStateZeroAlloc pins the warm append: once every slot has
// a unit buffer, recording a round allocates nothing, and the in-memory
// per-unit record stays within 8 bytes.
func TestRingSteadyStateZeroAlloc(t *testing.T) {
	if size := unsafe.Sizeof(UnitRound{}); size > 8 {
		t.Fatalf("UnitRound is %d bytes in memory, want <= 8", size)
	}
	g := NewRing(4)
	r := testRound(1, 256)
	for i := 0; i < 4; i++ {
		g.Append(r)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r.Round++
		g.Append(r)
	}); allocs != 0 {
		t.Errorf("warm Ring.Append allocated %.1f times per round, want 0", allocs)
	}
}
