package blackbox

import "sync"

// DefaultRingRounds is the in-memory ring's capacity when the configured
// size is zero: about four minutes of history at a one-second decision
// loop.
const DefaultRingRounds = 256

// Ring is the in-memory flight recorder: the newest decision rounds, held
// in the same compact form the on-disk ring stores. Each slot keeps its
// Units buffer across evictions, so once every slot has been written an
// Append allocates nothing. It is safe for concurrent use: the decision
// loop appends while HTTP handlers copy rounds out.
type Ring struct {
	mu    sync.Mutex
	slots []Round
	next  int // slot the next Append writes
	held  int
}

// NewRing returns a ring holding the last `rounds` rounds
// (DefaultRingRounds when rounds <= 0).
func NewRing(rounds int) *Ring {
	if rounds <= 0 {
		rounds = DefaultRingRounds
	}
	return &Ring{slots: make([]Round, rounds)}
}

// Append copies r into the ring as the newest round, evicting the oldest
// when full. r stays the caller's to refill.
func (g *Ring) Append(r *Round) {
	g.mu.Lock()
	defer g.mu.Unlock()
	slot := &g.slots[g.next]
	units := slot.Units
	if cap(units) < len(r.Units) {
		units = make([]UnitRound, len(r.Units))
	}
	*slot = *r
	slot.Units = units[:copy(units[:len(r.Units)], r.Units)]
	g.next = (g.next + 1) % len(g.slots)
	g.held = min(g.held+1, len(g.slots))
}

// Last returns copies of up to n held rounds, newest first (every held
// round when n <= 0). A non-negative unit narrows each copy's Units to
// that one unit (empty when out of range), so a one-unit query never
// copies the rest of the fleet.
func (g *Ring) Last(n, unit int) []Round {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n <= 0 || n > g.held {
		n = g.held
	}
	out := make([]Round, n)
	for i := range out {
		// next-1 is the newest; walk backwards through the ring.
		src := &g.slots[(g.next-1-i+len(g.slots))%len(g.slots)]
		out[i] = *src
		units := src.Units
		switch {
		case unit >= len(units):
			units = nil
		case unit >= 0:
			units = units[unit : unit+1]
		}
		out[i].Units = append([]UnitRound(nil), units...)
	}
	return out
}
