package cpu

import (
	"reflect"

	"kleb/internal/cache"
	"kleb/internal/isa"
)

// MemoConfidence is how many times a state class is measured before its
// memo entry replays.
const MemoConfidence = memoConfidence

// MemState is a deep copy of a core's memory-side state: its three cache
// levels and its TLB.
type MemState struct {
	L1D, L2, LLC *cache.Cache
	TLB          tlbState
}

// MemState deep-copies c's caches and TLB.
func (c *Core) MemState() MemState {
	s := MemState{
		L1D: c.caches.L1D().Clone(),
		L2:  c.caches.L2().Clone(),
		LLC: c.caches.LLC().Clone(),
	}
	c.tlb.save(&s.TLB)
	return s
}

// MemDiff names the first of c's memory-side structures that differs from
// the copy s, or returns "" when all four are unchanged.
func (c *Core) MemDiff(s MemState) string {
	var tlb tlbState
	c.tlb.save(&tlb)
	switch {
	case !c.caches.L1D().Equal(s.L1D):
		return "L1D"
	case !c.caches.L2().Equal(s.L2):
		return "L2"
	case !c.caches.LLC().Equal(s.LLC):
		return "LLC"
	case !reflect.DeepEqual(tlb, s.TLB):
		return "TLB"
	}
	return ""
}

// Memoizable reports whether Execute(b) would take the memo path, a replay
// or a bracketed probe, rather than the raw model.
func (c *Core) Memoizable(b isa.Block) bool { return c.memoizable(b, c.warmth(b)) }

// Probe runs b's bracketed canonical measurement without consulting or
// updating the memo.
func (c *Core) Probe(b isa.Block) Costed {
	cost, _ := c.probe(b)
	return cost
}
