package cache

import (
	"testing"
	"testing/quick"
)

// sameCache fails t unless got matches want bit for bit: geometry, tags,
// ages, stamp, statistics, generation and bracket fields.
func sameCache(t *testing.T, what string, got, want *Cache) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s: cache state differs\n got stamp %d gen %d stats %+v\nwant stamp %d gen %d stats %+v",
			what, got.stamp, got.gen, got.stats, want.stamp, want.gen, want.stats)
	}
}

// runOps applies an operation stream to c, with addresses spanning four
// times a 64-slot cache: half the ops access one of eight hot lines (so
// slots are hit many times), a quarter access any of 256 lines, an eighth
// flush a line and refill it, and the rest run an AccessRange from an
// unaligned base.
func runOps(c *Cache, ops []uint16) {
	for _, op := range ops {
		arg := uint64(op & 0x1fff)
		switch op >> 13 {
		case 0, 1, 2, 3:
			c.Access(arg % 8 * 64)
		case 4, 5:
			c.Access(arg % 256 * 64)
		case 6:
			addr := arg % 256 * 64
			c.Flush(addr)
			c.Access(addr)
		case 7:
			c.AccessRange(arg%512*64+arg%61, arg%200)
		}
	}
}

// TestSaveRestoreRoundTrip: whatever a bracket does — repeated hits,
// misses, flush-then-refill, set-major ranges — Restore returns the cache
// to exactly its state at Save, with a journal grown on demand or reserved,
// and the recycled State works for the next bracket too.
func TestSaveRestoreRoundTrip(t *testing.T) {
	cfg := Config{Name: "rt", Size: 4096, LineSize: 64, Ways: 4}
	prop := func(prefill, ops []uint16, reserve bool) bool {
		c := New(cfg)
		runOps(c, prefill)
		var s State
		for pass := 0; pass < 2; pass++ {
			want := c.Clone()
			if reserve {
				c.Reserve(&s, uint64(len(ops))*200)
			}
			c.Save(&s)
			runOps(c, ops)
			c.Restore(&s)
			if !c.Equal(want) {
				t.Logf("pass %d: stamp %d/%d gen %d/%d stats %+v/%+v", pass,
					c.stamp, want.stamp, c.gen, want.gen, c.stats, want.stats)
				return false
			}
			runOps(c, ops[:len(ops)/2]) // move on between brackets
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAccessRangeMatchesAccess: AccessRange leaves exactly the state n
// in-order Access calls on consecutive lines leave, and counts the same
// hits, for aligned and unaligned bases, ranges shorter than the set
// count, longer than it and longer than the whole cache, on an empty and
// on a pre-filled cache.
func TestAccessRangeMatchesAccess(t *testing.T) {
	cfg := smallConfig() // 32 sets, 64 slots
	slots := cfg.Size / cfg.LineSize
	cases := []struct {
		name    string
		base, n uint64
		prefill bool
	}{
		{"empty range", 0x1000, 0, false},
		{"aligned, n < sets", 0x1000, 7, false},
		{"unaligned base", 0x1234, 19, false},
		{"n > sets", 0x2000, cfg.Sets() + 5, false},
		{"n > slots", 0x40, 3*slots + 7, false},
		{"pre-filled, n > sets", 0x1234, cfg.Sets() + 11, true},
		{"pre-filled, n > slots", 0x7fc0, 2*slots + 1, true},
	}
	for _, tc := range cases {
		want := New(cfg)
		if tc.prefill {
			// A mix of lines inside and outside the range, so it both hits
			// and evicts.
			for i := uint64(0); i < 3*slots; i++ {
				want.Access(tc.base + (i*7919)%(4*slots)*cfg.LineSize)
			}
		}
		got := want.Clone()
		var wantHits uint64
		for k := uint64(0); k < tc.n; k++ {
			if want.Access(tc.base + k*cfg.LineSize) {
				wantHits++
			}
		}
		if hits := got.AccessRange(tc.base, tc.n); hits != wantHits {
			t.Errorf("%s: AccessRange hits %d, in-order Access hits %d", tc.name, hits, wantHits)
		}
		sameCache(t, tc.name, got, want)
	}
}

// TestBracketMisuse: a second Save, a Restore of a State that is not the
// open bracket, Clone and EvictFraction inside a bracket all panic.
func TestBracketMisuse(t *testing.T) {
	mustPanic := func(what string, want error, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != want {
				t.Errorf("%s: recovered %v, want %v", what, r, want)
			}
		}()
		f()
	}
	c := New(smallConfig())
	var s, other State
	mustPanic("restore without save", errBracketNotOpen, func() { c.Restore(&s) })
	c.Save(&s)
	mustPanic("nested save", errBracketOpen, func() { c.Save(&other) })
	mustPanic("restore of another state", errBracketNotOpen, func() { c.Restore(&other) })
	mustPanic("clone in bracket", errBracketOpen, func() { c.Clone() })
	mustPanic("evict in bracket", errEvictInBracket, func() { c.EvictFraction(0.5) })
	c.Restore(&s)
	c.EvictFraction(0.5) // allowed again once the bracket is closed
}

// TestBracketNoAlloc is the zero-allocation gate on a reserved bracket:
// Save, a pre-warm range, scattered accesses and Restore allocate nothing
// once the journal is sized.
func TestBracketNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	c := New(Config{Name: "LLC", Size: 1 << 20, LineSize: 64, Ways: 16})
	const warm, accesses = 4096, 768
	var s State
	c.Reserve(&s, warm+accesses)
	bracket := func() {
		c.Save(&s)
		c.AccessRange(0x10000, warm)
		for i := uint64(0); i < accesses; i++ {
			c.Access(i * 4160)
		}
		c.Restore(&s)
	}
	if avg := testing.AllocsPerRun(20, bracket); avg != 0 {
		t.Errorf("reserved bracket allocates %v allocs/op, want 0", avg)
	}
}
