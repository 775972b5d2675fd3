package cache

import "testing"

// FuzzCacheOps drives a small cache with an arbitrary operation stream and
// checks structural invariants that must hold for any input: statistics
// account for every access, lookups after a fill hit, flushes evict,
// occupancy stays within [0, 1], and a Save/Restore bracket leaves the
// cache exactly as it found it.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0xC3, 0x04})
	f.Add([]byte("flush and reload and flush again"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := New(Config{Name: "fuzz", Size: 4096, LineSize: 64, Ways: 2, LatencyCycles: 1})
		for i, op := range ops {
			addr := uint64(op) * 64 % 8192 // within two cache-fulls of lines
			switch i % 4 {
			case 0:
				c.Access(addr)
				if !c.Contains(addr) {
					t.Fatalf("line absent immediately after access (addr %#x)", addr)
				}
			case 1:
				c.Flush(addr)
				if c.Contains(addr) {
					t.Fatalf("line present immediately after flush (addr %#x)", addr)
				}
			case 2:
				c.EvictFraction(float64(op) / 512) // up to 50%
			case 3:
				want := c.Clone()
				var s State
				c.Save(&s)
				c.AccessRange(addr+uint64(op)%64, uint64(op)%150)
				c.Access(addr ^ 4096)
				c.Flush(addr)
				c.Access(addr)
				c.Restore(&s)
				if !c.Equal(want) {
					t.Fatalf("bracket did not restore the cache (addr %#x, op %#x)", addr, op)
				}
			}
			if occ := c.Occupancy(); occ < 0 || occ > 1 {
				t.Fatalf("occupancy %f out of range", occ)
			}
		}
		s := c.Stats()
		if s.Hits+s.Misses != s.Accesses {
			t.Fatalf("stats do not add up: %+v", s)
		}
	})
}

// FuzzHierarchyInclusive checks that any access pattern leaves the
// hierarchy responding consistently: a repeated access directly after a
// miss must hit L1, and flushes remove the line from every level.
func FuzzHierarchyInclusive(f *testing.F) {
	f.Add([]byte{1, 2, 3, 250, 251})
	f.Fuzz(func(t *testing.T, addrs []byte) {
		h := NewHierarchy(HierarchyConfig{
			L1D:              Config{Name: "L1D", Size: 1 << 12, LineSize: 64, Ways: 2, LatencyCycles: 4},
			L2:               Config{Name: "L2", Size: 1 << 14, LineSize: 64, Ways: 4, LatencyCycles: 10},
			LLC:              Config{Name: "LLC", Size: 1 << 16, LineSize: 64, Ways: 8, LatencyCycles: 30},
			MemLatencyCycles: 100,
		})
		for _, b := range addrs {
			addr := uint64(b) * 64
			h.Access(addr)
			r := h.Access(addr)
			if !r.L1Hit {
				t.Fatalf("back-to-back access missed L1 (addr %#x)", addr)
			}
			h.Flush(addr)
			if h.L1D().Contains(addr) || h.L2().Contains(addr) || h.LLC().Contains(addr) {
				t.Fatalf("flush left residue (addr %#x)", addr)
			}
		}
	})
}
