// Package cache implements the set-associative cache hierarchy that
// generates the memory-side hardware events (L1D misses, LLC references,
// LLC misses) for the simulated CPU.
//
// The model is deliberately simple — physically indexed, true-LRU,
// write-allocate, no prefetcher — because the reproduction targets the
// *relative* behaviour the paper relies on: small footprints hit in cache
// (compute-intensive, MPKI < 1), large or random footprints miss in the LLC
// (memory-intensive, MPKI > 10), and Flush+Reload storms produce abnormal
// LLC reference/miss ratios.
package cache

import (
	"errors"
	"fmt"
	"slices"
)

// Config describes one cache level.
type Config struct {
	// Name identifies the level in stats output ("L1D", "L2", "LLC").
	Name string
	// Size is the capacity in bytes.
	Size uint64
	// LineSize is the cache line size in bytes (power of two).
	LineSize uint64
	// Ways is the associativity.
	Ways int
	// LatencyCycles is the hit latency charged by the CPU's CPI model.
	LatencyCycles uint64
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() uint64 {
	if c.LineSize == 0 || c.Ways == 0 {
		return 0
	}
	return c.Size / (c.LineSize * uint64(c.Ways))
}

// Validate checks the geometry for internal consistency.
func (c Config) Validate() error {
	if c.Size == 0 || c.LineSize == 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %s: size, line size and ways must be positive", c.Name)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: line size %d is not a power of two", c.Name, c.LineSize)
	}
	if c.Size%(c.LineSize*uint64(c.Ways)) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by line*ways", c.Name, c.Size)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d is not a power of two", c.Name, sets)
	}
	return nil
}

// Stats accumulates per-level access statistics.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	Flushes  uint64
}

// MissRatio returns misses/accesses, or 0 for an untouched cache.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a single set-associative level with true LRU replacement.
// A line is identified by its tag; age counters implement LRU exactly
// (small associativities make the O(ways) scan cheap).
type Cache struct {
	cfg      Config
	sets     uint64
	lineBits uint
	setMask  uint64
	tags     []uint64 // sets*ways entries; 0 means invalid
	ages     []uint64 // LRU stamp per way
	stamp    uint64
	stats    Stats
	gen      uint64 // mutation generation, see Gen

	// open is the journal of the bracket Save opened, nil outside one.
	// lim is the stamp at Save plus one inside a bracket and 0 outside:
	// every age is at most the stamp, so a slot whose age is below lim has
	// not been written since Save and must be journaled before its first
	// write (see State).
	open *State
	lim  uint64
}

// New builds a cache from cfg. It panics on invalid geometry: profiles are
// static data fixed at compile time, so a bad one is a programming error.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:     cfg,
		sets:    sets,
		setMask: sets - 1,
		tags:    make([]uint64, sets*uint64(cfg.Ways)),
		ages:    make([]uint64, sets*uint64(cfg.Ways)),
	}
	for lb := cfg.LineSize; lb > 1; lb >>= 1 {
		c.lineBits++
	}
	return c
}

// Clone returns an independent deep copy of the cache's geometry, contents,
// stamp, statistics and generation. It must not be called with a bracket
// open.
func (c *Cache) Clone() *Cache {
	if c.open != nil {
		panic(errBracketOpen)
	}
	d := *c
	d.tags = append([]uint64(nil), c.tags...)
	d.ages = append([]uint64(nil), c.ages...)
	return &d
}

// Equal reports whether c and d hold the same state: geometry, contents,
// ages, stamp, statistics, generation and open bracket.
func (c *Cache) Equal(d *Cache) bool {
	return c.cfg == d.cfg && c.stamp == d.stamp && c.stats == d.stats && c.gen == d.gen &&
		c.open == d.open && c.lim == d.lim &&
		slices.Equal(c.tags, d.tags) && slices.Equal(c.ages, d.ages)
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the statistics without disturbing cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	line := addr >> c.lineBits
	return line & c.setMask, line | 1<<63 // high bit marks valid
}

// Gen returns the cache's mutation generation: a counter bumped by every
// state-changing operation (Access, an evicting Flush, EvictFraction). Two
// equal Gen readings bracket a window in which the cache contents were
// untouched; the CPU's memo layer uses this on the shared LLC to detect
// interleaved accesses from sibling cores and fall back to measurement.
func (c *Cache) Gen() uint64 { return c.gen }

// Bracket misuse panics with these predeclared values, so the guards
// themselves never allocate on the hot path.
var (
	errBracketOpen    = errors.New("cache: Save or Clone with a Save/Restore bracket already open")
	errBracketNotOpen = errors.New("cache: Restore of a State that is not the open bracket")
	errEvictInBracket = errors.New("cache: EvictFraction inside an open Save/Restore bracket")
)

// State is the undo journal of one Save/Restore bracket. Save records the
// scalar state (stamp, statistics, generation) and opens the bracket; from
// then on Access and Flush journal a slot's old tag and age on its first
// write inside the bracket, and Restore rewinds the journal, so a bracket
// costs O(lines written) rather than O(cache size). A cache has at most one
// open bracket, and EvictFraction inside one panics: it would have to
// journal the whole array. A State's journal is recycled across brackets;
// Reserve sizes it ahead of time so a bracket never grows it. The CPU's
// memo layer brackets its canonical block measurements this way to keep
// them side-effect-free (see internal/cpu/memo.go).
type State struct {
	log   []undo
	stamp uint64
	stats Stats
	gen   uint64
}

// undo is one journal record: a slot's contents before its first write
// inside the bracket.
type undo struct {
	slot, tag, age uint64
}

// Reserve sizes s's journal for a bracket on c that performs at most n
// line writes (Access calls, counting each line of an AccessRange). The
// bound is capped at c's slot count, since a slot is journaled once per
// bracket; only a line flushed and then refilled inside the bracket is
// journaled again, and may grow the journal past the reservation.
func (c *Cache) Reserve(s *State, n uint64) {
	if slots := uint64(len(c.tags)); n > slots {
		n = slots
	}
	if uint64(cap(s.log)) < n {
		s.log = make([]undo, 0, n) //klebvet:allow hotalloc -- grows only when a bracket's bound exceeds every earlier one on this State; the CPU's long-lived journals stop growing once they have seen their largest block
	}
}

// Save opens a bracket on c, capturing its scalar state into s. It panics
// if a bracket is already open.
func (c *Cache) Save(s *State) {
	if c.open != nil {
		panic(errBracketOpen)
	}
	s.log = s.log[:0]
	s.stamp = c.stamp
	s.stats = c.stats
	s.gen = c.gen
	c.open = s
	c.lim = c.stamp + 1
}

// Restore rewinds c to the state captured by the Save that opened s, and
// closes the bracket. It panics if s is not c's open bracket.
func (c *Cache) Restore(s *State) {
	if c.open != s {
		panic(errBracketNotOpen)
	}
	// Newest first: a slot journaled twice (flushed, then refilled) ends
	// at its oldest record, the contents it had at Save.
	for i := len(s.log) - 1; i >= 0; i-- {
		u := s.log[i]
		c.tags[u.slot] = u.tag
		c.ages[u.slot] = u.age
	}
	s.log = s.log[:0]
	c.stamp = s.stamp
	c.stats = s.stats
	c.gen = s.gen
	c.open = nil
	c.lim = 0
}

// record journals slot i's contents before a write if the open bracket
// has not yet seen the slot; outside a bracket lim is 0 and it does
// nothing.
func (c *Cache) record(i uint64) {
	if c.ages[i] < c.lim {
		c.journal(i)
	}
}

// journal appends slot i's contents to the open bracket's journal. It is
// kept out of line so the append's slow path does not make every lookup
// that inlines record spill registers.
//
//go:noinline
func (c *Cache) journal(i uint64) {
	c.open.log = append(c.open.log, undo{slot: i, tag: c.tags[i], age: c.ages[i]})
}

// Access looks up addr, filling the line on a miss. It returns true on hit.
func (c *Cache) Access(addr uint64) bool {
	set, tag := c.index(addr)
	c.stamp++
	c.gen++
	c.stats.Accesses++
	if c.fill(set*uint64(c.cfg.Ways), tag, c.stamp) {
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// AccessRange performs n accesses to the consecutive lines starting at
// base's line and returns how many hit. The result — contents, ages,
// stamp, statistics, generation and journal — is exactly that of n
// in-order Access calls, but the lines are walked set by set: sets are
// independent and each access keeps the stamp its position in the address
// order gives it, so only the order between sets changes. A footprint that
// wraps the cache several times then scans each set's ways once, while they
// are hot in the host's own cache, instead of streaming the whole tag and
// age arrays once per wrap.
func (c *Cache) AccessRange(base, n uint64) uint64 {
	line0 := base >> c.lineBits
	ways := uint64(c.cfg.Ways)
	stamp0 := c.stamp
	first := n
	if first > c.sets {
		first = c.sets
	}
	var hits uint64
	for j := uint64(0); j < first; j++ {
		slot := ((line0 + j) & c.setMask) * ways
		for k := j; k < n; k += c.sets {
			if c.fill(slot, (line0+k)|1<<63, stamp0+k+1) {
				hits++
			}
		}
	}
	c.stamp += n
	c.gen += n
	c.stats.Accesses += n
	c.stats.Hits += hits
	c.stats.Misses += n - hits
	return hits
}

// fill looks tag up in the set whose first slot is base and stamps it with
// age: a hit refreshes the line, a miss replaces the set's LRU way. It
// reports whether the lookup hit.
func (c *Cache) fill(base, tag, age uint64) bool {
	end := base + uint64(c.cfg.Ways)
	victim := base
	oldest := ^uint64(0)
	for i := base; i < end; i++ {
		if c.tags[i] == tag {
			c.record(i)
			c.ages[i] = age
			return true
		}
		if c.ages[i] < oldest {
			oldest = c.ages[i]
			victim = i
		}
	}
	c.record(victim)
	c.tags[victim] = tag
	c.ages[victim] = age
	return false
}

// Contains reports whether addr's line is resident, without touching LRU
// state or statistics. Used by tests and by the attack model's probe phase.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * uint64(c.cfg.Ways)
	for i := base; i < base+uint64(c.cfg.Ways); i++ {
		if c.tags[i] == tag {
			return true
		}
	}
	return false
}

// Flush evicts addr's line if present (CLFLUSH semantics) and returns
// whether a line was actually evicted.
func (c *Cache) Flush(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * uint64(c.cfg.Ways)
	c.stats.Flushes++
	for i := base; i < base+uint64(c.cfg.Ways); i++ {
		if c.tags[i] == tag {
			c.record(i)
			c.tags[i] = 0
			c.ages[i] = 0
			c.gen++
			return true
		}
	}
	return false
}

// EvictFraction invalidates approximately frac of all resident lines,
// choosing deterministically by position. The kernel uses it to model the
// cache pollution a context switch or interrupt handler inflicts on the
// running process's working set. It panics inside an open Save/Restore
// bracket.
func (c *Cache) EvictFraction(frac float64) {
	if c.open != nil {
		panic(errEvictInBracket)
	}
	if frac <= 0 {
		return
	}
	c.gen++
	if frac >= 1 {
		for i := range c.tags {
			c.tags[i] = 0
			c.ages[i] = 0
		}
		return
	}
	step := int(1 / frac)
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(c.tags); i += step {
		c.tags[i] = 0
		c.ages[i] = 0
	}
}

// Occupancy returns the fraction of lines currently valid.
func (c *Cache) Occupancy() float64 {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return float64(n) / float64(len(c.tags))
}
