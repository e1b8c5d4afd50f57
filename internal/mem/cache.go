package mem

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	// Sets is the number of cache sets (power of two).
	Sets int
	// Ways is the associativity.
	Ways int
	// LineBytes is the line size in bytes (power of two).
	LineBytes int
	// HitLatency is the extra cycles a hit at this level costs beyond the
	// pipelined access already accounted for by the LSU.
	HitLatency int
}

// Validate reports configuration errors.
func (c CacheConfig) Validate() error {
	switch {
	case c.Sets <= 0 || c.Sets&(c.Sets-1) != 0:
		return fmt.Errorf("mem: sets must be a positive power of two, got %d", c.Sets)
	case c.Ways <= 0:
		return fmt.Errorf("mem: ways must be positive, got %d", c.Ways)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("mem: line size must be a positive power of two, got %d", c.LineBytes)
	case c.HitLatency < 0:
		return fmt.Errorf("mem: hit latency must be non-negative, got %d", c.HitLatency)
	}
	return nil
}

// Cache is a set-associative LRU cache used purely as a timing model:
// data always lives in Memory; the cache tracks which lines would be
// resident to decide hit or miss latency.
type Cache struct {
	cfg  CacheConfig
	tags [][]uint32 // [set][way] tag values
	val  [][]bool   // [set][way] valid bits
	lru  [][]uint64 // [set][way] last-use stamps
	tick uint64

	hits, misses uint64
}

// NewCache builds a cache from cfg; it panics on invalid configuration
// (a programming error, configurations are static).
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{cfg: cfg}
	c.tags = make([][]uint32, cfg.Sets)
	c.val = make([][]bool, cfg.Sets)
	c.lru = make([][]uint64, cfg.Sets)
	for i := range c.tags {
		c.tags[i] = make([]uint32, cfg.Ways)
		c.val[i] = make([]bool, cfg.Ways)
		c.lru[i] = make([]uint64, cfg.Ways)
	}
	return c
}

func (c *Cache) index(addr uint32) (set int, tag uint32) {
	line := addr / uint32(c.cfg.LineBytes)
	return int(line) & (c.cfg.Sets - 1), line / uint32(c.cfg.Sets)
}

// Access touches addr, returns whether it hit, and updates LRU state,
// allocating the line on miss.
func (c *Cache) Access(addr uint32) bool {
	c.tick++
	set, tag := c.index(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		if c.val[set][w] && c.tags[set][w] == tag {
			c.lru[set][w] = c.tick
			c.hits++
			return true
		}
	}
	c.misses++
	victim := 0
	for w := 1; w < c.cfg.Ways; w++ {
		if !c.val[set][w] {
			victim = w
			break
		}
		if c.lru[set][w] < c.lru[set][victim] {
			victim = w
		}
	}
	if !c.val[set][victim] {
		for w := 0; w < c.cfg.Ways; w++ {
			if !c.val[set][w] {
				victim = w
				break
			}
		}
	}
	c.val[set][victim] = true
	c.tags[set][victim] = tag
	c.lru[set][victim] = c.tick
	return false
}

// Contains reports whether addr's line is resident without touching LRU.
func (c *Cache) Contains(addr uint32) bool {
	set, tag := c.index(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		if c.val[set][w] && c.tags[set][w] == tag {
			return true
		}
	}
	return false
}

// Stats returns accumulated hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Reset invalidates every line and clears statistics.
func (c *Cache) Reset() {
	for s := range c.val {
		for w := range c.val[s] {
			c.val[s][w] = false
			c.lru[s][w] = 0
		}
	}
	c.tick, c.hits, c.misses = 0, 0, 0
}

// Hierarchy is the two-level cache system of the Allwinner A20 target
// (per-core L1, shared L2) reduced to a single-core timing model.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	// MissLatency is the cost of going to DRAM, in cycles.
	MissLatency int
	// Warm disables miss accounting entirely, modelling the paper's
	// warmed-up steady state where every access hits.
	Warm bool
}

// DefaultHierarchy mirrors the Cortex-A7 configuration: 32 KiB 4-way L1
// caches with 32-byte lines (A7 L1D is 4-way 32 KiB), 512 KiB 8-way L2
// with 64-byte lines.
func DefaultHierarchy() *Hierarchy {
	return &Hierarchy{
		L1I:         NewCache(CacheConfig{Sets: 256, Ways: 4, LineBytes: 32, HitLatency: 0}),
		L1D:         NewCache(CacheConfig{Sets: 256, Ways: 4, LineBytes: 32, HitLatency: 0}),
		L2:          NewCache(CacheConfig{Sets: 1024, Ways: 8, LineBytes: 64, HitLatency: 10}),
		MissLatency: 60,
	}
}

// DataPenalty returns the extra stall cycles for a data access at addr.
// Warm hierarchies always return 0.
func (h *Hierarchy) DataPenalty(addr uint32) int {
	if h.Warm {
		return 0
	}
	if h.L1D.Access(addr) {
		return h.L1D.cfg.HitLatency
	}
	if h.L2.Access(addr) {
		return h.L2.cfg.HitLatency
	}
	return h.MissLatency
}

// FetchPenalty returns the extra stall cycles for an instruction fetch.
// The simulated program store is addressed by instruction index; the
// fetch path converts indices to pseudo-addresses of 4 bytes each.
func (h *Hierarchy) FetchPenalty(instrIndex int) int {
	if h.Warm {
		return 0
	}
	addr := uint32(instrIndex * 4)
	if h.L1I.Access(addr) {
		return h.L1I.cfg.HitLatency
	}
	if h.L2.Access(addr) {
		return h.L2.cfg.HitLatency
	}
	return h.MissLatency
}
