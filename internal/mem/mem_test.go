package mem

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	if m.Read32(0x1000) != 0 {
		t.Error("unwritten memory must read zero")
	}
	if m.Read8(0xFFFFFFFF) != 0 {
		t.Error("top of address space must read zero")
	}
}

func TestMemoryZeroValueUsable(t *testing.T) {
	var m Memory
	if m.Read32(16) != 0 {
		t.Error("zero-value memory must read zero")
	}
	m.Write32(16, 0xCAFEBABE)
	if m.Read32(16) != 0xCAFEBABE {
		t.Error("zero-value memory must accept writes")
	}
}

func TestMemoryWordRoundTrip(t *testing.T) {
	m := NewMemory()
	m.Write32(0x100, 0xDEADBEEF)
	if got := m.Read32(0x100); got != 0xDEADBEEF {
		t.Errorf("Read32 = %#x", got)
	}
	// Little-endian byte order.
	if got := m.Read8(0x100); got != 0xEF {
		t.Errorf("byte 0 = %#x, want 0xEF", got)
	}
	if got := m.Read8(0x103); got != 0xDE {
		t.Errorf("byte 3 = %#x, want 0xDE", got)
	}
	if got := m.Read16(0x100); got != 0xBEEF {
		t.Errorf("halfword = %#x, want 0xBEEF", got)
	}
	if got := m.Read16(0x102); got != 0xDEAD {
		t.Errorf("halfword hi = %#x, want 0xDEAD", got)
	}
}

func TestMemoryAlignmentMasking(t *testing.T) {
	m := NewMemory()
	m.Write32(0x200, 0x11223344)
	if got := m.Read32(0x203); got != 0x11223344 {
		t.Errorf("unaligned word read = %#x, want aligned-down value", got)
	}
	m.Write16(0x205, 0xAABB)
	if got := m.Read16(0x204); got != 0xAABB {
		t.Errorf("unaligned halfword = %#x", got)
	}
}

func TestMemoryCrossPage(t *testing.T) {
	m := NewMemory()
	addr := uint32(pageSize - 2)
	m.Write32(addr&^3, 0xA1B2C3D4)
	if got := m.Read32(addr &^ 3); got != 0xA1B2C3D4 {
		t.Errorf("cross-page word = %#x", got)
	}
	b := m.ReadBytes(uint32(pageSize-4), 8)
	if len(b) != 8 {
		t.Fatalf("ReadBytes length = %d", len(b))
	}
}

func TestMemoryBytesRoundTrip(t *testing.T) {
	f := func(addr uint32, data []byte) bool {
		if len(data) > 256 {
			data = data[:256]
		}
		m := NewMemory()
		m.WriteBytes(addr, data)
		got := m.ReadBytes(addr, len(data))
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMemoryBytesAcrossPages pins the page-at-a-time WriteBytes and
// ReadBytesInto to Write8 and Read8 byte by byte, on ranges that start
// and end mid-page, span a whole page and wrap past 2^32: the same
// bytes land and read back, and the same pages get mapped. A read of
// unmapped pages returns zeros and maps nothing; an empty write maps
// nothing either.
func TestMemoryBytesAcrossPages(t *testing.T) {
	for _, c := range []struct{ addr, n uint32 }{
		{pageSize - 3, 7},
		{2*pageSize - 1, pageSize + 2},
		{5 * pageSize, 3 * pageSize},
		{0xFFFFFFFF - 4, 9},
	} {
		data := make([]byte, c.n)
		for i := range data {
			data[i] = byte(i*7 + 1)
		}
		got, want := NewMemory(), NewMemory()
		got.WriteBytes(c.addr, data)
		for i, v := range data {
			want.Write8(c.addr+uint32(i), v)
		}
		if g, w := fmt.Sprint(got.Footprint()), fmt.Sprint(want.Footprint()); g != w {
			t.Fatalf("WriteBytes(%#x, %d) mapped %s, Write8 %s", c.addr, c.n, g, w)
		}
		// Read a page either side as well: mapped and unmapped pages.
		start := c.addr - pageSize
		buf := make([]byte, c.n+2*pageSize)
		for i := range buf {
			buf[i] = 0xAA
		}
		got.ReadBytesInto(buf, start)
		for i, v := range buf {
			if w := want.Read8(start + uint32(i)); v != w {
				t.Fatalf("ReadBytesInto at %#x: byte %d = %#x, Read8 %#x", start, i, v, w)
			}
		}
		if g, w := fmt.Sprint(got.Footprint()), fmt.Sprint(want.Footprint()); g != w {
			t.Fatalf("ReadBytesInto around %#x mapped pages: %s, want %s", c.addr, g, w)
		}
	}
	m := NewMemory()
	m.WriteBytes(pageSize-1, nil)
	m.ReadBytesInto(make([]byte, 3*pageSize), pageSize-1)
	if n, _ := m.Footprint(); n != 0 {
		t.Fatalf("an empty write and an unmapped read mapped %d pages", n)
	}
}

func TestMemoryWordProperty(t *testing.T) {
	f := func(addr, v uint32) bool {
		m := NewMemory()
		m.Write32(addr, v)
		return m.Read32(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryWriteWords(t *testing.T) {
	m := NewMemory()
	m.WriteWords(0x40, []uint32{1, 2, 3, 4})
	for i, want := range []uint32{1, 2, 3, 4} {
		if got := m.Read32(uint32(0x40 + 4*i)); got != want {
			t.Errorf("word %d = %d, want %d", i, got, want)
		}
	}
}

func TestMemoryClone(t *testing.T) {
	m := NewMemory()
	m.Write32(0x10, 42)
	c := m.Clone()
	c.Write32(0x10, 99)
	if m.Read32(0x10) != 42 {
		t.Error("clone must not alias the original")
	}
	if c.Read32(0x10) != 99 {
		t.Error("clone must hold its own writes")
	}
}

func TestMemoryFootprint(t *testing.T) {
	m := NewMemory()
	m.Write8(0, 1)
	m.Write8(pageSize*3, 1)
	n, bases := m.Footprint()
	if n != 2 || len(bases) != 2 {
		t.Fatalf("footprint = %d pages", n)
	}
	if bases[0] != 0 || bases[1] != pageSize*3 {
		t.Errorf("bases = %v", bases)
	}
}

func TestCacheConfigValidate(t *testing.T) {
	bad := []CacheConfig{
		{Sets: 0, Ways: 1, LineBytes: 32},
		{Sets: 3, Ways: 1, LineBytes: 32},
		{Sets: 4, Ways: 0, LineBytes: 32},
		{Sets: 4, Ways: 1, LineBytes: 0},
		{Sets: 4, Ways: 1, LineBytes: 24},
		{Sets: 4, Ways: 1, LineBytes: 32, HitLatency: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v must be rejected", c)
		}
	}
	good := CacheConfig{Sets: 256, Ways: 4, LineBytes: 32}
	if err := good.Validate(); err != nil {
		t.Errorf("config %+v rejected: %v", good, err)
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 4, Ways: 2, LineBytes: 16})
	if c.Access(0x100) {
		t.Error("first access must miss")
	}
	if !c.Access(0x100) {
		t.Error("second access must hit")
	}
	if !c.Access(0x104) {
		t.Error("same-line access must hit")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats = %d hits %d misses", hits, misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Direct-mapped-per-set with 2 ways: three conflicting lines evict LRU.
	c := NewCache(CacheConfig{Sets: 1, Ways: 2, LineBytes: 16})
	c.Access(0x000) // line A
	c.Access(0x010) // line B
	c.Access(0x000) // touch A: B is now LRU
	c.Access(0x020) // line C evicts B
	if !c.Contains(0x000) {
		t.Error("A must survive")
	}
	if c.Contains(0x010) {
		t.Error("B must be evicted")
	}
	if !c.Contains(0x020) {
		t.Error("C must be resident")
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 4, Ways: 2, LineBytes: 16})
	c.Access(0x40)
	c.Reset()
	if c.Contains(0x40) {
		t.Error("reset must invalidate")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Error("reset must clear stats")
	}
}

func TestHierarchyWarmSkipsPenalty(t *testing.T) {
	h := DefaultHierarchy()
	h.Warm = true
	if p := h.DataPenalty(0x1234); p != 0 {
		t.Errorf("warm data penalty = %d, want 0", p)
	}
	if p := h.FetchPenalty(100); p != 0 {
		t.Errorf("warm fetch penalty = %d, want 0", p)
	}
}

func TestHierarchyColdThenWarm(t *testing.T) {
	h := DefaultHierarchy()
	first := h.DataPenalty(0x5000)
	if first != h.MissLatency {
		t.Errorf("cold miss penalty = %d, want %d", first, h.MissLatency)
	}
	second := h.DataPenalty(0x5000)
	if second != 0 {
		t.Errorf("warm hit penalty = %d, want 0 (L1 hit)", second)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := DefaultHierarchy()
	// Fill L1D set 0 with 5 conflicting lines (4 ways): first line falls
	// to L2 but stays resident there.
	stride := uint32(256 * 32) // lines mapping to the same L1 set
	for i := uint32(0); i < 5; i++ {
		h.DataPenalty(i * stride)
	}
	p := h.DataPenalty(0)
	if p != 10 {
		t.Errorf("L2 hit penalty = %d, want 10", p)
	}
}

func TestHierarchyFetchPath(t *testing.T) {
	h := DefaultHierarchy()
	if p := h.FetchPenalty(0); p != h.MissLatency {
		t.Errorf("cold fetch = %d, want %d", p, h.MissLatency)
	}
	// Instructions 0..7 share a 32-byte line.
	if p := h.FetchPenalty(7); p != 0 {
		t.Errorf("same-line fetch = %d, want 0", p)
	}
}
