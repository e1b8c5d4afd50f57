// Package mem provides the memory subsystem of the Cortex-A7 model: a
// sparse, byte-addressable flat memory with little-endian word accessors,
// and a two-level set-associative cache timing model reproducing the
// warm-up behaviour the paper exploits in §3.2 ("we iterated in an
// infinite loop the benchmark patterns so to warm [the caches] up ...
// preventing unwanted stalls").
//
// The memory holds architectural data; the caches affect timing only.
// Splitting the two keeps the functional simulator deterministic while
// letting the CPI harness demonstrate both cold- and warm-cache runs.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// pageBits selects a 4 KiB page granule for the sparse backing store.
const pageBits = 12

const pageSize = 1 << pageBits

// Memory is a sparse byte-addressable 32-bit address space. The zero
// value is an empty memory ready to use: unwritten locations read as
// zero, matching SRAM-after-clear behaviour of the bare-metal benchmarks.
type Memory struct {
	pages map[uint32]*[pageSize]byte

	// Single-entry lookup cache. The bare-metal benchmarks' working sets
	// live in one or two pages, so the last-hit page answers almost every
	// access without a map probe — measurable on the replay hot path,
	// where each lane's loads and stores go through page(). A non-nil
	// lastPage is always the live mapping of lastKey; operations that
	// replace the page map (Reset) clear it, while in-place mutations
	// (Wipe, CopyFrom) keep it valid.
	lastKey  uint32
	lastPage *[pageSize]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[pageSize]byte)}
}

func (m *Memory) page(addr uint32, create bool) *[pageSize]byte {
	key := addr >> pageBits
	if p := m.lastPage; p != nil && m.lastKey == key {
		return p
	}
	if m.pages == nil {
		if !create {
			return nil
		}
		m.pages = make(map[uint32]*[pageSize]byte)
	}
	p := m.pages[key]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[key] = p
	}
	if p != nil {
		m.lastKey, m.lastPage = key, p
	}
	return p
}

// Read8 returns the byte at addr.
func (m *Memory) Read8(addr uint32) uint8 {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// Write8 stores one byte at addr.
func (m *Memory) Write8(addr uint32, v uint8) {
	m.page(addr, true)[addr&(pageSize-1)] = v
}

// Read16 returns the little-endian halfword at addr (addr is aligned down
// to a halfword boundary, the A7's strict-alignment behaviour for our
// subset).
func (m *Memory) Read16(addr uint32) uint16 {
	addr &^= 1
	return uint16(m.Read8(addr)) | uint16(m.Read8(addr+1))<<8
}

// Write16 stores a little-endian halfword.
func (m *Memory) Write16(addr uint32, v uint16) {
	addr &^= 1
	m.Write8(addr, uint8(v))
	m.Write8(addr+1, uint8(v>>8))
}

// Read32 returns the little-endian word at addr (aligned down). The
// aligned word never straddles a page, so a single page lookup serves
// all four bytes.
func (m *Memory) Read32(addr uint32) uint32 {
	addr &^= 3
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p[addr&(pageSize-1):])
}

// Write32 stores a little-endian word (addr aligned down).
func (m *Memory) Write32(addr uint32, v uint32) {
	addr &^= 3
	binary.LittleEndian.PutUint32(m.page(addr, true)[addr&(pageSize-1):], v)
}

// WriteBytes copies b into memory starting at addr, one page at a
// time; addresses wrap at 2^32 as Write8's do.
func (m *Memory) WriteBytes(addr uint32, b []byte) {
	for len(b) > 0 {
		n := copy(m.page(addr, true)[addr&(pageSize-1):], b)
		b = b[n:]
		addr += uint32(n)
	}
}

// ReadBytes copies n bytes starting at addr.
func (m *Memory) ReadBytes(addr uint32, n int) []byte {
	out := make([]byte, n)
	m.ReadBytesInto(out, addr)
	return out
}

// ReadBytesInto fills dst with the bytes starting at addr — the
// allocation-free form of ReadBytes for per-acquisition oracles on the
// synthesis hot path.
//
// It copies one page at a time; a page never written reads as zeros
// and stays unmapped.
func (m *Memory) ReadBytesInto(dst []byte, addr uint32) {
	for len(dst) > 0 {
		off := addr & (pageSize - 1)
		n := min(len(dst), int(pageSize-off))
		if p := m.page(addr, false); p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint32(n)
	}
}

// WriteWords stores consecutive little-endian words starting at addr.
func (m *Memory) WriteWords(addr uint32, ws []uint32) {
	var buf [4]byte
	for i, w := range ws {
		binary.LittleEndian.PutUint32(buf[:], w)
		m.WriteBytes(addr+uint32(4*i), buf[:])
	}
}

// Clone returns a deep copy; used to reset state between measured
// executions without re-running initialization.
func (m *Memory) Clone() *Memory {
	c := NewMemory()
	for k, p := range m.pages {
		cp := new([pageSize]byte)
		*cp = *p
		c.pages[k] = cp
	}
	return c
}

// Reset drops all contents.
func (m *Memory) Reset() {
	m.pages = make(map[uint32]*[pageSize]byte)
	m.lastKey, m.lastPage = 0, nil
}

// Wipe zeroes every mapped page in place, keeping the pages allocated.
// Reads are indistinguishable from a fresh memory, but pooled reuse
// (cores recycled between measured executions) produces no garbage.
func (m *Memory) Wipe() {
	for _, p := range m.pages {
		*p = [pageSize]byte{}
	}
}

// CopyFrom makes m's contents identical to src's, reusing m's already
// mapped pages where possible. Pages mapped in m but absent from src
// are zeroed in place, which reads the same as their absence.
func (m *Memory) CopyFrom(src *Memory) {
	if m.pages == nil {
		m.pages = make(map[uint32]*[pageSize]byte, len(src.pages))
	}
	for k, p := range m.pages {
		if _, ok := src.pages[k]; !ok {
			*p = [pageSize]byte{}
		}
	}
	for k, sp := range src.pages {
		mp := m.pages[k]
		if mp == nil {
			mp = new([pageSize]byte)
			m.pages[k] = mp
		}
		*mp = *sp
	}
}

// Footprint returns the number of mapped pages and the sorted list of
// their base addresses, for diagnostics.
func (m *Memory) Footprint() (pages int, bases []uint32) {
	for k := range m.pages {
		bases = append(bases, k<<pageBits)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return len(bases), bases
}

// String summarizes the memory for debugging.
func (m *Memory) String() string {
	n, _ := m.Footprint()
	return fmt.Sprintf("mem{%d pages}", n)
}
