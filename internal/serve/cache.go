package serve

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/tracestore"
)

// Cache is the content-addressed result store: finished response bodies
// keyed by request fingerprint, held in a bounded in-memory LRU with an
// optional append-only JSONL spill file underneath. Because every body
// is a pure function of its fingerprint, the cache never needs
// invalidation — an entry can only ever be refilled with identical
// bytes — and the spill file doubles as a persistent result log that
// survives restarts.
type Cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	spill *spillLog

	hits, misses, evictions, spillHits, spillErrors uint64
}

// centry is one cached result.
type centry struct {
	fp   string
	kind string
	body []byte
}

// spillRecord is one JSONL line of the spill file. The body travels as
// a JSON string — not an embedded raw JSON value, which Marshal would
// re-compact — so reloading returns byte-identical response bodies,
// indentation and trailing newline included.
type spillRecord struct {
	Fingerprint string `json:"fingerprint"`
	Kind        string `json:"kind"`
	Body        string `json:"body"`
	// CRC32C covers fingerprint, kind and body (see spillCRC): a record
	// damaged in place — bit rot, a torn overwrite — is skipped and
	// counted instead of served as a wrong result. Absent on legacy
	// lines, which still load.
	CRC32C string `json:"crc32c,omitempty"`
}

// spillCRC digests a spill record's content fields.
func spillCRC(fp, kind, body string) string {
	return tracestore.CRCHex([]byte(fp + "\x00" + kind + "\x00" + body))
}

// ok verifies a record's digest; records without one (written before
// the digest existed) pass.
func (rec *spillRecord) ok() bool {
	return rec.CRC32C == "" || rec.CRC32C == spillCRC(rec.Fingerprint, rec.Kind, rec.Body)
}

// spillLog is the on-disk layer: an append-only JSONL file plus an
// in-memory fingerprint index. Writes happen under the Cache lock.
type spillLog struct {
	f     *os.File
	index map[string]struct{ off, n int64 }
	// corrupt counts records whose CRC32C no longer matched their
	// content — skipped at reload or on a read-back, never served.
	corrupt uint64
}

func openSpill(path string) (*spillLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	sl := &spillLog{f: f, index: map[string]struct{ off, n int64 }{}}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Index complete lines only; a torn trailing line (crash mid-append)
	// is truncated away so new records never merge into it.
	valid := int64(0)
	for {
		i := bytes.IndexByte(raw[valid:], '\n')
		if i < 0 {
			break
		}
		line := raw[valid : valid+int64(i)]
		var rec spillRecord
		if err := json.Unmarshal(line, &rec); err == nil && rec.Fingerprint != "" {
			if rec.ok() {
				sl.index[rec.Fingerprint] = struct{ off, n int64 }{valid, int64(i)}
			} else {
				// In-place damage to a complete line: skip the record and
				// count it — a corrupt cached body must never be served.
				sl.corrupt++
			}
		}
		valid += int64(i) + 1
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return sl, nil
}

func (sl *spillLog) load(fp string) (centry, bool) {
	loc, ok := sl.index[fp]
	if !ok {
		return centry{}, false
	}
	line := make([]byte, loc.n)
	if _, err := sl.f.ReadAt(line, loc.off); err != nil {
		return centry{}, false
	}
	var rec spillRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return centry{}, false
	}
	if !rec.ok() {
		// The record rotted after indexing; drop it so later lookups
		// miss cheaply instead of checking it again.
		sl.corrupt++
		delete(sl.index, fp)
		return centry{}, false
	}
	return centry{fp: rec.Fingerprint, kind: rec.Kind, body: []byte(rec.Body)}, true
}

func (sl *spillLog) append(e centry) error {
	if _, ok := sl.index[e.fp]; ok {
		return nil // content-addressed: the bytes on disk are already right
	}
	raw, err := json.Marshal(spillRecord{
		Fingerprint: e.fp, Kind: e.kind, Body: string(e.body),
		CRC32C: spillCRC(e.fp, e.kind, string(e.body)),
	})
	if err != nil {
		return err
	}
	off, err := sl.f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if _, err := sl.f.Write(append(raw, '\n')); err != nil {
		return err
	}
	sl.index[e.fp] = struct{ off, n int64 }{off, int64(len(raw))}
	return nil
}

// NewCache builds a cache holding at most maxEntries bodies in memory
// (minimum 1). A non-empty spillPath adds the on-disk layer, reloading
// any results a previous process left there.
func NewCache(maxEntries int, spillPath string) (*Cache, error) {
	if maxEntries < 1 {
		maxEntries = 1
	}
	c := &Cache{max: maxEntries, ll: list.New(), items: map[string]*list.Element{}}
	if spillPath != "" {
		sl, err := openSpill(spillPath)
		if err != nil {
			return nil, fmt.Errorf("serve: opening spill %s: %w", spillPath, err)
		}
		c.spill = sl
	}
	return c, nil
}

// Close releases the spill file.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spill != nil {
		return c.spill.f.Close()
	}
	return nil
}

// Get returns the cached body for fp, consulting the spill file when
// the entry has been evicted from memory (and promoting it back).
func (c *Cache) Get(fp string) (kind string, body []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[fp]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		e := el.Value.(centry)
		return e.kind, e.body, true
	}
	if c.spill != nil {
		if e, ok := c.spill.load(fp); ok {
			c.spillHits++
			c.insert(e)
			return e.kind, e.body, true
		}
	}
	c.misses++
	return "", nil, false
}

// Put stores a finished body under its fingerprint. Storing the same
// fingerprint again is a no-op apart from recency (the bytes are equal
// by construction). A failing spill append — disk full, dead volume —
// degrades persistence, never the result: the body still lands in the
// in-memory LRU and the failure is only counted (Stats.SpillErrors),
// because failing a finished computation over its archival copy would
// throw away exactly the work the cache exists to preserve.
func (c *Cache) Put(fp, kind string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[fp]; ok {
		c.ll.MoveToFront(el)
		return
	}
	e := centry{fp: fp, kind: kind, body: body}
	if c.spill != nil {
		if err := c.spill.append(e); err != nil {
			c.spillErrors++
		}
	}
	c.insert(e)
}

// insert adds e at the front and evicts past capacity. Callers hold mu.
func (c *Cache) insert(e centry) {
	c.items[e.fp] = c.ll.PushFront(e)
	for c.ll.Len() > c.max {
		old := c.ll.Back()
		c.ll.Remove(old)
		delete(c.items, old.Value.(centry).fp)
		c.evictions++
	}
}

// Len reports the in-memory entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	SpillHits uint64 `json:"spill_hits"`
	Spilled   int    `json:"spilled"`
	// SpillErrors counts failed spill appends (results that stayed
	// memory-only).
	SpillErrors uint64 `json:"spill_errors"`
	// SpillCorrupt counts spill records whose per-record CRC32C failed —
	// skipped at reload or dropped on read-back, never served.
	SpillCorrupt uint64 `json:"spill_corrupt"`
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Entries:     c.ll.Len(),
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		SpillHits:   c.spillHits,
		SpillErrors: c.spillErrors,
	}
	if c.spill != nil {
		st.Spilled = len(c.spill.index)
		st.SpillCorrupt = c.spill.corrupt
	}
	return st
}
