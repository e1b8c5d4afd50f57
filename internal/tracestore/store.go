package tracestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
)

// ErrNoManifest reports a directory without a committed manifest — an
// ingestion that crashed before its first chunk boundary, or no store
// at all. (A leftover manifest temp file alone still means "never
// committed": the atomic rename never happened.)
var ErrNoManifest = errors.New("tracestore: no committed manifest")

// ErrChunkCorrupt reports a quarantined chunk: its header or payload no
// longer matches the committed manifest. Reads skip it; statistics that
// streamed past one must report it.
var ErrChunkCorrupt = errors.New("tracestore: chunk quarantined")

// Store is a read view of an on-disk trace store, opened with Open.
type Store struct {
	dir string
	f   *os.File
	man *Manifest

	// truncatedChunks/Traces count the torn tail dropped at open;
	// quarantined marks chunks whose header or payload failed
	// verification (header failures at open, payload failures as reads
	// discover them).
	truncatedChunks int
	truncatedTraces int
	quarantined     []bool
}

// Open opens the store in dir, applying the recovery rules:
//
//   - chunks the committed manifest declares but the data file no
//     longer fully contains (a torn final chunk after a crash, or an
//     externally truncated copy) are dropped from the view — the same
//     truncate-the-torn-tail rule the serve spill applies — and counted
//     in TruncatedChunks/TruncatedTraces;
//   - a chunk whose on-disk header fails validation or disagrees with
//     the manifest is quarantined immediately; payload damage is
//     quarantined when a read first touches it (Verify sweeps all of
//     them eagerly). Quarantine never fails the store.
//
// A directory without a committed manifest fails with ErrNoManifest; a
// manifest that does not parse fails loudly — it cannot be a crash
// artifact (commits are atomic), so silently guessing at the store
// shape would trade corruption for wrong statistics.
func Open(dir string) (*Store, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w in %s", ErrNoManifest, dir)
	}
	if err != nil {
		return nil, err
	}
	man, err := ParseManifest(raw)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, DataName))
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &Store{dir: dir, f: f, man: man}

	// Drop the torn tail: every chunk whose byte range overruns the
	// data file. Validation guarantees offsets ascend, so the overrun
	// set is always a suffix.
	size := st.Size()
	for len(man.Chunks) > 0 {
		last := man.Chunks[len(man.Chunks)-1]
		if last.Offset+last.Size <= size {
			break
		}
		man.Chunks = man.Chunks[:len(man.Chunks)-1]
		man.Traces -= last.Traces
		s.truncatedChunks++
		s.truncatedTraces += last.Traces
	}

	// Validate every surviving header against its manifest entry; a
	// mismatch quarantines the chunk, never the store.
	s.quarantined = make([]bool, len(man.Chunks))
	var hdr [HeaderSize]byte
	for i, c := range man.Chunks {
		if _, err := f.ReadAt(hdr[:], c.Offset); err != nil {
			s.quarantined[i] = true
			continue
		}
		h, err := ParseChunkHeader(hdr[:])
		if err != nil {
			s.quarantined[i] = true
			continue
		}
		if int(h.Index) != c.Index || int(h.First) != c.First || int(h.Count) != c.Traces ||
			int(h.Samples) != man.Samples || int(h.AuxLen) != man.AuxLen ||
			int64(HeaderSize)+int64(h.PayloadLen) != c.Size ||
			fmt.Sprintf("%08x", h.PayloadCRC) != c.CRC32C {
			s.quarantined[i] = true
		}
	}
	return s, nil
}

// Close releases the data file.
func (s *Store) Close() error { return s.f.Close() }

// Samples returns the per-trace sample count.
func (s *Store) Samples() int { return s.man.Samples }

// AuxLen returns the fixed auxiliary record length.
func (s *Store) AuxLen() int { return s.man.AuxLen }

// Traces returns the trace count of the recovered view (torn tail
// excluded, quarantined chunks still counted — they exist, they are
// just unreadable).
func (s *Store) Traces() int { return s.man.Traces }

// Chunks returns the chunk count of the recovered view.
func (s *Store) Chunks() int { return len(s.man.Chunks) }

// Sealed reports a completed (committed) set; false means the store is
// the recoverable prefix of an interrupted ingestion.
func (s *Store) Sealed() bool { return s.man.Sealed }

// TruncatedChunks and TruncatedTraces report the torn tail dropped at
// open.
func (s *Store) TruncatedChunks() int { return s.truncatedChunks }
func (s *Store) TruncatedTraces() int { return s.truncatedTraces }

// Quarantined reports the chunks (and the traces they hold) known
// corrupt so far. Header damage is known at open; payload damage is
// discovered as reads touch it — call Verify for the full sweep.
func (s *Store) Quarantined() (chunks, traces int) {
	for i, q := range s.quarantined {
		if q {
			chunks++
			traces += s.man.Chunks[i].Traces
		}
	}
	return chunks, traces
}

// Digest returns the content identity of the recovered view (see
// Manifest.Digest).
func (s *Store) Digest() string { return s.man.Digest() }

// ChunkData is one decoded chunk: trace rows with their aux records.
type ChunkData struct {
	// Index is the chunk's position; First the store-wide index of
	// Traces[0].
	Index int
	First int
	// Traces holds the chunk's traces as rows; Aux the matching
	// auxiliary records.
	Traces [][]float64
	Aux    [][]byte
}

// ReadChunk decodes chunk i, checking its payload CRC32C first. A
// mismatch quarantines the chunk and returns ErrChunkCorrupt (wrapped);
// later reads of the same chunk fail the same way without re-reading.
func (s *Store) ReadChunk(i int) (*ChunkData, error) {
	if i < 0 || i >= len(s.man.Chunks) {
		return nil, fmt.Errorf("tracestore: chunk %d out of [0,%d)", i, len(s.man.Chunks))
	}
	if s.quarantined[i] {
		return nil, fmt.Errorf("%w: chunk %d", ErrChunkCorrupt, i)
	}
	c := s.man.Chunks[i]
	payload := make([]byte, c.Size-HeaderSize)
	if _, err := s.f.ReadAt(payload, c.Offset+HeaderSize); err != nil {
		s.quarantined[i] = true
		return nil, fmt.Errorf("%w: chunk %d: %v", ErrChunkCorrupt, i, err)
	}
	if got := CRCHex(payload); got != c.CRC32C {
		s.quarantined[i] = true
		return nil, fmt.Errorf("%w: chunk %d payload CRC %s, manifest records %s", ErrChunkCorrupt, i, got, c.CRC32C)
	}
	count, samples, auxLen := c.Traces, s.man.Samples, s.man.AuxLen
	cd := &ChunkData{
		Index:  i,
		First:  c.First,
		Traces: make([][]float64, count),
		Aux:    make([][]byte, count),
	}
	for j := 0; j < count; j++ {
		cd.Aux[j] = payload[j*auxLen : (j+1)*auxLen : (j+1)*auxLen]
	}
	floats := payload[count*auxLen:]
	block := make([]float64, count*samples)
	for j := range cd.Traces {
		cd.Traces[j] = block[j*samples : (j+1)*samples]
	}
	// Transpose the sample-major payload back into trace rows.
	for sIdx := 0; sIdx < samples; sIdx++ {
		base := 8 * sIdx * count
		for j := 0; j < count; j++ {
			cd.Traces[j][sIdx] = math.Float64frombits(binary.LittleEndian.Uint64(floats[base+8*j:]))
		}
	}
	return cd, nil
}

// Stats summarizes one streaming pass over a store.
type Stats struct {
	// Traces and Chunks count what the pass actually delivered.
	Traces int `json:"traces"`
	Chunks int `json:"chunks"`
	// QuarantinedChunks/Traces count the chunks the pass had to skip;
	// TruncatedChunks/Traces the torn tail dropped at open. A result
	// derived from a pass with any nonzero skip count is incomplete and
	// must say so.
	QuarantinedChunks int `json:"quarantined_chunks"`
	QuarantinedTraces int `json:"quarantined_traces"`
	TruncatedChunks   int `json:"truncated_chunks"`
	TruncatedTraces   int `json:"truncated_traces"`
}

// Complete reports a pass that delivered every committed trace.
func (st Stats) Complete() bool {
	return st.QuarantinedChunks == 0 && st.TruncatedChunks == 0
}

// EachChunk streams the store in ascending chunk order, calling fn for
// every readable chunk and skipping (while counting) quarantined ones.
// Memory stays bounded by one decoded chunk. fn == nil turns the pass
// into a pure verification sweep. Any fn error aborts the pass.
func (s *Store) EachChunk(fn func(cd *ChunkData) error) (Stats, error) {
	stats := Stats{TruncatedChunks: s.truncatedChunks, TruncatedTraces: s.truncatedTraces}
	for i := range s.man.Chunks {
		cd, err := s.ReadChunk(i)
		if errors.Is(err, ErrChunkCorrupt) {
			stats.QuarantinedChunks++
			stats.QuarantinedTraces += s.man.Chunks[i].Traces
			continue
		}
		if err != nil {
			return stats, err
		}
		if fn != nil {
			if err := fn(cd); err != nil {
				return stats, err
			}
		}
		stats.Chunks++
		stats.Traces += len(cd.Traces)
	}
	return stats, nil
}

// Verify sweeps every chunk's payload CRC and returns the resulting
// stats — the full-store health check the CLI and the smoke harness
// gate on.
func (s *Store) Verify() (Stats, error) { return s.EachChunk(nil) }

// String renders a one-line summary.
func (s *Store) String() string {
	qc, _ := s.Quarantined()
	sealed := "sealed"
	if !s.man.Sealed {
		sealed = "unsealed"
	}
	return "tracestore " + s.dir + ": " + strconv.Itoa(s.man.Traces) + " traces x " +
		strconv.Itoa(s.man.Samples) + " samples in " + strconv.Itoa(len(s.man.Chunks)) +
		" chunks (" + sealed + ", " + strconv.Itoa(qc) + " quarantined)"
}

var _ io.Closer = (*Store)(nil)
