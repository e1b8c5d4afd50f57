package tracestore

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/trace"
)

// Options configures a new store.
type Options struct {
	// Samples is the per-trace sample count (required, >= 1).
	Samples int
	// AuxLen is the fixed auxiliary record length (0: no aux).
	AuxLen int
	// ChunkTraces is the number of traces per full chunk
	// (0: DefaultChunkTraces).
	ChunkTraces int
}

// Writer appends traces to a store under construction. Full chunks are
// flushed as they fill — data fsynced, then the manifest atomically
// recommitted — so a crash at any point leaves a store recoverable to
// the last committed chunk boundary. Commit flushes the final partial
// chunk and seals the manifest.
type Writer struct {
	dir string
	f   *os.File
	man *Manifest

	buf     []float64 // pending traces, trace-major, len = pending*samples
	aux     []byte    // pending aux records, trace-major
	pending int
	off     int64
	sealed  bool
	closed  bool
}

// Create initializes a new store directory (created if missing) and
// returns a Writer. It refuses a directory that already holds a store
// manifest — a store is immutable once sealed, and a recoverable
// prefix should be inspected, not silently overwritten.
func Create(dir string, opt Options) (*Writer, error) {
	if opt.Samples < 1 {
		return nil, fmt.Errorf("tracestore: need at least 1 sample per trace, got %d", opt.Samples)
	}
	if opt.AuxLen < 0 || opt.AuxLen > 1<<16 {
		return nil, fmt.Errorf("tracestore: unreasonable aux length %d", opt.AuxLen)
	}
	if opt.ChunkTraces == 0 {
		opt.ChunkTraces = DefaultChunkTraces
	}
	if opt.ChunkTraces < 1 {
		return nil, fmt.Errorf("tracestore: chunk must hold at least 1 trace, got %d", opt.ChunkTraces)
	}
	if payloadSize(uint64(opt.ChunkTraces), uint64(opt.Samples), uint64(opt.AuxLen)) > maxChunkPayload {
		return nil, fmt.Errorf("tracestore: chunk dimensions %dx%d exceed the chunk bound", opt.ChunkTraces, opt.Samples)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return nil, fmt.Errorf("tracestore: %s already holds a store", dir)
	}
	f, err := os.OpenFile(filepath.Join(dir, DataName), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &Writer{
		dir: dir,
		f:   f,
		man: &Manifest{
			Magic:       manifestMagic,
			Version:     FormatVersion,
			Samples:     opt.Samples,
			AuxLen:      opt.AuxLen,
			ChunkTraces: opt.ChunkTraces,
		},
	}, nil
}

// Samples returns the per-trace sample count.
func (w *Writer) Samples() int { return w.man.Samples }

// AuxLen returns the fixed auxiliary record length.
func (w *Writer) AuxLen() int { return w.man.AuxLen }

// Append adds one trace with its auxiliary record. The trace is resized
// to the store's sample count (mirroring trace.Set.Add); the aux record
// must match the declared fixed length exactly — padding or truncating
// measured metadata would silently alter it.
func (w *Writer) Append(t trace.Trace, aux []byte) error {
	if w.sealed || w.closed {
		return fmt.Errorf("tracestore: append to a %s writer", w.state())
	}
	if len(aux) != w.man.AuxLen {
		return fmt.Errorf("tracestore: aux record of %d bytes, store declares %d", len(aux), w.man.AuxLen)
	}
	t = t.Resize(w.man.Samples)
	w.buf = append(w.buf, t...)
	w.aux = append(w.aux, aux...)
	w.pending++
	if w.pending == w.man.ChunkTraces {
		return w.flushChunk()
	}
	return nil
}

func (w *Writer) state() string {
	if w.sealed {
		return "sealed"
	}
	return "closed"
}

// flushChunk writes the pending traces as one chunk, fsyncs the data
// file, and atomically recommits the manifest to cover it.
func (w *Writer) flushChunk() error {
	if w.pending == 0 {
		return nil
	}
	count, samples, auxLen := w.pending, w.man.Samples, w.man.AuxLen
	payload := make([]byte, payloadSize(uint64(count), uint64(samples), uint64(auxLen)))
	copy(payload, w.aux)
	// Sample-major block: for each sample, the values of every trace in
	// the chunk. w.buf is trace-major, so this is the transpose.
	floats := payload[count*auxLen:]
	for j := 0; j < count; j++ {
		row := w.buf[j*samples : (j+1)*samples]
		for s, v := range row {
			binary.LittleEndian.PutUint64(floats[8*(s*count+j):], math.Float64bits(v))
		}
	}
	h := ChunkHeader{
		Index:      uint32(len(w.man.Chunks)),
		First:      uint32(w.man.Traces),
		Count:      uint32(count),
		Samples:    uint32(samples),
		AuxLen:     uint32(auxLen),
		PayloadLen: uint32(len(payload)),
		PayloadCRC: CRC(payload),
	}
	hdr := h.encode()
	if _, err := w.f.WriteAt(hdr[:], w.off); err != nil {
		return err
	}
	if _, err := w.f.WriteAt(payload, w.off+HeaderSize); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	size := int64(HeaderSize + len(payload))
	w.man.Chunks = append(w.man.Chunks, ChunkInfo{
		Index:  len(w.man.Chunks),
		First:  w.man.Traces,
		Traces: count,
		Offset: w.off,
		Size:   size,
		CRC32C: fmt.Sprintf("%08x", h.PayloadCRC),
	})
	w.man.Traces += count
	w.off += size
	w.buf = w.buf[:0]
	w.aux = w.aux[:0]
	w.pending = 0
	return w.man.commit(w.dir)
}

// Commit flushes the final partial chunk, seals the manifest and closes
// the data file. A sealed store is complete: Open reports Sealed and no
// writer will touch it again.
func (w *Writer) Commit() error {
	if w.sealed || w.closed {
		return fmt.Errorf("tracestore: commit of a %s writer", w.state())
	}
	if err := w.flushChunk(); err != nil {
		return err
	}
	w.man.Sealed = true
	if err := w.man.commit(w.dir); err != nil {
		return err
	}
	w.sealed = true
	w.closed = true
	return w.f.Close()
}

// Close releases the data file without sealing. Chunks already flushed
// stay committed — the store reopens as a recoverable (unsealed)
// prefix — while pending traces that never filled a chunk are lost,
// exactly as they would be in a crash.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}
