// Package trace provides power-trace containers for the side-channel
// tool-chain: single traces, trace sets with per-trace auxiliary data
// (plaintexts, key bytes), averaging, alignment helpers and a binary
// serialization format.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Trace is one power trace: a sequence of samples.
type Trace []float64

// Clone returns an independent copy.
func (t Trace) Clone() Trace {
	c := make(Trace, len(t))
	copy(c, t)
	return c
}

// Resize returns the trace truncated or zero-padded to n samples.
func (t Trace) Resize(n int) Trace {
	if len(t) == n {
		return t
	}
	out := make(Trace, n)
	copy(out, t)
	return out
}

// Shift returns the trace delayed by k samples (k may be negative for an
// advance); vacated positions are zero-filled. It models trigger jitter.
func (t Trace) Shift(k int) Trace {
	out := make(Trace, len(t))
	for i := range t {
		j := i - k
		if j >= 0 && j < len(t) {
			out[i] = t[j]
		}
	}
	return out
}

// AddInPlace accumulates o into t; both must have equal length.
func (t Trace) AddInPlace(o Trace) error {
	if len(t) != len(o) {
		return fmt.Errorf("trace: length mismatch %d vs %d", len(t), len(o))
	}
	for i := range t {
		t[i] += o[i]
	}
	return nil
}

// Scale multiplies every sample in place and returns t.
func (t Trace) Scale(f float64) Trace {
	if f == 1 {
		// x*1.0 is bitwise x for every float64; skip the pass.
		return t
	}
	for i := range t {
		t[i] *= f
	}
	return t
}

// Mean returns the sample mean.
func (t Trace) Mean() float64 {
	if len(t) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range t {
		s += v
	}
	return s / float64(len(t))
}

// Std returns the population standard deviation.
func (t Trace) Std() float64 {
	if len(t) == 0 {
		return 0
	}
	m := t.Mean()
	s := 0.0
	for _, v := range t {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(t)))
}

// Average returns the point-wise mean of the traces, which must share a
// length. It reproduces the paper's acquisition averaging ("each one
// obtained as the average of 16 executions").
func Average(ts []Trace) (Trace, error) {
	if len(ts) == 0 {
		return nil, errors.New("trace: no traces to average")
	}
	out := make(Trace, len(ts[0]))
	for _, t := range ts {
		if err := out.AddInPlace(t); err != nil {
			return nil, err
		}
	}
	return out.Scale(1 / float64(len(ts))), nil
}

// Set is a collection of equal-length traces with per-trace auxiliary
// data, typically the input (plaintext) that produced each trace.
type Set struct {
	samples []Trace
	aux     [][]byte
	n       int // trace length
}

// NewSet returns an empty set accepting traces of length n.
func NewSet(n int) *Set { return &Set{n: n} }

// Add appends a trace with its auxiliary record; the trace is resized to
// the set's sample count, so slightly jittered lengths are tolerated.
func (s *Set) Add(t Trace, aux []byte) {
	s.samples = append(s.samples, t.Resize(s.n))
	a := make([]byte, len(aux))
	copy(a, aux)
	s.aux = append(s.aux, a)
}

// Len returns the number of traces.
func (s *Set) Len() int { return len(s.samples) }

// Samples returns the number of samples per trace.
func (s *Set) Samples() int { return s.n }

// Trace returns the i-th trace (not a copy).
func (s *Set) Trace(i int) Trace { return s.samples[i] }

// Aux returns the i-th auxiliary record (not a copy).
func (s *Set) Aux(i int) []byte { return s.aux[i] }

const setMagic = 0x53435452 // "RTCS" little-endian: Repro Trace Container Set

// WriteTo serializes the set: header (magic, count, samples), then per
// trace the aux length, aux bytes and float64 samples, little-endian.
func (s *Set) WriteTo(w io.Writer) (int64, error) {
	sw, err := NewSetWriter(w, len(s.samples), s.n)
	if err != nil {
		return sw.Written(), err
	}
	for i, t := range s.samples {
		if err := sw.Append(t, s.aux[i]); err != nil {
			return sw.Written(), err
		}
	}
	return sw.Written(), sw.Close()
}

// SetWriter serializes a trace set incrementally in the Set format, so
// producers can stream traces straight to disk without materializing
// the whole set. The trace count is fixed up front by the header.
type SetWriter struct {
	w       io.Writer
	count   int
	samples int
	written int64
	added   int
}

// NewSetWriter writes the set header for count traces of the given
// sample length and returns the writer for the trace records.
func NewSetWriter(w io.Writer, count, samples int) (*SetWriter, error) {
	sw := &SetWriter{w: w, count: count, samples: samples}
	if count < 0 || samples < 0 {
		return sw, fmt.Errorf("trace: negative set dimensions %dx%d", count, samples)
	}
	for _, v := range []uint32{setMagic, uint32(count), uint32(samples)} {
		if err := sw.write(v); err != nil {
			return sw, err
		}
	}
	return sw, nil
}

func (sw *SetWriter) write(v any) error {
	if err := binary.Write(sw.w, binary.LittleEndian, v); err != nil {
		return err
	}
	sw.written += int64(binary.Size(v))
	return nil
}

// Append writes the next trace record. The trace is resized to the
// declared sample count, mirroring Set.Add.
func (sw *SetWriter) Append(t Trace, aux []byte) error {
	if sw.added >= sw.count {
		return fmt.Errorf("trace: set already holds the declared %d traces", sw.count)
	}
	if err := sw.write(uint32(len(aux))); err != nil {
		return err
	}
	if err := sw.write(aux); err != nil {
		return err
	}
	if err := sw.write([]float64(t.Resize(sw.samples))); err != nil {
		return err
	}
	sw.added++
	return nil
}

// Written returns the number of bytes written so far.
func (sw *SetWriter) Written() int64 { return sw.written }

// Close verifies that exactly the declared number of traces was written;
// it does not close the underlying writer.
func (sw *SetWriter) Close() error {
	if sw.added != sw.count {
		return fmt.Errorf("trace: wrote %d traces, header declares %d", sw.added, sw.count)
	}
	return nil
}

// SetReader streams a serialized set record by record — the incremental
// counterpart to SetWriter. Consumers that only fold each trace into an
// accumulator (out-of-core CPA, store ingestion) iterate with Next and
// never materialize the whole set; ReadSet is now a thin loop over it.
type SetReader struct {
	r       io.Reader
	count   int
	samples int
	read    int
}

// maxSetSamples bounds the per-trace sample count a reader will accept
// before reading payload bytes: beyond it the header is corrupt, not a
// plausible acquisition.
const maxSetSamples = 1 << 24

// NewSetReader parses the set header and returns a reader positioned at
// the first trace record.
func NewSetReader(r io.Reader) (*SetReader, error) {
	var magic, count, samples uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, err
	}
	if magic != setMagic {
		return nil, fmt.Errorf("trace: bad magic %#x", magic)
	}
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &samples); err != nil {
		return nil, err
	}
	if samples > maxSetSamples {
		return nil, fmt.Errorf("trace: unreasonable trace length %d", samples)
	}
	return &SetReader{r: r, count: int(count), samples: int(samples)}, nil
}

// Count returns the trace count the header declares.
func (sr *SetReader) Count() int { return sr.count }

// Samples returns the per-trace sample count.
func (sr *SetReader) Samples() int { return sr.samples }

// Read returns the number of trace records consumed so far.
func (sr *SetReader) Read() int { return sr.read }

// Next returns the next trace with its auxiliary record, or io.EOF
// after the declared count. A stream that ends early returns
// io.ErrUnexpectedEOF — the caller sees a torn set, never a silently
// shortened one.
func (sr *SetReader) Next() (Trace, []byte, error) {
	if sr.read >= sr.count {
		return nil, nil, io.EOF
	}
	var auxLen uint32
	if err := binary.Read(sr.r, binary.LittleEndian, &auxLen); err != nil {
		return nil, nil, tear(err)
	}
	if auxLen > 1<<16 {
		return nil, nil, fmt.Errorf("trace: unreasonable aux length %d", auxLen)
	}
	aux := make([]byte, auxLen)
	if _, err := io.ReadFull(sr.r, aux); err != nil {
		return nil, nil, tear(err)
	}
	t := make(Trace, sr.samples)
	if err := binary.Read(sr.r, binary.LittleEndian, []float64(t)); err != nil {
		return nil, nil, tear(err)
	}
	sr.read++
	return t, aux, nil
}

// tear maps a mid-record EOF to io.ErrUnexpectedEOF so "the stream
// ended" is never confused with "the set is complete".
func tear(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadSet deserializes a set written by WriteTo, materializing it in
// memory. Streaming consumers should iterate a SetReader instead.
func ReadSet(r io.Reader) (*Set, error) {
	sr, err := NewSetReader(r)
	if err != nil {
		return nil, err
	}
	const limit = 1 << 28
	if uint64(sr.count)*uint64(sr.samples) > limit {
		return nil, fmt.Errorf("trace: unreasonable set size %dx%d", sr.count, sr.samples)
	}
	s := NewSet(sr.samples)
	for {
		t, aux, err := sr.Next()
		if errors.Is(err, io.EOF) {
			return s, nil
		}
		if err != nil {
			return nil, err
		}
		s.samples = append(s.samples, t)
		s.aux = append(s.aux, aux)
	}
}
