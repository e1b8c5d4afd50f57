package tracestore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// ingestReference is Ingest written as one loop: every record decoded
// by SetReader.Next and appended to a Writer. The pipelined Ingest must
// leave exactly its bytes and return exactly its errors.
func ingestReference(dir string, r io.Reader, chunkTraces int) (retErr error) {
	sr, err := trace.NewSetReader(r)
	if err != nil {
		return fmt.Errorf("tracestore: ingest: %w", err)
	}
	samples := sr.Samples()
	if samples < 1 {
		return fmt.Errorf("tracestore: ingest: set declares %d samples per trace", samples)
	}
	var w *Writer
	defer func() {
		if w != nil && retErr != nil {
			w.Close()
		}
	}()
	auxLen := 0
	for {
		t, aux, err := sr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("tracestore: ingest: %w", err)
		}
		if w == nil {
			auxLen = len(aux)
			w, err = Create(dir, Options{Samples: samples, AuxLen: auxLen, ChunkTraces: chunkTraces})
			if err != nil {
				return err
			}
		}
		if len(aux) != auxLen {
			return fmt.Errorf("tracestore: ingest: trace %d carries a %d-byte aux record, first record had %d",
				sr.Read()-1, len(aux), auxLen)
		}
		if err := w.Append(t, aux); err != nil {
			return err
		}
	}
	if w == nil {
		var err error
		w, err = Create(dir, Options{Samples: samples, AuxLen: 0, ChunkTraces: chunkTraces})
		if err != nil {
			return err
		}
	}
	return w.Commit()
}

// ingestCase is one generated trace set and how it is damaged.
type ingestCase struct {
	samples, aux, chunk, traces int
	// damage: 0 none, 1 a torn tail of cut bytes, 2 trace odd (mod
	// traces) carries an aux record one byte longer or shorter.
	damage, cut, odd int
	seed             int64
}

// stream serializes the case. Sample words are arbitrary bit patterns,
// NaN payloads included, so only a verbatim copy passes.
func (c ingestCase) stream(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(c.seed))
	var buf bytes.Buffer
	sw, err := trace.NewSetWriter(&buf, c.traces, c.samples)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.traces; i++ {
		tr := make(trace.Trace, c.samples)
		for s := range tr {
			tr[s] = math.Float64frombits(rng.Uint64())
		}
		n := c.aux
		if c.damage == 2 && i == c.odd%max(c.traces, 1) {
			if n == 0 || i%2 == 0 {
				n++
			} else {
				n--
			}
		}
		aux := make([]byte, n)
		rng.Read(aux)
		if err := sw.Append(tr, aux); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if c.damage == 1 {
		b = b[:len(b)-1-c.cut%len(b)]
	}
	return b
}

// checkIngestAgainstReference ingests stream both ways and requires the
// same error, the same data.bin and manifest.json bytes (whatever a
// failure left behind), and on success the same digest.
func checkIngestAgainstReference(t *testing.T, stream []byte, chunk int) {
	t.Helper()
	root := t.TempDir()
	got, want := filepath.Join(root, "pipelined"), filepath.Join(root, "reference")
	gotErr := Ingest(got, bytes.NewReader(stream), chunk)
	wantErr := ingestReference(want, bytes.NewReader(stream), chunk)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("Ingest error %v, reference %v", gotErr, wantErr)
	}
	for _, name := range []string{DataName, ManifestName} {
		g, gErr := os.ReadFile(filepath.Join(got, name))
		w, wErr := os.ReadFile(filepath.Join(want, name))
		if (gErr == nil) != (wErr == nil) || !bytes.Equal(g, w) {
			t.Fatalf("%s differs from the reference (read errors %v, %v; %d vs %d bytes)", name, gErr, wErr, len(g), len(w))
		}
	}
	if gotErr != nil {
		return
	}
	gs, err := Open(got)
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	ws, err := Open(want)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if gs.Digest() != ws.Digest() {
		t.Fatal("digest differs from the reference")
	}
}

// FuzzIngest runs generated sets — clean, torn, or with one record's aux
// length off by one — through Ingest and the one-loop reference.
func FuzzIngest(f *testing.F) {
	f.Add(uint8(11), uint8(16), uint8(3), uint8(20), uint8(0), uint8(0), uint8(0), int64(1))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), int64(2))
	f.Add(uint8(39), uint8(20), uint8(8), uint8(70), uint8(1), uint8(7), uint8(0), int64(3))
	f.Add(uint8(4), uint8(2), uint8(4), uint8(9), uint8(1), uint8(200), uint8(0), int64(4))
	f.Add(uint8(7), uint8(0), uint8(2), uint8(33), uint8(2), uint8(0), uint8(18), int64(5))
	f.Add(uint8(7), uint8(5), uint8(1), uint8(12), uint8(2), uint8(0), uint8(0), int64(6))
	f.Add(uint8(2), uint8(3), uint8(5), uint8(25), uint8(2), uint8(1), uint8(24), int64(7))
	f.Fuzz(func(t *testing.T, samples, aux, chunk, traces, damage, cut, odd uint8, seed int64) {
		c := ingestCase{
			samples: 1 + int(samples)%40, aux: int(aux) % 21, chunk: 1 + int(chunk)%9, traces: int(traces) % 71,
			damage: int(damage) % 3, cut: int(cut), odd: int(odd), seed: seed,
		}
		checkIngestAgainstReference(t, c.stream(t), c.chunk)
	})
}

// TestIngestMatchesReferenceAcrossProcs pins the pipeline's bytes and
// errors at one and at four encoders, including sets of many full
// chunks at the default chunking.
func TestIngestMatchesReferenceAcrossProcs(t *testing.T) {
	cases := []ingestCase{
		{samples: 50, aux: 16, chunk: 0, traces: 700, seed: 1}, // DefaultChunkTraces
		{samples: 13, aux: 3, chunk: 7, traces: 64, seed: 2},
		{samples: 1, aux: 0, chunk: 1, traces: 9, seed: 3},
		{samples: 40, aux: 20, chunk: 9, traces: 70, damage: 1, cut: 3, seed: 4},
		{samples: 40, aux: 20, chunk: 9, traces: 70, damage: 1, cut: 5000, seed: 5},
		{samples: 6, aux: 4, chunk: 4, traces: 30, damage: 2, odd: 21, seed: 6},
		{samples: 6, aux: 4, chunk: 4, traces: 30, damage: 2, odd: 1, seed: 7},
		{samples: 3, aux: 2, chunk: 5, traces: 0, seed: 8},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for i, c := range cases {
			t.Run(fmt.Sprintf("procs=%d/case=%d", procs, i), func(t *testing.T) {
				checkIngestAgainstReference(t, c.stream(t), c.chunk)
			})
		}
	}
}

// blockManifestCommit makes every manifest commit in dir fail, as a
// full or failing disk would: the commit's temp file cannot be created.
func blockManifestCommit(t *testing.T, dir string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, ManifestTemp), 0o755); err != nil {
		t.Fatal(err)
	}
}

// TestIngestWriterFailure fails the first chunk's manifest commit while
// the reader and encoders are still busy: Ingest must stop them and
// return the writer's error, leaving the reference's bytes behind.
func TestIngestWriterFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	stream := ingestCase{samples: 30, aux: 4, chunk: 2, traces: 200, seed: 9}.stream(t)
	root := t.TempDir()
	got, want := filepath.Join(root, "pipelined"), filepath.Join(root, "reference")
	blockManifestCommit(t, got)
	blockManifestCommit(t, want)
	gotErr := Ingest(got, bytes.NewReader(stream), 2)
	wantErr := ingestReference(want, bytes.NewReader(stream), 2)
	if gotErr == nil || wantErr == nil || gotErr.Error() != strings.ReplaceAll(wantErr.Error(), want, got) {
		t.Fatalf("Ingest error %v, reference %v", gotErr, wantErr)
	}
	g, gErr := os.ReadFile(filepath.Join(got, DataName))
	w, wErr := os.ReadFile(filepath.Join(want, DataName))
	if gErr != nil || wErr != nil || !bytes.Equal(g, w) {
		t.Fatalf("data.bin differs from the reference (%v, %v; %d vs %d bytes)", gErr, wErr, len(g), len(w))
	}
}

// TestIngestLeavesNoGoroutine checks that Ingest's reader and encoders
// are gone once it returns, whether it committed the set, refused it
// or failed to write it.
func TestIngestLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := runtime.NumGoroutine()
	for _, c := range []struct {
		name       string
		set        ingestCase
		fails      bool
		diskFaults bool
	}{
		{"committed", ingestCase{samples: 20, aux: 4, chunk: 3, traces: 40, seed: 1}, false, false},
		{"torn", ingestCase{samples: 20, aux: 4, chunk: 3, traces: 40, damage: 1, cut: 100, seed: 2}, true, false},
		{"aux mismatch", ingestCase{samples: 20, aux: 4, chunk: 3, traces: 40, damage: 2, odd: 31, seed: 3}, true, false},
		{"manifest commit fails", ingestCase{samples: 20, aux: 4, chunk: 3, traces: 400, seed: 4}, true, true},
	} {
		dir := filepath.Join(t.TempDir(), "store")
		if c.diskFaults {
			blockManifestCommit(t, dir)
		}
		err := Ingest(dir, bytes.NewReader(c.set.stream(t)), c.set.chunk)
		if (err != nil) != c.fails {
			t.Fatalf("%s: Ingest returned %v", c.name, err)
		}
		// A goroutine that called wg.Done may still be on its way out;
		// give it a moment, never more.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after Ingest, %d before", c.name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
