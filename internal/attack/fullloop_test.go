package attack

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/aes"
	"repro/internal/engine"
	"repro/internal/osnoise"
	"repro/internal/sca"
	"repro/internal/target"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// captureSet acquires n traces through the shared acquisition path —
// the generator cmd/tracegen runs — at avg-fold averaging under env,
// and returns them three ways: in memory, as plaintext aux records, and
// as the serialized trace-set wire format.
func captureSet(t *testing.T, n, workers, lanes int, key [aes.KeySize]byte, env osnoise.Environment, avg int) ([]trace.Trace, [][]byte, []byte) {
	t.Helper()
	opt := DefaultFig3Options()
	opt.Rounds, opt.Averages = 1, avg
	a, err := NewAcquisition(target.Default, key[:], opt)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	sw, err := trace.NewSetWriter(&buf, n, a.Samples)
	if err != nil {
		t.Fatal(err)
	}
	var traces []trace.Trace
	var aux [][]byte
	// Emitted slices are recycled once emit returns: keep copies.
	emit := func(i int, tr trace.Trace, pt []byte) error {
		traces = append(traces, slices.Clone(tr))
		aux = append(aux, slices.Clone(pt))
		return sw.Append(tr, pt)
	}
	spec := engine.Spec{Traces: n, Samples: a.Samples, Seed: 11, Emit: emit}
	if _, err := engine.RunBatched(engine.Config{Workers: workers, Lanes: lanes}, spec, a.BatchGen(env, nil)); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return traces, aux, buf.Bytes()
}

// TestFullLoopStoreCPAMatchesInMemory pins the whole real-trace loop:
// traces acquired through the measurement chain, serialized in the
// trace-set wire format, ingested into a chunked on-disk store and
// analyzed out-of-core must give exactly the in-memory CPA answer —
// bit-identical correlations — for every worker and lane count, and the
// store's content digest must not depend on how the capture was
// scheduled. The CI test matrix runs this under both
// REPRO_FORCE_PORTABLE legs, so the equality also holds across the
// SIMD and portable kernels.
func TestFullLoopStoreCPAMatchesInMemory(t *testing.T) {
	const n = 48
	key, err := ParseKey("")
	if err != nil {
		t.Fatal(err)
	}

	combos := []struct{ workers, lanes int }{
		{1, 1}, // serial scalar baseline
		{3, 8},
		{2, 16},
	}
	var wantDigest string
	var wantJSON []byte
	for _, c := range combos {
		traces, aux, raw := captureSet(t, n, c.workers, c.lanes, key, osnoise.Quiet(), 2)

		dir := filepath.Join(t.TempDir(), "store")
		if err := tracestore.Ingest(dir, bytes.NewReader(raw), 7); err != nil {
			t.Fatalf("workers=%d lanes=%d: ingest: %v", c.workers, c.lanes, err)
		}
		s, err := tracestore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res, err := RunStoreCPA(s, StoreCPAOptions{Key: key[:]})
		if err != nil {
			t.Fatalf("workers=%d lanes=%d: %v", c.workers, c.lanes, err)
		}

		// In-memory reference: the same traces added one by one.
		ref := sca.MustNewClassCPA(s.Samples(), aes.SubBytesClassTable())
		for i, tr := range traces {
			if err := ref.Add(int(aux[i][0]), tr); err != nil {
				t.Fatal(err)
			}
		}
		att := ref.Result()
		best, second := att.Margin()
		if math.Float64bits(res.BestCorr) != math.Float64bits(best) ||
			math.Float64bits(res.SecondCorr) != math.Float64bits(second) ||
			math.Float64bits(res.Confidence) != math.Float64bits(att.DistinguishConfidence()) {
			t.Errorf("workers=%d lanes=%d: out-of-core correlations differ from in-memory: %v/%v vs %v/%v",
				c.workers, c.lanes, res.BestCorr, res.SecondCorr, best, second)
		}
		if int(res.Recovered) != att.Ranking[0] || res.PeakSample != att.PeakSamples[att.Ranking[0]] {
			t.Errorf("workers=%d lanes=%d: ranking diverged: %#02x@%d vs %#02x@%d",
				c.workers, c.lanes, res.Recovered, res.PeakSample, att.Ranking[0], att.PeakSamples[att.Ranking[0]])
		}
		if !res.Complete || res.Traces != n {
			t.Errorf("workers=%d lanes=%d: pass not complete: %+v", c.workers, c.lanes, res.Stats)
		}
		if !res.Success() {
			t.Errorf("workers=%d lanes=%d: true key byte not rank 0 (rank %d)", c.workers, c.lanes, res.Rank)
		}

		// Scheduling invariance: every combo must produce the same store
		// bytes (content digest) and the same analysis result bytes.
		gotJSON, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if wantDigest == "" {
			wantDigest, wantJSON = s.Digest(), gotJSON
			continue
		}
		if got := s.Digest(); got != wantDigest {
			t.Errorf("workers=%d lanes=%d: store digest %.12s differs from baseline %.12s",
				c.workers, c.lanes, got, wantDigest)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("workers=%d lanes=%d: analysis result bytes differ from baseline:\n%s\n%s",
				c.workers, c.lanes, gotJSON, wantJSON)
		}
	}
}

// TestLoadedLinuxCaptureGolden pins the loaded-Linux acquisition — the
// osnoise stage on the fused path — to the bytes the emitted trace set
// had before that stage existed: 300 AES traces at 4-fold averaging,
// one worker and three workers on eight-lane groups.
func TestLoadedLinuxCaptureGolden(t *testing.T) {
	const want = "69c0dbf5975d6983d78eca1771637a44bbda3b871b09f5a4f47b4cbac24ed397"
	key, err := ParseKey("")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ workers, lanes int }{{1, 0}, {3, 8}} {
		_, _, raw := captureSet(t, 300, c.workers, c.lanes, key, osnoise.LoadedLinux(), 4)
		if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want {
			t.Errorf("workers=%d lanes=%d: trace set sha256 %s, want %s", c.workers, c.lanes, got, want)
		}
	}
}
