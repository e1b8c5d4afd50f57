package attack

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/aes"
	"repro/internal/sca"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// synthLeakySet fabricates n acquisitions leaking the Figure 3 model at
// one sample: trace i's plaintext rides in its aux record and the trace
// embeds HW(SubBytes(pt[kb]^key[kb])) plus noise.
func synthLeakySet(n, samples, keyByte int, key byte, seed int64) ([]trace.Trace, [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	traces := make([]trace.Trace, n)
	aux := make([][]byte, n)
	leakAt := samples / 2
	for i := range traces {
		pt := make([]byte, aes.BlockSize)
		rng.Read(pt)
		tr := make(trace.Trace, samples)
		for s := range tr {
			tr[s] = rng.NormFloat64()
		}
		tr[leakAt] += 2 * float64(sca.HW8(aes.SubBytesOut(pt[keyByte], key)))
		traces[i], aux[i] = tr, pt
	}
	return traces, aux
}

func buildStore(t *testing.T, traces []trace.Trace, aux [][]byte, chunk int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	w, err := tracestore.Create(dir, tracestore.Options{
		Samples: len(traces[0]), AuxLen: len(aux[0]), ChunkTraces: chunk,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range traces {
		if err := w.Append(tr, aux[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunStoreCPAMatchesInMemory(t *testing.T) {
	const keyByte, trueKey = 3, byte(0x7a)
	traces, aux := synthLeakySet(200, 40, keyByte, trueKey, 99)

	// In-memory reference: the same streaming accumulator fed one trace
	// at a time in trace order.
	ref := sca.MustNewClassCPA(40, aes.SubBytesClassTable())
	for i, tr := range traces {
		if err := ref.Add(int(aux[i][keyByte]), tr); err != nil {
			t.Fatal(err)
		}
	}
	refAtt := ref.Result()
	refBest, refSecond := refAtt.Margin()

	key := make([]byte, aes.KeySize)
	key[keyByte] = trueKey
	// Chunking is an I/O detail: every chunk size must reproduce the
	// in-memory statistics bit for bit.
	for _, chunk := range []int{1, 7, 64, 200, 1000} {
		dir := buildStore(t, traces, aux, chunk)
		s, err := tracestore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunStoreCPA(s, StoreCPAOptions{KeyByte: keyByte, Key: key})
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Complete || got.Traces != len(traces) {
			t.Fatalf("chunk %d: incomplete pass over a clean store: %+v", chunk, got.Stats)
		}
		if got.Recovered != byte(refAtt.Ranking[0]) {
			t.Fatalf("chunk %d: recovered %#x, in-memory path %#x", chunk, got.Recovered, refAtt.Ranking[0])
		}
		if math.Float64bits(got.BestCorr) != math.Float64bits(refBest) ||
			math.Float64bits(got.SecondCorr) != math.Float64bits(refSecond) {
			t.Fatalf("chunk %d: correlations not bit-identical to the in-memory path", chunk)
		}
		if got.PeakSample != refAtt.PeakSamples[refAtt.Ranking[0]] {
			t.Fatalf("chunk %d: peak sample %d, in-memory %d", chunk, got.PeakSample, refAtt.PeakSamples[refAtt.Ranking[0]])
		}
		if got.TrueKey != trueKey || got.Rank != refAtt.RankOf(int(trueKey)) {
			t.Fatalf("chunk %d: rank %d for true key %#x", chunk, got.Rank, got.TrueKey)
		}
		if got.Rank != 0 || !got.Success() {
			t.Fatalf("chunk %d: planted leak not recovered (rank %d)", chunk, got.Rank)
		}
	}
}

func TestRunStoreCPAQuarantineHonesty(t *testing.T) {
	const keyByte, trueKey = 0, byte(0xc5)
	traces, aux := synthLeakySet(120, 24, keyByte, trueKey, 5)
	dir := buildStore(t, traces, aux, 40) // 3 chunks

	// Reference over the survivors only: chunk 1 (traces 40..79) gone.
	ref := sca.MustNewClassCPA(24, aes.SubBytesClassTable())
	for i, tr := range traces {
		if i >= 40 && i < 80 {
			continue
		}
		if err := ref.Add(int(aux[i][keyByte]), tr); err != nil {
			t.Fatal(err)
		}
	}
	refBest, _ := ref.Result().Margin()

	// Flip a payload byte in the middle chunk.
	raw, err := os.ReadFile(filepath.Join(dir, tracestore.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	man, err := tracestore.ParseManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, tracestore.DataName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0x5a}, man.Chunks[1].Offset+tracestore.HeaderSize+3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err := tracestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := RunStoreCPA(s, StoreCPAOptions{KeyByte: keyByte})
	if err != nil {
		t.Fatal(err)
	}
	if got.Complete {
		t.Fatal("result over a quarantined store claims completeness")
	}
	if got.Stats.QuarantinedChunks != 1 || got.Stats.QuarantinedTraces != 40 || got.Traces != 80 {
		t.Fatalf("skip accounting wrong: %+v", got.Stats)
	}
	if math.Float64bits(got.BestCorr) != math.Float64bits(refBest) {
		t.Fatal("degraded result does not match the survivors-only reference bit for bit")
	}
	if got.Rank != -1 {
		t.Fatalf("rank %d reported without a known key", got.Rank)
	}
}

func TestRunStoreCPARejectsShortAux(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	w, err := tracestore.Create(dir, tracestore.Options{Samples: 8, AuxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(make(trace.Trace, 8), []byte{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	s, err := tracestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := RunStoreCPA(s, StoreCPAOptions{}); err == nil {
		t.Fatal("aux records shorter than a plaintext must be refused")
	}
}
