package sca

import (
	"math"
	"math/rand"
	"testing"
)

// forceRowsPath runs f under every row-path selection, restoring the
// default afterwards.
func forceRowsPath(t *testing.T, f func(t *testing.T, path rowsPathKind)) {
	t.Helper()
	defer func() { rowsPath = rowsPathAuto }()
	for _, p := range []rowsPathKind{rowsPathIndexed, rowsPathAxpy} {
		rowsPath = p
		f(t, p)
	}
	rowsPath = rowsPathAuto
}

// smallAlphabetBatch builds a batch whose hypotheses are Hamming-weight
// shaped (9-value alphabet) — the attack workload the indexed path is
// built for.
func smallAlphabetBatch(rng *rand.Rand, nTraces, nHyp, samples int) (traces, hyps [][]float64) {
	traces = make([][]float64, nTraces)
	hyps = make([][]float64, nTraces)
	for i := range traces {
		traces[i] = make([]float64, samples)
		hyps[i] = make([]float64, nHyp)
		for s := range traces[i] {
			traces[i][s] = rng.NormFloat64() * 10
		}
		for k := range hyps[i] {
			hyps[i][k] = float64(rng.Intn(9))
		}
	}
	return traces, hyps
}

// TestAddBatchIndexedBitIdenticalToSerial pins the indexed row path to
// the serial Add reference across path forcings and batch shapes,
// including batches larger than the staging block and tiles narrower
// than the vector width.
func TestAddBatchIndexedBitIdenticalToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	shapes := []struct{ nHyp, samples, batch int }{
		{2, 1, 1},
		{9, 5, 3},
		{256, 130, 7},
		{16, 257, indexedBlock + 5},
		{256, tileCap + 9, 64},
	}
	for _, shape := range shapes {
		traces, hyps := smallAlphabetBatch(rng, shape.batch, shape.nHyp, shape.samples)
		want := MustNewCPA(shape.nHyp, shape.samples)
		for i := range traces {
			if err := want.Add(traces[i], hyps[i]); err != nil {
				t.Fatal(err)
			}
		}
		forceRowsPath(t, func(t *testing.T, path rowsPathKind) {
			got := MustNewCPA(shape.nHyp, shape.samples)
			if err := got.AddBatch(traces, hyps); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("shape %+v path %d: AddBatch diverges from serial Add", shape, path)
			}
		})
	}
}

// TestAddBatchWideAlphabetFallsBack feeds hypothesis vectors whose
// alphabet exceeds maxAlphabet (plus a NaN-bearing one): the indexed
// path must hand them to the axpy path and the result must still match
// the serial reference bit for bit.
func TestAddBatchWideAlphabetFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const nHyp, samples, batch = 96, 50, 6
	traces := make([][]float64, batch)
	hyps := make([][]float64, batch)
	for i := range traces {
		traces[i] = make([]float64, samples)
		hyps[i] = make([]float64, nHyp)
		for s := range traces[i] {
			traces[i][s] = rng.NormFloat64()
		}
		for k := range hyps[i] {
			hyps[i][k] = rng.NormFloat64() // effectively all-distinct
		}
	}
	hyps[2][5] = math.NaN()
	want := MustNewCPA(nHyp, samples)
	for i := range traces {
		if err := want.Add(traces[i], hyps[i]); err != nil {
			t.Fatal(err)
		}
	}
	forceRowsPath(t, func(t *testing.T, path rowsPathKind) {
		got := MustNewCPA(nHyp, samples)
		if err := got.AddBatch(traces, hyps); err != nil {
			t.Fatal(err)
		}
		if got.Count() != want.Count() {
			t.Fatalf("path %d: count %d, want %d", path, got.Count(), want.Count())
		}
		// NaN sums never compare equal; check bit patterns directly.
		for i := range want.sumHT {
			if math.Float64bits(got.sumHT[i]) != math.Float64bits(want.sumHT[i]) {
				t.Fatalf("path %d: sumHT[%d] %x, want %x", path, i, got.sumHT[i], want.sumHT[i])
			}
		}
	})
}

// TestKernelFallbacksBitIdentical is the CPU-feature fallback check:
// with the AVX/AVX-512 gates forced off, the portable kernels must
// reproduce the assembly kernels' output bit for bit on random inputs
// of every length and alignment. On machines without the extensions
// both sides run the portable code and the test degenerates to a
// self-check.
func TestKernelFallbacksBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	savedAVX, saved512 := hasAVX, hasAVX512
	defer func() { hasAVX, hasAVX512 = savedAVX, saved512 }()

	for n := 0; n < 100; n++ {
		x := make([]float64, n)
		d0 := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			d0[i] = rng.NormFloat64()
		}
		a := rng.NormFloat64()

		// scaleInto: vector vs forced-generic.
		hasAVX, hasAVX512 = savedAVX, saved512
		s1 := append([]float64(nil), d0...)
		scaleInto(s1, x, a)
		hasAVX, hasAVX512 = false, false
		s2 := append([]float64(nil), d0...)
		scaleInto(s2, x, a)
		for i := range s1 {
			if math.Float64bits(s1[i]) != math.Float64bits(s2[i]) {
				t.Fatalf("scaleInto n=%d i=%d: %x vs %x", n, i, s1[i], s2[i])
			}
		}

		// axpy: vector vs forced-generic.
		hasAVX, hasAVX512 = savedAVX, saved512
		a1 := append([]float64(nil), d0...)
		axpy(a1, x, a)
		hasAVX, hasAVX512 = false, false
		a2 := append([]float64(nil), d0...)
		axpy(a2, x, a)
		for i := range a1 {
			if math.Float64bits(a1[i]) != math.Float64bits(a2[i]) {
				t.Fatalf("axpy n=%d i=%d: %x vs %x", n, i, a1[i], a2[i])
			}
		}

		// sumSqInto: vector vs forced-generic.
		hasAVX, hasAVX512 = savedAVX, saved512
		t1 := append([]float64(nil), d0...)
		tt1 := append([]float64(nil), x...)
		sumSqInto(t1, tt1, x)
		hasAVX, hasAVX512 = false, false
		t2 := append([]float64(nil), d0...)
		tt2 := append([]float64(nil), x...)
		sumSqInto(t2, tt2, x)
		for i := range t1 {
			if math.Float64bits(t1[i]) != math.Float64bits(t2[i]) ||
				math.Float64bits(tt1[i]) != math.Float64bits(tt2[i]) {
				t.Fatalf("sumSqInto n=%d i=%d differs", n, i)
			}
		}

		// gaddInto: vector vs forced-generic, random offsets.
		nOffs := rng.Intn(9)
		prod := make([]float64, 4*tileCap)
		for i := range prod {
			prod[i] = rng.NormFloat64()
		}
		offs := make([]uint32, nOffs)
		w := n
		if w > tileCap {
			w = tileCap
		}
		for i := range offs {
			offs[i] = uint32(rng.Intn(3) * tileCap)
		}
		hasAVX, hasAVX512 = savedAVX, saved512
		g1 := append([]float64(nil), d0[:w]...)
		gaddInto(g1, prod, offs)
		hasAVX, hasAVX512 = false, false
		g2 := append([]float64(nil), d0[:w]...)
		gaddInto(g2, prod, offs)
		for i := range g1 {
			if math.Float64bits(g1[i]) != math.Float64bits(g2[i]) {
				t.Fatalf("gaddInto w=%d i=%d: %x vs %x", w, i, g1[i], g2[i])
			}
		}
	}

	// ClassCPA.ResultIn: the ranking kernel vs its forced Go twin, on
	// banks whose windows cover whole tiles, partial tiles and partial
	// hypothesis quads.
	for trial := 0; trial < 6; trial++ {
		c := fuzzClassBank(int64(trial), 4+trial, 30+23*trial, 7, 0)
		lo, hi := trial, 20+23*trial
		for _, signed := range []bool{false, true} {
			hasAVX, hasAVX512 = savedAVX, saved512
			want := c.ResultIn(lo, hi, signed)
			hasAVX, hasAVX512 = false, false
			if diff := sameAttack(c.ResultIn(lo, hi, signed), want); diff != "" {
				t.Fatalf("ResultIn trial %d signed=%v: forced-portable %s differs", trial, signed, diff)
			}
		}
	}
}

// TestGaddChainOrder pins the defining property of the add-only kernel
// directly: per element, contributions apply in offset order (a chain
// of rounded adds), not in any reassociated order.
func TestGaddChainOrder(t *testing.T) {
	// Three values whose sum depends on association: (big + tiny) + -big
	// != big + (tiny + -big) in float64. Variables, not constants, so
	// the reference below uses float64 arithmetic.
	big, tiny := 1e300, 1.0
	prod := make([]float64, 3*tileCap)
	for j := 0; j < tileCap; j++ {
		prod[0*tileCap+j] = big
		prod[1*tileCap+j] = tiny
		prod[2*tileCap+j] = -big
	}
	dst := make([]float64, tileCap)
	gaddInto(dst, prod, []uint32{0, tileCap, 2 * tileCap})
	want := ((0.0 + big) + tiny) + -big
	for j, v := range dst {
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("element %d: %v, want %v (chain order broken)", j, v, want)
		}
	}
}
