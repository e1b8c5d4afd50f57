package sca

import (
	"math"
	"math/rand"
	"testing"
)

// order2Fixture builds a random (classes, traces) workload whose traces
// carry a genuine second-order signal: two samples hold the two shares
// of a masked value, so neither correlates alone but their centered
// product does.
func order2Fixture(t *testing.T, traces, samples int, seed int64) (table [][]float64, classes []int, raws [][]float64, means []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const nClass, nHyp, key = 16, 16, 11
	table = make([][]float64, nClass)
	for p := range table {
		table[p] = make([]float64, nHyp)
		for k := range table[p] {
			table[p][k] = float64(HW8(byte((p ^ k) * 157)))
		}
	}
	classes = make([]int, traces)
	raws = make([][]float64, traces)
	sums := make([]float64, samples)
	for i := range raws {
		p := rng.Intn(nClass)
		classes[i] = p
		v := byte((p ^ key) * 157)
		m := byte(rng.Intn(256))
		tr := make([]float64, samples)
		for s := range tr {
			tr[s] = rng.NormFloat64()
		}
		tr[1] += float64(HW8(m))
		tr[3] += float64(HW8(v ^ m))
		raws[i] = tr
		for s, x := range tr {
			sums[s] += x
		}
	}
	means = make([]float64, samples)
	for s := range means {
		means[s] = sums[s] / float64(traces)
	}
	return table, classes, raws, means
}

func TestClassCPA2BatchMatchesSerial(t *testing.T) {
	table, classes, raws, means := order2Fixture(t, 300, 8, 41)
	serial := MustNewClassCPA2(8, table, means, 0, 0)
	for i, tr := range raws {
		if err := serial.Add(classes[i], tr); err != nil {
			t.Fatal(err)
		}
	}
	for _, chunk := range []int{1, 7, 64, 300} {
		batch := MustNewClassCPA2(8, table, means, 0, 0)
		for lo := 0; lo < len(raws); lo += chunk {
			hi := min(lo+chunk, len(raws))
			if err := batch.AddBatch(classes[lo:hi], raws[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		if !batch.Equal(serial) {
			t.Fatalf("chunk %d: AddBatch state differs from serial Add reference", chunk)
		}
	}
}

// The second-order correlation must match a brute-force first-order CPA
// run over the pre-combined traces: ClassCPA2 is definitionally that.
func TestClassCPA2MatchesCombinedReference(t *testing.T) {
	table, classes, raws, means := order2Fixture(t, 250, 6, 43)
	c2 := MustNewClassCPA2(6, table, means, 1, 5)
	ref := MustNewClassCPA(Window{1, 5}.Pairs(), table)
	comb := make([]float64, Window{1, 5}.Pairs())
	for i, tr := range raws {
		if err := c2.Add(classes[i], tr); err != nil {
			t.Fatal(err)
		}
		k := 0
		for a := 1; a < 5; a++ {
			for b := a; b < 5; b++ {
				comb[k] = (tr[a] - means[a]) * (tr[b] - means[b])
				k++
			}
		}
		if err := ref.Add(classes[i], comb); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < c2.Hypotheses(); k++ {
		for s := 0; s < c2.Pairs(); s++ {
			if math.Float64bits(c2.Corr(k, s)) != math.Float64bits(ref.Corr(k, s)) {
				t.Fatalf("corr(%d,%d) differs from combined-trace reference", k, s)
			}
		}
	}
}

// The masked two-share fixture must be invisible to first-order CPA but
// recovered by the second-order combiner — the defining property.
func TestClassCPA2RecoversMaskedKey(t *testing.T) {
	table, classes, raws, means := order2Fixture(t, 4000, 8, 47)
	const key = 11
	c1 := MustNewClassCPA(8, table)
	c2 := MustNewClassCPA2(8, table, means, 0, 0)
	for i, tr := range raws {
		if err := c1.Add(classes[i], tr); err != nil {
			t.Fatal(err)
		}
		if err := c2.Add(classes[i], tr); err != nil {
			t.Fatal(err)
		}
	}
	if r1 := c1.Result(); r1.RankOf(key) == 0 {
		t.Errorf("first-order CPA recovered the masked key (peak %.3f) — fixture broken", r1.Peaks[key])
	}
	r2 := c2.Result()
	if r2.RankOf(key) != 0 {
		best, _ := r2.Best()
		t.Errorf("second-order CPA rank of true key = %d (best hyp %d)", r2.RankOf(key), best)
	}
	// The peak must sit on the (share0, share1) cross product.
	_, s := c2.Peak(key)
	if i, j := c2.PairOf(s); i != 1 || j != 3 {
		t.Errorf("peak at pair (%d,%d), want (1,3)", i, j)
	}
}

func TestClassCPA2PairOfRoundTrip(t *testing.T) {
	table := [][]float64{{0, 1}, {1, 0}}
	means := make([]float64, 9)
	c := MustNewClassCPA2(9, table, means, 2, 7)
	k := 0
	for i := 2; i < 7; i++ {
		for j := i; j < 7; j++ {
			gi, gj := c.PairOf(k)
			if gi != i || gj != j {
				t.Fatalf("PairOf(%d) = (%d,%d), want (%d,%d)", k, gi, gj, i, j)
			}
			k++
		}
	}
	if k != c.Pairs() {
		t.Fatalf("pair count %d, want %d", c.Pairs(), k)
	}
	if i, j := c.PairOf(-1); i != -1 || j != -1 {
		t.Error("negative index must map to (-1,-1)")
	}
	if i, j := c.PairOf(c.Pairs()); i != -1 || j != -1 {
		t.Error("out-of-range index must map to (-1,-1)")
	}
}

func TestClassCPA2Validation(t *testing.T) {
	table := [][]float64{{0, 1}, {1, 0}}
	means := make([]float64, 4)
	if _, err := NewClassCPA2(0, table, nil, 0, 0); err == nil {
		t.Error("zero samples must be rejected")
	}
	if _, err := NewClassCPA2(4, table, means[:2], 0, 0); err == nil {
		t.Error("short centering vector must be rejected")
	}
	if _, err := NewClassCPA2(4, table, means, 3, 2); err == nil {
		t.Error("inverted window must be rejected")
	}
	if _, err := NewClassCPA2(4, table, means, 0, 5); err == nil {
		t.Error("window past the trace must be rejected")
	}
	c := MustNewClassCPA2(4, table, means, 0, 0)
	if err := c.Add(0, make([]float64, 3)); err == nil {
		t.Error("short trace must be rejected")
	}
	if err := c.Add(5, make([]float64, 4)); err == nil {
		t.Error("bad class must be rejected")
	}
	if err := c.AddBatch([]int{0}, [][]float64{{1, 2}}); err == nil {
		t.Error("short batch trace must be rejected")
	}
	if err := c.AddBatch([]int{9}, [][]float64{{1, 2, 3, 4}}); err == nil {
		t.Error("bad batch class must be rejected")
	}
	if err := c.AddBatch([]int{0, 1}, [][]float64{{1, 2, 3, 4}}); err == nil {
		t.Error("length mismatch must be rejected")
	}
	if c.Count() != 0 {
		t.Error("failed batch must not accumulate")
	}
}

func TestClassCPA2CloneResetEqual(t *testing.T) {
	table, classes, raws, means := order2Fixture(t, 60, 5, 53)
	a := MustNewClassCPA2(5, table, means, 0, 0)
	for i, tr := range raws {
		if err := a.Add(classes[i], tr); err != nil {
			t.Fatal(err)
		}
	}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone must equal original")
	}
	if err := b.Add(classes[0], raws[0]); err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) {
		t.Fatal("diverged clone must not equal original")
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("reset must clear the count")
	}
	other := MustNewClassCPA2(5, table, means, 1, 4)
	if a.Equal(other) {
		t.Fatal("different windows must not compare equal")
	}
}
