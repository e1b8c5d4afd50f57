package sca

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHWHD8(t *testing.T) {
	if HW8(0xFF) != 8 || HW8(0) != 0 || HW8(0x0F) != 4 {
		t.Error("HW8 broken")
	}
	if HD8(0xFF, 0x0F) != 4 || HD8(7, 7) != 0 {
		t.Error("HD8 broken")
	}
	if HW(0xFFFFFFFF) != 32 || HD(1, 2) != 2 {
		t.Error("HW/HD broken")
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("r = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(x, neg)
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("r = %v, want -1", r)
	}
}

func TestPearsonUncorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 10000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.05 {
		t.Errorf("independent samples correlate at %v", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("single point must error")
	}
	// Constant input has zero variance: r = 0, no error.
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil || r != 0 {
		t.Errorf("constant input: r=%v err=%v", r, err)
	}
}

// Property: Pearson is symmetric and invariant under affine maps with
// positive scale.
func TestPearsonInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = 0.5*x[i] + rng.NormFloat64()
		}
		r1, _ := Pearson(x, y)
		r2, _ := Pearson(y, x)
		x2 := make([]float64, n)
		for i := range x {
			x2[i] = 3*x[i] + 11
		}
		r3, _ := Pearson(x2, y)
		return math.Abs(r1-r2) < 1e-9 && math.Abs(r1-r3) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFisherZ(t *testing.T) {
	if FisherZ(0) != 0 {
		t.Error("FisherZ(0) must be 0")
	}
	if !math.IsInf(FisherZ(1), 1) || !math.IsInf(FisherZ(-1), -1) {
		t.Error("FisherZ must saturate at ±1")
	}
	if math.Abs(FisherZ(0.5)-0.5493061443) > 1e-9 {
		t.Errorf("FisherZ(0.5) = %v", FisherZ(0.5))
	}
}

func TestCorrConfidenceGrowsWithNAndR(t *testing.T) {
	if CorrConfidence(0.1, 100) >= CorrConfidence(0.1, 10000) {
		t.Error("confidence must grow with trace count")
	}
	if CorrConfidence(0.05, 1000) >= CorrConfidence(0.5, 1000) {
		t.Error("confidence must grow with correlation")
	}
	if CorrConfidence(0.9, 3) != 0 {
		t.Error("n <= 3 must yield zero confidence")
	}
}

func TestSignificantAtPaperCriterion(t *testing.T) {
	// |r| = 0.05 over 100k traces is overwhelmingly significant; the same
	// r over 100 traces is not. This is the >99.5% criterion of §4.
	if !SignificantAt(0.05, 100000, 0.995) {
		t.Error("r=0.05 over 100k traces must pass 99.5%")
	}
	if SignificantAt(0.05, 100, 0.995) {
		t.Error("r=0.05 over 100 traces must not pass 99.5%")
	}
}

func TestCorrDifferenceConfidence(t *testing.T) {
	if CorrDifferenceConfidence(0.5, 0.1, 1000) < 0.99 {
		t.Error("widely separated correlations must be distinguishable")
	}
	if CorrDifferenceConfidence(0.30, 0.29, 100) > 0.5 {
		t.Error("near-equal correlations over few traces must not distinguish")
	}
	if CorrDifferenceConfidence(0.5, 0.1, 3) != 0 {
		t.Error("n <= 3 must yield zero")
	}
}

func TestWelchTDetectsMeanShift(t *testing.T) {
	w := NewWelch(2)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		a := []float64{rng.NormFloat64(), rng.NormFloat64()}
		b := []float64{rng.NormFloat64() + 1, rng.NormFloat64()}
		if err := w.Add(0, a); err != nil {
			t.Fatal(err)
		}
		if err := w.Add(1, b); err != nil {
			t.Fatal(err)
		}
	}
	ts := w.T()
	if math.Abs(ts[0]) < 4.5 {
		t.Errorf("t[0] = %v, want |t| > 4.5 (TVLA threshold)", ts[0])
	}
	if math.Abs(ts[1]) > 4.5 {
		t.Errorf("t[1] = %v, want below threshold", ts[1])
	}
}

func TestWelchAddErrors(t *testing.T) {
	w := NewWelch(2)
	if err := w.Add(2, []float64{1, 2}); err == nil {
		t.Error("bad group must error")
	}
	if err := w.Add(0, []float64{1}); err == nil {
		t.Error("bad length must error")
	}
}

func TestMaxAbs(t *testing.T) {
	v, i := MaxAbs([]float64{0.1, -0.9, 0.5})
	if v != 0.9 || i != 1 {
		t.Errorf("MaxAbs = %v @ %d", v, i)
	}
	if _, i := MaxAbs(nil); i != -1 {
		t.Error("empty MaxAbs must return -1")
	}
}

func TestCPARecoversLinearLeakage(t *testing.T) {
	// Synthetic experiment: traces leak HW(S[value ^ key]) at sample 3;
	// CPA over 16 hypotheses must rank the true key first. The nonlinear
	// S-box breaks the HW(x) = 4 - HW(x ^ 0xF) anti-symmetry that would
	// otherwise make key k and k^0xF indistinguishable by |r|.
	sbox := [16]uint8{0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2}
	const trueKey = 11
	const nHyp = 16
	const samples = 8
	rng := rand.New(rand.NewSource(1234))
	cpa := MustNewCPA(nHyp, samples)
	for i := 0; i < 3000; i++ {
		d := uint8(rng.Intn(16))
		tr := make([]float64, samples)
		for s := range tr {
			tr[s] = rng.NormFloat64()
		}
		tr[3] += float64(HW8(sbox[(d^trueKey)&0xF]))
		hyp := make([]float64, nHyp)
		for k := range hyp {
			hyp[k] = float64(HW8(sbox[(d^uint8(k))&0xF]))
		}
		if err := cpa.Add(tr, hyp); err != nil {
			t.Fatal(err)
		}
	}
	a := cpa.Result()
	best, corr := a.Best()
	if best != trueKey {
		t.Fatalf("recovered key %d, want %d (corr %v)", best, trueKey, corr)
	}
	if _, s := cpa.Peak(trueKey); s != 3 {
		t.Errorf("peak at sample %d, want 3", s)
	}
	if a.RankOf(trueKey) != 0 {
		t.Error("true key must rank first")
	}
	if a.DistinguishConfidence() < 0.99 {
		t.Errorf("distinguish confidence %v, want > 0.99", a.DistinguishConfidence())
	}
}

func TestCPARejectsWrongDimensions(t *testing.T) {
	cpa := MustNewCPA(4, 2)
	if err := cpa.Add([]float64{1}, []float64{1, 2, 3, 4}); err == nil {
		t.Error("short trace must error")
	}
	if err := cpa.Add([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("short hypothesis vector must error")
	}
	if _, err := NewCPA(1, 4); err == nil {
		t.Error("single hypothesis must error")
	}
	if _, err := NewCPA(4, 0); err == nil {
		t.Error("zero samples must error")
	}
}

func TestCPACorrTraceMatchesPearson(t *testing.T) {
	// The incremental computation must agree with a direct Pearson.
	rng := rand.New(rand.NewSource(5))
	const n = 500
	cpa := MustNewCPA(2, 1)
	var xs, ys []float64
	for i := 0; i < n; i++ {
		h := float64(rng.Intn(9))
		v := 2*h + rng.NormFloat64()
		xs = append(xs, h)
		ys = append(ys, v)
		if err := cpa.Add([]float64{v}, []float64{h, -h}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if got := cpa.Corr(0, 0); math.Abs(got-want) > 1e-9 {
		t.Errorf("incremental r = %v, direct r = %v", got, want)
	}
	if got := cpa.Corr(1, 0); math.Abs(got+want) > 1e-9 {
		t.Errorf("negated hypothesis r = %v, want %v", got, -want)
	}
}

func TestCPAZeroVariance(t *testing.T) {
	cpa := MustNewCPA(2, 1)
	for i := 0; i < 10; i++ {
		if err := cpa.Add([]float64{5}, []float64{1, float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := cpa.Corr(0, 0); got != 0 {
		t.Errorf("constant data must yield r = 0, got %v", got)
	}
}

func TestAttackMarginOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cpa := MustNewCPA(3, 1)
	for i := 0; i < 400; i++ {
		h := float64(rng.Intn(5))
		v := h + 0.1*rng.NormFloat64()
		if err := cpa.Add([]float64{v}, []float64{h, -h, rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	a := cpa.Result()
	best, second := a.Margin()
	if best < second {
		t.Errorf("margin ordering broken: %v < %v", best, second)
	}
	// Hypotheses 0 and 1 (perfectly ±correlated) must outrank hypothesis 2.
	if a.RankOf(2) != 2 {
		t.Errorf("noise hypothesis ranked %d, want 2", a.RankOf(2))
	}
}

func TestCPACloneAndReset(t *testing.T) {
	c := MustNewCPA(2, 2)
	if err := c.Add([]float64{1, 2}, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	d := c.Clone()
	if !d.Equal(c) {
		t.Fatal("clone differs")
	}
	c.Reset()
	if c.Count() != 0 || d.Equal(c) {
		t.Fatal("reset did not clear the accumulator")
	}
	if !d.Equal(d.Clone()) {
		t.Fatal("clone of clone differs")
	}
}
