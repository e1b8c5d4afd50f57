package sca

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// refClassSums are the Pearson sums of a class bank materialized in
// full, as the reference for the fused ranking pass: Σh and Σh² per
// hypothesis, and every Σh·t row built by sample-tiled axpy4/axpy
// passes over the non-empty classes in ascending order.
type refClassSums struct {
	sumH, sumHH, sumHT []float64
}

func refDerive(c *ClassCPA) *refClassSums {
	d := &refClassSums{
		sumH:  make([]float64, c.nHyp),
		sumHH: make([]float64, c.nHyp),
		sumHT: make([]float64, c.nHyp*c.samples),
	}
	for p := 0; p < c.classes; p++ {
		if c.classN[p] == 0 {
			continue
		}
		np := float64(c.classN[p])
		for k, h := range c.table[p*c.nHyp : (p+1)*c.nHyp] {
			d.sumH[k] += np * h
			d.sumHH[k] += np * (h * h)
		}
	}
	const tile = 512
	for base := 0; base < c.samples; base += tile {
		w := min(tile, c.samples-base)
		for k := 0; k < c.nHyp; k++ {
			row := d.sumHT[k*c.samples+base : k*c.samples+base+w]
			var quad [4][]float64
			var coef [4]float64
			n := 0
			flush := func() {
				if n == 4 {
					axpy4(row, quad[0], quad[1], quad[2], quad[3], coef[0], coef[1], coef[2], coef[3])
				} else {
					for i := 0; i < n; i++ {
						axpy(row, quad[i], coef[i])
					}
				}
				n = 0
			}
			for p := 0; p < c.classes; p++ {
				if c.classN[p] == 0 {
					continue
				}
				quad[n] = c.classSum[p*c.samples+base : p*c.samples+base+w]
				coef[n] = c.table[p*c.nHyp+k]
				n++
				if n == 4 {
					flush()
				}
			}
			flush()
		}
	}
	return d
}

// refCorr is the per-(k,s) Pearson closing formula over refDerive's sums.
func refCorr(c *ClassCPA, d *refClassSums, k, s int) float64 {
	if c.count < 2 {
		return 0
	}
	n := float64(c.count)
	num := n*d.sumHT[k*c.samples+s] - d.sumH[k]*c.sumT[s]
	dh := n*d.sumHH[k] - d.sumH[k]*d.sumH[k]
	dt := n*c.sumTT[s] - c.sumT[s]*c.sumT[s]
	den := math.Sqrt(dh) * math.Sqrt(dt)
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}

// refResultIn ranks a class bank one (k,s) correlation at a time: the
// clamped window, a first-sample-seeded peak search per hypothesis, and
// a stable insertion sort.
func refResultIn(c *ClassCPA, lo, hi int, signed bool) *Attack {
	d := refDerive(c)
	if lo < 0 {
		lo = 0
	}
	if hi <= lo || hi > c.samples {
		hi = c.samples
	}
	a := &Attack{
		Peaks:       make([]float64, c.nHyp),
		PeakSamples: make([]int, c.nHyp),
		Ranking:     make([]int, c.nHyp),
		Traces:      c.count,
	}
	key := func(r float64) float64 {
		if signed {
			return r
		}
		return math.Abs(r)
	}
	for k := 0; k < c.nHyp; k++ {
		best, idx, have := 0.0, lo, false
		for s := lo; s < hi; s++ {
			r := refCorr(c, d, k, s)
			if !have || key(r) > key(best) {
				best, idx, have = r, s, true
			}
		}
		a.Peaks[k], a.PeakSamples[k], a.Ranking[k] = best, idx, k
	}
	for i := 1; i < len(a.Ranking); i++ {
		for j := i; j > 0 && key(a.Peaks[a.Ranking[j]]) > key(a.Peaks[a.Ranking[j-1]]); j-- {
			a.Ranking[j-1], a.Ranking[j] = a.Ranking[j], a.Ranking[j-1]
		}
	}
	return a
}

// sameAttack reports the first bitwise difference between two attack
// summaries, or "" when peaks, peak samples and ranking all agree.
func sameAttack(got, want *Attack) string {
	if got.Traces != want.Traces {
		return "traces"
	}
	for k := range want.Peaks {
		if math.Float64bits(got.Peaks[k]) != math.Float64bits(want.Peaks[k]) {
			return "peak value"
		}
		if got.PeakSamples[k] != want.PeakSamples[k] {
			return "peak sample"
		}
		if got.Ranking[k] != want.Ranking[k] {
			return "ranking"
		}
	}
	return ""
}

// fuzzClassBank builds a class bank from fuzz parameters. shape's bits
// select the awkward cases: quantized table columns and traces (ties),
// constant samples (zero denominators), and a single trace (count < 2).
// Classes the traces never hit stay empty.
func fuzzClassBank(seed int64, nHyp, samples, classes int, shape uint8) *ClassCPA {
	rng := rand.New(rand.NewSource(seed))
	table := make([][]float64, classes)
	for p := range table {
		table[p] = make([]float64, nHyp)
		for k := range table[p] {
			if shape&1 != 0 {
				table[p][k] = float64((p ^ k) % 3) // repeated columns: tied peaks
			} else {
				table[p][k] = rng.NormFloat64()
			}
		}
	}
	c := MustNewClassCPA(samples, table)
	traces := 2 + rng.Intn(40)
	if shape&4 != 0 {
		traces = 1
	}
	for i := 0; i < traces; i++ {
		p := rng.Intn(classes)
		if classes > 2 && p == classes/2 {
			p = 0 // keep the middle class empty
		}
		tr := make([]float64, samples)
		for s := range tr {
			switch {
			case shape&2 != 0 && s%3 == 0:
				tr[s] = 1.5 // constant sample
			case shape&1 != 0:
				tr[s] = float64(rng.Intn(3))
			default:
				tr[s] = rng.NormFloat64() + table[p][0]
			}
		}
		if err := c.Add(p, tr); err != nil {
			panic(err)
		}
	}
	return c
}

// fanOut returns a fan-out of the shape the engine hands ResultInEach
// and AddBatchEach: f(0) … f(n-1) on width goroutines, the caller's
// among them, each taking the next index as it frees up.
func fanOut(width int) func(n int, f func(i int)) {
	return func(n int, f func(i int)) {
		var next atomic.Int64
		loop := func() {
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}
		var wg sync.WaitGroup
		for range width - 1 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				loop()
			}()
		}
		loop()
		wg.Wait()
	}
}

// FuzzClassResultIn pins the fused ranking pass to the one-(k,s)-at-a-
// time reference bit for bit — peaks, peak samples and ranking — over
// hypothesis counts off the quad grid, windows shorter than a tile,
// out-of-range and clamped bounds, empty classes, single-trace banks,
// constant samples and tied peaks, with the hypothesis quads spread over
// a fan-out of width 1–5. PeakIn, Corr and CorrTrace, which compute one
// hypothesis row on demand, must agree with it too.
func FuzzClassResultIn(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(70), uint8(5), int16(3), int16(60), false, uint8(0), uint8(0))
	f.Add(int64(2), uint8(8), uint8(100), uint8(9), int16(-4), int16(0), true, uint8(1), uint8(1))
	f.Add(int64(3), uint8(2), uint8(1), uint8(1), int16(0), int16(1), false, uint8(2), uint8(2))
	f.Add(int64(4), uint8(13), uint8(33), uint8(4), int16(40), int16(20), true, uint8(4), uint8(3))
	f.Add(int64(5), uint8(4), uint8(64), uint8(6), int16(31), int16(200), false, uint8(3), uint8(4))
	f.Add(int64(6), uint8(15), uint8(20), uint8(7), int16(2), int16(19), true, uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nHyp, samples, classes uint8, lo, hi int16, signed bool, shape, fan uint8) {
		nh := 2 + int(nHyp)%17
		ns := 1 + int(samples)%100
		nc := 1 + int(classes)%12
		width := 1 + int(fan)%5
		c := fuzzClassBank(seed, nh, ns, nc, shape)
		want := refResultIn(c, int(lo), int(hi), signed)
		if diff := sameAttack(c.ResultIn(int(lo), int(hi), signed), want); diff != "" {
			t.Fatalf("ResultIn(%d,%d,%v) nHyp=%d samples=%d: %s differs from the reference", lo, hi, signed, nh, ns, diff)
		}
		if diff := sameAttack(c.ResultInEach(int(lo), int(hi), signed, fanOut(width)), want); diff != "" {
			t.Fatalf("ResultInEach(%d,%d,%v) width %d nHyp=%d samples=%d: %s differs from the reference", lo, hi, signed, width, nh, ns, diff)
		}
		d := refDerive(c)
		for k := 0; k < nh; k++ {
			r, s := c.PeakIn(k, int(lo), int(hi), signed)
			if math.Float64bits(r) != math.Float64bits(want.Peaks[k]) || s != want.PeakSamples[k] {
				t.Fatalf("PeakIn(%d) = (%v,%d), want (%v,%d)", k, r, s, want.Peaks[k], want.PeakSamples[k])
			}
			curve := c.CorrTrace(k)
			for s := 0; s < ns; s++ {
				w := refCorr(c, d, k, s)
				if math.Float64bits(c.Corr(k, s)) != math.Float64bits(w) || math.Float64bits(curve[s]) != math.Float64bits(w) {
					t.Fatalf("Corr(%d,%d) differs from the reference", k, s)
				}
			}
		}
	})
}

// TestAddBatchEachEqualsAddBatch pins the column-split class add: at
// every fan-out width, over sample counts below, on and off the split's
// 8-column grid, the state equals AddBatch's bit for bit.
func TestAddBatchEachEqualsAddBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	table := [][]float64{{0, 1, 2}, {2, 1, 0}, {1, 1, 0}}
	for _, samples := range []int{7, 300, 512, 520, 1081, 4099} {
		traces := make([][]float64, 37)
		classes := make([]int, len(traces))
		for i := range traces {
			traces[i] = make([]float64, samples)
			for s := range traces[i] {
				traces[i][s] = tileValue(rng)
			}
			classes[i] = rng.Intn(len(table))
		}
		want := MustNewClassCPA(samples, table)
		for lo := 0; lo < len(traces); lo += 10 {
			hi := min(lo+10, len(traces))
			if err := want.AddBatch(classes[lo:hi], traces[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		for width := 1; width <= 5; width++ {
			got := MustNewClassCPA(samples, table)
			for lo := 0; lo < len(traces); lo += 10 {
				hi := min(lo+10, len(traces))
				if err := got.AddBatchEach(classes[lo:hi], traces[lo:hi], fanOut(width)); err != nil {
					t.Fatal(err)
				}
			}
			if !got.Equal(want) {
				t.Errorf("samples=%d width=%d: AddBatchEach state differs from AddBatch", samples, width)
			}
		}
	}
}

// tileValue draws the kernel-pin inputs: ordinary values, ±0,
// subnormals and magnitudes large enough that products overflow.
func tileValue(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return float64(rng.Intn(1000)-500) * math.SmallestNonzeroFloat64
	case 3:
		return rng.NormFloat64() * 1e200
	case 4:
		return rng.NormFloat64() * 1e-160
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
}

// rootValue draws a square-rooted denominator half: ordinary, zero,
// NaN (the root of a negative rounding residue), subnormal or huge.
func rootValue(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.Sqrt(-1)
	case 2:
		return float64(rng.Intn(100)+1) * math.SmallestNonzeroFloat64
	case 3:
		return rng.Float64() * 1e200
	}
	return rng.Float64() * 100
}

// TestClassTileMatchesGeneric pins the ranking kernel to its Go twin on
// random tiles and closing terms, bit for bit, at class counts 0, 1 and
// 255 and beyond, over full and partial tiles; on machines without
// AVX-512 both sides run the twin.
func TestClassTileMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(4452))
	for _, nc := range []int{0, 1, 2, 3, 17, 255, 256} {
		for trial := 0; trial < 4; trial++ {
			const nHyp = 9 // off the quad grid: quads straddle class rows
			table := make([]float64, 300*nHyp)
			for i := range table {
				table[i] = tileValue(rng)
			}
			offs := make([]int, nc)
			for i := range offs {
				offs[i] = rng.Intn(300) * nHyp
			}
			tile := make([]float64, nc*rankTile)
			for i := range tile {
				tile[i] = tileValue(rng)
			}
			terms := &tileTerms{
				n:     float64(2 + rng.Intn(5000)),
				sumH:  make([]float64, nHyp),
				rootH: make([]float64, nHyp),
				sumT:  make([]float64, rankTile),
				rootT: make([]float64, rankTile),
			}
			for k := range terms.sumH {
				terms.sumH[k], terms.rootH[k] = tileValue(rng), rootValue(rng)
			}
			for s := range terms.sumT {
				terms.sumT[s], terms.rootT[s] = tileValue(rng), rootValue(rng)
			}
			k0 := rng.Intn(nHyp - 3)
			w := rankTile
			if trial == 3 {
				w = 1 + rng.Intn(rankTile-1)
			}
			got := make([]float64, 4*rankTile)
			want := make([]float64, 4*rankTile)
			classTile(got, tile, table, offs, k0, 4, w, terms)
			classTileGeneric(want, tile, table, offs, k0, 4, w, terms)
			for j := 0; j < 4; j++ {
				for s := 0; s < w; s++ {
					g, e := got[j*rankTile+s], want[j*rankTile+s]
					if math.Float64bits(g) != math.Float64bits(e) {
						t.Fatalf("nc=%d k0=%d w=%d hypothesis %d sample %d: %x vs %x",
							nc, k0, w, j, s, math.Float64bits(g), math.Float64bits(e))
					}
				}
			}
		}
	}
}

// BenchmarkClassResultIn ranks a bank of the two-round AES attack's
// shape: 256 classes × 256 hypotheses × 4452 samples.
func BenchmarkClassResultIn(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const samples = 4452
	c := MustNewClassCPA(samples, hwTable())
	tr := make([]float64, samples)
	for i := 0; i < 512; i++ {
		for s := range tr {
			tr[s] = rng.NormFloat64()
		}
		if err := c.Add(i%256, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Result()
	}
}
