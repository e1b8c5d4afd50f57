package sca

import (
	"math/rand"
	"testing"
)

// classBanksFixture draws a group's tables and a (class, trace)
// sequence: bank b has 1–256 classes and 2–5 hypotheses, and the
// traces mix ordinary values with ±0, subnormals and overflowing
// magnitudes (tileValue).
func classBanksFixture(seed int64, nBanks, samples, traces int) (tables [][][]float64, classes [][]int, rows [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	tables = make([][][]float64, nBanks)
	classes = make([][]int, nBanks)
	for b := range tables {
		nc, nh := 1+rng.Intn(256), 2+rng.Intn(4)
		if b%5 == 1 {
			nc = 256
		}
		tables[b] = make([][]float64, nc)
		for p := range tables[b] {
			tables[b][p] = make([]float64, nh)
			for k := range tables[b][p] {
				tables[b][p][k] = float64(rng.Intn(9))
			}
		}
		classes[b] = make([]int, traces)
		for i := range classes[b] {
			classes[b][i] = rng.Intn(nc)
		}
	}
	rows = make([][]float64, traces)
	for i := range rows {
		rows[i] = make([]float64, samples)
		for s := range rows[i] {
			rows[i][s] = tileValue(rng)
		}
	}
	return tables, classes, rows
}

// soloBanks feeds every table's bank alone, in one AddBatch.
func soloBanks(t *testing.T, samples int, tables [][][]float64, classes [][]int, rows [][]float64) []*ClassCPA {
	t.Helper()
	out := make([]*ClassCPA, len(tables))
	for b, table := range tables {
		out[b] = MustNewClassCPA(samples, table)
		if err := out[b].AddBatch(classes[b], rows); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// addGroupSplit feeds a group through AddClassBanks, the batch cut after
// each length cuts names in turn (1–16 traces).
func addGroupSplit(t *testing.T, banks []*ClassCPA, classes [][]int, rows [][]float64, cuts []byte) {
	t.Helper()
	part := make([][]int, len(banks))
	for lo, i := 0, 0; lo < len(rows); i++ {
		n := 16
		if len(cuts) > 0 {
			n = 1 + int(cuts[i%len(cuts)])%16
		}
		hi := min(lo+n, len(rows))
		for b := range banks {
			part[b] = classes[b][lo:hi]
		}
		if err := AddClassBanks(banks, part, rows[lo:hi]); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
}

// FuzzAddClassBanks pins the shared-moment group to banks of their own:
// over 1–17 banks of 1–256 classes, 1–100 samples (below the vector
// width and off its grid) and batches cut at fuzzed points, on the
// vector and the portable kernels, every bank of the group equals a
// NewClassCPA bank fed the same (class, trace) sequence through
// AddBatch, and ranks identically.
func FuzzAddClassBanks(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(1), []byte{0})
	f.Add(int64(2), uint8(15), uint8(99), uint8(60), []byte{3, 15, 0})
	f.Add(int64(3), uint8(16), uint8(6), uint8(33), []byte{7})
	f.Add(int64(4), uint8(2), uint8(8), uint8(17), []byte{})
	f.Add(int64(5), uint8(7), uint8(41), uint8(2), []byte{1, 1})
	f.Fuzz(func(t *testing.T, seed int64, nBanks, samples, traces uint8, cuts []byte) {
		nb, ns, nt := 1+int(nBanks)%17, 1+int(samples)%100, 1+int(traces)%64
		tables, classes, rows := classBanksFixture(seed, nb, ns, nt)
		saved := hasAVX512
		defer func() { hasAVX512 = saved }()
		hasAVX512 = false
		want := soloBanks(t, ns, tables, classes, rows)
		for _, vec := range []bool{true, false} {
			hasAVX512 = vec && saved
			banks, err := NewClassBanks(ns, tables...)
			if err != nil {
				t.Fatal(err)
			}
			addGroupSplit(t, banks, classes, rows, cuts)
			for b, c := range banks {
				if !c.Equal(want[b]) {
					t.Fatalf("vector=%v banks=%d samples=%d: bank %d differs from a bank of its own", vec, nb, ns, b)
				}
				if diff := sameAttack(c.ResultIn(0, ns, false), want[b].ResultIn(0, ns, false)); diff != "" {
					t.Fatalf("vector=%v: bank %d ranks differently: %s", vec, b, diff)
				}
			}
		}
	})
}

// TestClassBanksGuards pins the rules that keep a group's moments
// consistent with every bank's class sums: no bank of a group adds on
// its own, only the whole group in construction order adds, a Clone
// owns its moments, and a Reset bank leaves the group without touching
// its former siblings.
func TestClassBanksGuards(t *testing.T) {
	const samples = 13
	tables, classes, rows := classBanksFixture(9, 3, samples, 40)
	banks, err := NewClassBanks(samples, tables...)
	if err != nil {
		t.Fatal(err)
	}
	head := [][]int{classes[0][:20], classes[1][:20], classes[2][:20]}
	if err := AddClassBanks(banks, head, rows[:20]); err != nil {
		t.Fatal(err)
	}
	before := []*ClassCPA{banks[0].Clone(), banks[1].Clone(), banks[2].Clone()}
	unchanged := func(what string, idx ...int) {
		t.Helper()
		for _, b := range idx {
			if !banks[b].Equal(before[b]) {
				t.Fatalf("%s moved bank %d", what, b)
			}
		}
	}

	if err := banks[1].AddBatch(classes[1][20:21], rows[20:21]); err == nil {
		t.Error("AddBatch on a shared bank accepted")
	}
	if err := banks[1].Add(classes[1][20], rows[20]); err == nil {
		t.Error("Add on a shared bank accepted")
	}
	if err := banks[1].AddBatchEach(classes[1][20:21], rows[20:21], fanOut(2)); err == nil {
		t.Error("AddBatchEach on a shared bank accepted")
	}
	one := [][]int{classes[0][20:21], classes[1][20:21], classes[2][20:21]}
	if err := AddClassBanks(banks[:2], one[:2], rows[20:21]); err == nil {
		t.Error("part of a group accepted")
	}
	if err := AddClassBanks([]*ClassCPA{banks[1], banks[0], banks[2]}, one, rows[20:21]); err == nil {
		t.Error("a group out of construction order accepted")
	}
	bad := [][]int{classes[0][20:21], {len(tables[1])}, classes[2][20:21]}
	if err := AddClassBanks(banks, bad, rows[20:21]); err == nil {
		t.Error("out-of-range class accepted")
	}
	unchanged("refused adds", 0, 1, 2)

	// A clone changed after the fact leaves the group as it was.
	d := banks[1].Clone()
	if err := d.AddBatch(classes[1][20:], rows[20:]); err != nil {
		t.Fatal(err)
	}
	d.Reset()
	unchanged("a changed clone", 0, 1, 2)

	// A Reset bank leaves the group: its former siblings keep their
	// moments and still add as a group; it adds on its own.
	banks[1].Reset()
	unchanged("a Reset", 0, 2)
	if err := banks[1].AddBatch(classes[1][20:], rows[20:]); err != nil {
		t.Fatal(err)
	}
	unchanged("the Reset bank's add", 0, 2)
	rest := []*ClassCPA{banks[0], banks[2]}
	if err := AddClassBanks(rest, [][]int{classes[0][20:], classes[2][20:]}, rows[20:]); err != nil {
		t.Fatal(err)
	}
	want := soloBanks(t, samples, tables, classes, rows)
	for _, b := range []int{0, 2} {
		if !banks[b].Equal(want[b]) {
			t.Errorf("bank %d differs from a bank of its own after a sibling's Reset", b)
		}
	}
	tail := MustNewClassCPA(samples, tables[1])
	if err := tail.AddBatch(classes[1][20:], rows[20:]); err != nil {
		t.Fatal(err)
	}
	if !banks[1].Equal(tail) {
		t.Error("the Reset bank differs from a fresh bank fed the traces after its Reset")
	}
}
