package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sca"
)

// order2Spec builds a class-bank spec whose traces carry a masked
// two-share signal (samples 1 and 4), with the centering means computed
// by a first engine pass over the identical per-trace streams — the
// two-pass scheme the masked-gadget workloads use.
func order2Spec(t *testing.T, traces, samples int) (Spec, Generate) {
	t.Helper()
	const nClass, nHyp = 8, 8
	table := make([][]float64, nClass)
	for p := range table {
		table[p] = make([]float64, nHyp)
		for k := range table[p] {
			table[p][k] = float64(sca.HW8(byte((p ^ k) * 113)))
		}
	}
	gen := func(i int, rng *rand.Rand, s *Sample) error {
		p := rng.Intn(nClass)
		v := byte((p ^ 5) * 113)
		m := byte(rng.Intn(256))
		tr := make([]float64, samples)
		for j := range tr {
			tr[j] = rng.NormFloat64()
		}
		tr[1] += float64(sca.HW8(m))
		tr[4] += float64(sca.HW8(v ^ m))
		s.Trace = tr
		s.Class[0] = p
		return nil
	}
	meanSpec := Spec{Traces: traces, Samples: samples, Seed: 99,
		Banks: []Bank{{Hyps: nHyp, Classes: table}}}
	mb, err := Run(Config{}, meanSpec, gen)
	if err != nil {
		t.Fatal(err)
	}
	means := mb[0].(*sca.ClassCPA).MeanTrace()
	spec := meanSpec
	spec.Banks = []Bank{{Hyps: nHyp, Classes: table, Order2: &Order2{Means: means}}}
	return spec, gen
}

// The engine's second-order bank must equal both the serial
// per-trace reference and an sca.ClassCPA2 fed the raw traces one by
// one — the same combined layout, accumulated in trace order.
func TestOrder2StreamingEqualsSerialBitForBit(t *testing.T) {
	spec, gen := order2Spec(t, 60, 6)
	want := serialReference(t, spec, gen)
	o := spec.Banks[0].Order2
	c2 := sca.MustNewClassCPA2(spec.Samples, spec.Banks[0].Classes, o.Means, 0, 0)
	s := &Sample{Hyps: make([][]float64, 1), Class: make([]int, 1)}
	for i := 0; i < spec.Traces; i++ {
		if err := gen(i, TraceRNG(spec.Seed, i), s); err != nil {
			t.Fatal(err)
		}
		if err := c2.Add(s.Class[0], s.Trace); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		for _, chunk := range []int{spec.Traces, 8, 3} {
			got, err := Run(Config{Workers: workers, ChunkSize: chunk}, spec, gen)
			if err != nil {
				t.Fatal(err)
			}
			bank := got[0].(*sca.ClassCPA)
			if !bank.Equal(want[0].(*sca.ClassCPA)) {
				t.Errorf("workers=%d chunk=%d: order-2 bank differs from serial accumulator", workers, chunk)
			}
			for k := 0; k < c2.Hypotheses(); k++ {
				for p := 0; p < c2.Pairs(); p++ {
					if math.Float64bits(bank.Corr(k, p)) != math.Float64bits(c2.Corr(k, p)) {
						t.Fatalf("workers=%d chunk=%d: corr(%d,%d) differs from ClassCPA2", workers, chunk, k, p)
					}
				}
			}
		}
	}
}

func TestOrder2RecoversMaskedKey(t *testing.T) {
	spec, gen := order2Spec(t, 3000, 6)
	banks, err := Run(Config{}, spec, gen)
	if err != nil {
		t.Fatal(err)
	}
	att := banks[0].Result()
	if att.RankOf(5) != 0 {
		best, _ := att.Best()
		t.Errorf("order-2 engine rank of true key = %d (best hyp %d)", att.RankOf(5), best)
	}
}

func TestOrder2SpecValidation(t *testing.T) {
	table := [][]float64{{0, 1}, {1, 0}}
	gen := func(i int, rng *rand.Rand, s *Sample) error {
		s.Trace = append(s.Trace[:0], 1, 2, 3, 4)
		s.Hyps[0][0], s.Hyps[0][1] = float64(i&1), float64(i>>1&1)
		return nil
	}
	window := func(ws ...sca.Window) *Order2 { return &Order2{Means: make([]float64, 4), Windows: ws} }
	cases := []struct {
		name string
		bank Bank
	}{
		{"short means", Bank{Hyps: 2, Classes: table, Order2: &Order2{Means: make([]float64, 3)}}},
		{"bad window", Bank{Hyps: 2, Classes: table, Order2: window(sca.Window{Lo: 3, Hi: 2})}},
		{"window past trace", Bank{Hyps: 2, Classes: table, Order2: window(sca.Window{Lo: 0, Hi: 5})}},
		{"negative window", Bank{Hyps: 2, Order2: window(sca.Window{Lo: 0, Hi: 2}, sca.Window{Lo: -1, Hi: 2})}},
		{"empty second window", Bank{Hyps: 2, Order2: window(sca.Window{Lo: 0, Hi: 2}, sca.Window{Lo: 2, Hi: 2})}},
	}
	for _, c := range cases {
		spec := Spec{Traces: 4, Samples: 4, Seed: 1, Banks: []Bank{c.bank}}
		if _, err := Run(Config{}, spec, gen); err == nil {
			t.Errorf("%s: invalid spec must be rejected", c.name)
		}
	}
	// A classic bank may combine, over windows or the full trace.
	for _, o := range []*Order2{window(sca.Window{Lo: 0, Hi: 2}, sca.Window{Lo: 1, Hi: 4}), window()} {
		spec := Spec{Traces: 4, Samples: 4, Seed: 1, Banks: []Bank{{Hyps: 2, Order2: o}}}
		banks, err := Run(Config{}, spec, gen)
		if err != nil {
			t.Fatalf("windows %v: %v", o.Windows, err)
		}
		if got, want := len(banks[0].CorrTrace(0)), sca.Order2Len(o.windows(4)); got != want {
			t.Errorf("windows %v: bank spans %d samples, want %d", o.Windows, got, want)
		}
	}
}
