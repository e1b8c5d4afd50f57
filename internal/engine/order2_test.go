package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sca"
)

// order2Spec builds a class-bank spec whose traces carry a masked
// two-share signal (samples 1 and 4), folded by a second-order bank over
// the full trace — the shape of the masked-gadget workloads.
func order2Spec(traces, samples int) (Spec, Generate) {
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
	spec := Spec{Traces: traces, Samples: samples, Seed: 99,
		Banks: []Bank{{Hyps: nHyp, Classes: table, Order2: &Order2{}}}}
	return spec, gen
}

// The engine's second-order bank must equal both the serial
// per-trace reference and an sca.ClassCPA2 fed the raw traces one by
// one — the same combined layout, accumulated in trace order, centered
// on the trace-order mean.
func TestOrder2StreamingEqualsSerialBitForBit(t *testing.T) {
	spec, gen := order2Spec(60, 6)
	want := serialReference(t, spec, gen)
	c2 := sca.MustNewClassCPA2(spec.Samples, spec.Banks[0].Classes, traceMean(t, spec, gen), 0, 0)
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
			got, err := Run(Config{Workers: workers, chunkSize: chunk}, spec, gen)
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

// The fold spreads over the run's workers: the combine trace by trace,
// a class bank's add by column ranges. With combined traces wide enough
// to split (46 samples: 1081 columns, in four ranges, the last off the
// 8-column grid) and a classic bank beside the class bank, the fold must
// equal the per-trace reference bit for bit at every worker count.
func TestOrder2FoldSpreadEqualsSerial(t *testing.T) {
	spec, gen := order2Spec(90, 46)
	table := spec.Banks[0].Classes
	spec.Banks = append(spec.Banks, Bank{Hyps: len(table[0]), Order2: &Order2{}})
	both := func(i int, rng *rand.Rand, s *Sample) error {
		if err := gen(i, rng, s); err != nil {
			return err
		}
		copy(s.Hyps[1], table[s.Class[0]])
		return nil
	}
	want := serialReference(t, spec, both)
	for workers := 1; workers <= 4; workers++ {
		for _, chunk := range []int{0, 16} {
			got, err := Run(Config{Workers: workers, chunkSize: chunk}, spec, both)
			if err != nil {
				t.Fatal(err)
			}
			for b := range got {
				if !accEqual(got[b], want[b]) {
					t.Errorf("workers=%d chunk=%d: bank %d differs from the per-trace reference", workers, chunk, b)
				}
			}
		}
	}
}

func TestOrder2RecoversMaskedKey(t *testing.T) {
	spec, gen := order2Spec(3000, 6)
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
	var calls atomic.Int64
	gen := func(i int, rng *rand.Rand, s *Sample) error {
		calls.Add(1)
		s.Trace = append(s.Trace[:0], 1, 2, 3, 4)
		s.Hyps[0][0], s.Hyps[0][1] = float64(i&1), float64(i>>1&1)
		return nil
	}
	window := func(ws ...sca.Window) *Order2 { return &Order2{Windows: ws} }
	// The largest run whose kept 4-sample traces fit the bound.
	maxTraces := maxOrder2Bytes / (8 * 4)
	cases := []struct {
		name string
		spec Spec
	}{
		{"bad window", Spec{Traces: 4, Banks: []Bank{{Hyps: 2, Classes: table, Order2: window(sca.Window{Lo: 3, Hi: 2})}}}},
		{"window past trace", Spec{Traces: 4, Banks: []Bank{{Hyps: 2, Classes: table, Order2: window(sca.Window{Lo: 0, Hi: 5})}}}},
		{"negative window", Spec{Traces: 4, Banks: []Bank{{Hyps: 2, Order2: window(sca.Window{Lo: 0, Hi: 2}, sca.Window{Lo: -1, Hi: 2})}}}},
		{"empty second window", Spec{Traces: 4, Banks: []Bank{{Hyps: 2, Order2: window(sca.Window{Lo: 0, Hi: 2}, sca.Window{Lo: 2, Hi: 2})}}}},
		// A mid-run checkpoint would observe a bank still empty.
		{"checkpoint", Spec{Traces: 4, Checkpoints: []int{2}, Banks: []Bank{{Hyps: 2}, {Hyps: 2, Order2: window()}}}},
		{"kept traces over the bound", Spec{Traces: maxTraces + 1, Banks: []Bank{{Hyps: 2, Order2: window()}}}},
	}
	for _, c := range cases {
		c.spec.Samples, c.spec.Seed = 4, 1
		if _, err := Run(Config{}, c.spec, gen); err == nil {
			t.Errorf("%s: invalid spec must be rejected", c.name)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("rejected specs synthesized %d traces", n)
	}
	spec := Spec{Traces: maxTraces + 1, Samples: 4, Banks: []Bank{{Hyps: 2, Order2: window()}}}
	if err := spec.validate(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d MiB", maxOrder2Bytes>>20)) {
		t.Errorf("over-bound error %v does not name the bound", err)
	}
	spec.Traces = maxTraces
	if err := spec.validate(); err != nil {
		t.Errorf("a run at the bound must be accepted: %v", err)
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

// TestOrder2GeneratesEachTraceOnce pins the one-pass design: a run with
// a second-order bank beside a first-order one synthesizes every trace
// exactly once.
func TestOrder2GeneratesEachTraceOnce(t *testing.T) {
	spec, gen := order2Spec(300, 6)
	spec.Banks = append(spec.Banks, Bank{Hyps: 8, Classes: spec.Banks[0].Classes})
	var calls atomic.Int64
	counted := func(i int, rng *rand.Rand, s *Sample) error {
		calls.Add(1)
		return gen(i, rng, s)
	}
	for _, workers := range []int{1, 3} {
		calls.Store(0)
		if _, err := Run(Config{Workers: workers, chunkSize: 7}, spec, counted); err != nil {
			t.Fatal(err)
		}
		if n := calls.Load(); n != int64(spec.Traces) {
			t.Errorf("workers=%d: generator called %d times for %d traces", workers, n, spec.Traces)
		}
	}
}
