package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sca"
)

func TestRunCancellation(t *testing.T) {
	// Cancel mid-run: the run must abort with the context's error within
	// a bounded number of chunks and return no accumulators.
	ctx, cancel := context.WithCancel(context.Background())
	var generated atomic.Int64
	spec := Spec{Traces: 400, Samples: 4, Banks: HypothesisBanks(4), Seed: 1}
	gen := func(i int, rng *rand.Rand, s *Sample) error {
		if generated.Add(1) == 20 {
			cancel()
		}
		s.Trace = make([]float64, 4)
		for k := range s.Hyps[0] {
			s.Hyps[0][k] = rng.Float64()
		}
		return nil
	}
	banks, err := Run(Config{Workers: 2, chunkSize: 8, Ctx: ctx}, spec, gen)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if banks != nil {
		t.Fatal("canceled run must not return accumulators")
	}
	if n := generated.Load(); n >= int64(spec.Traces) {
		t.Fatalf("all %d traces synthesized despite cancellation", n)
	}
}

func TestRunPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := Spec{Traces: 16, Samples: 2, Banks: HypothesisBanks(2), Seed: 1}
	called := false
	gen := func(i int, rng *rand.Rand, s *Sample) error {
		called = true
		s.Trace = make([]float64, 2)
		return nil
	}
	if _, err := Run(Config{Workers: 1, Ctx: ctx}, spec, gen); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if called {
		t.Fatal("generator ran under a pre-canceled context")
	}
}

func TestGateBoundsConcurrencyAcrossRuns(t *testing.T) {
	// Two concurrent runs sharing a width-1 gate: across both, at most
	// one chunk may synthesize at a time.
	gate := NewGate(1)
	if gate.Width() != 1 {
		t.Fatalf("gate width %d, want 1", gate.Width())
	}
	var inFlight, peak atomic.Int64
	gen := func(i int, rng *rand.Rand, s *Sample) error {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		s.Trace = make([]float64, 3)
		for k := range s.Hyps[0] {
			s.Hyps[0][k] = rng.Float64()
		}
		inFlight.Add(-1)
		return nil
	}
	spec := Spec{Traces: 64, Samples: 3, Banks: HypothesisBanks(4), Seed: 2}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := range errs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, errs[r] = Run(Config{Workers: 4, chunkSize: 4, Gate: gate}, spec, gen)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", r, err)
		}
	}
	if p := peak.Load(); p > 1 {
		t.Fatalf("peak concurrent syntheses %d under a width-1 gate", p)
	}
}

func TestGateDoesNotChangeResults(t *testing.T) {
	spec := Spec{Traces: 50, Samples: 8, Banks: HypothesisBanks(16), Seed: 4}
	gen := noisyGen(spec.Banks, spec.Samples)
	want, err := Run(Config{Workers: 2, chunkSize: 8}, spec, gen)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(Config{Workers: 4, chunkSize: 8, Gate: NewGate(2), Ctx: context.Background()}, spec, gen)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].(*sca.CPA).Equal(want[0].(*sca.CPA)) {
		t.Fatal("gated run differs from ungated run")
	}
}

func TestNilGateAdmitsEverything(t *testing.T) {
	var g *Gate
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	g.release()
	if g.Width() != 0 {
		t.Fatal("nil gate must report width 0")
	}
}
