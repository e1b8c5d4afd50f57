package leakscan

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/engine"
)

// The order-2 scan obeys the same determinism contract as the first-order
// scan: batched lane-parallel runs are bit-identical to a serial scalar
// reference for any worker count, lane width and synthesis mode.
func TestOrder2ScanInvariance(t *testing.T) {
	opt := fastOptions()
	opt.Traces = 300
	opt.Order = 2
	b := Benchmarks()[1] // adds: data-dependent

	ref := opt
	ref.Workers, ref.Lanes, ref.Synth = 1, 0, engine.ModeSimulate
	want, err := RunBenchmark(&b, ref)
	if err != nil {
		t.Fatal(err)
	}
	if want.Order != 2 {
		t.Fatalf("result order = %d, want 2", want.Order)
	}

	cases := []struct {
		name    string
		workers int
		lanes   int
		synth   engine.Mode
	}{
		{"defaults", 0, 0, engine.ModeAuto},
		{"many workers", 7, 0, engine.ModeAuto},
		{"narrow lanes", 3, 2, engine.ModeAuto},
		{"replay", 4, 8, engine.ModeReplay},
	}
	for _, c := range cases {
		o := opt
		o.Workers, o.Lanes, o.Synth = c.workers, c.lanes, c.synth
		got, err := RunBenchmark(&b, o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(got.Exprs) != len(want.Exprs) {
			t.Fatalf("%s: %d expressions, want %d", c.name, len(got.Exprs), len(want.Exprs))
		}
		for i := range got.Exprs {
			g, w := got.Exprs[i], want.Exprs[i]
			if math.Float64bits(g.Peak) != math.Float64bits(w.Peak) ||
				g.PeakSample != w.PeakSample || g.PeakSample2 != w.PeakSample2 {
				t.Errorf("%s: expr %q peak %v@(%d,%d), want %v@(%d,%d)",
					c.name, g.Name, g.Peak, g.PeakSample, g.PeakSample2,
					w.Peak, w.PeakSample, w.PeakSample2)
			}
		}
	}
}

// Structural invariants of the order-2 result: every winning pair lies
// inside its expression's window with i <= j, and order-2 cells never
// count toward the Table 2 agreement figure (no ground truth).
func TestOrder2ScanShape(t *testing.T) {
	opt := fastOptions()
	opt.Traces = 200
	opt.Order = 2
	b := Benchmarks()[1]
	res, err := RunBenchmark(&b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Exprs) != len(b.Exprs) {
		t.Fatalf("%d expression results, want %d", len(res.Exprs), len(b.Exprs))
	}
	for _, e := range res.Exprs {
		if e.Scored {
			t.Errorf("expr %q: order-2 cell must be unscored", e.Name)
		}
		if e.PeakSample > e.PeakSample2 {
			t.Errorf("expr %q: pair (%d,%d) not ordered", e.Name, e.PeakSample, e.PeakSample2)
		}
		if e.PeakSample < 0 || e.PeakSample2 < 0 {
			t.Errorf("expr %q: negative pair index (%d,%d)", e.Name, e.PeakSample, e.PeakSample2)
		}
	}
	_, total := res.Agreement()
	if total != 1 {
		t.Errorf("agreement total = %d, want 1 (dual-issue column only)", total)
	}
}

// pairAt must invert the lexicographic pair expansion used by the
// combining loop.
func TestPairAtRoundTrip(t *testing.T) {
	w := window{lo: 3, hi: 9}
	k := 0
	for i := w.lo; i < w.hi; i++ {
		for j := i; j < w.hi; j++ {
			pi, pj := pairAt(w, k)
			if pi != i || pj != j {
				t.Fatalf("pairAt(%d) = (%d,%d), want (%d,%d)", k, pi, pj, i, j)
			}
			k++
		}
	}
	if pi, pj := pairAt(w, k); pi != -1 || pj != -1 {
		t.Fatalf("pairAt past the end = (%d,%d), want (-1,-1)", pi, pj)
	}
}

// Order flows through the request layer: defaulting, validation and the
// response echo, with scheduling invariance intact.
func TestLeakscanRequestOrder(t *testing.T) {
	r := Request{}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	if r.Order != 1 {
		t.Fatalf("default order = %d, want 1", r.Order)
	}
	bad := Request{Order: 3}
	if err := bad.Normalize(); err == nil {
		t.Fatal("order 3 must be rejected")
	}

	req := Request{Traces: 200, Averages: 2, Rows: []int{2}, Seed: 5, Order: 2}
	env := engine.DefaultRunEnv()
	a, err := req.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	if a.Order != 2 {
		t.Fatalf("response order = %d, want 2", a.Order)
	}
	if len(a.Rows) != 1 || len(a.Rows[0].Cells) == 0 {
		t.Fatalf("response malformed: %+v", a)
	}
	for _, c := range a.Rows[0].Cells {
		if c.Scored {
			t.Errorf("cell %s/%s: order-2 cells must be unscored", c.Column, c.Expr)
		}
	}
	env.Workers, env.Lanes = 3, 4
	b, err := req.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("order-2 responses differ across scheduling")
	}
}
