package leakscan

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/sca"
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

// sca.Order2Pair must invert the combined layout of the order-2 scan:
// one window, and two windows laid out in order.
func TestPairAtRoundTrip(t *testing.T) {
	for _, windows := range [][]sca.Window{
		{{Lo: 3, Hi: 9}},
		{{Lo: 3, Hi: 9}, {Lo: 5, Hi: 7}},
	} {
		k := 0
		for _, w := range windows {
			for i := w.Lo; i < w.Hi; i++ {
				for j := i; j < w.Hi; j++ {
					pi, pj := sca.Order2Pair(windows, k)
					if pi != i || pj != j {
						t.Fatalf("%v: Order2Pair(%d) = (%d,%d), want (%d,%d)", windows, k, pi, pj, i, j)
					}
					k++
				}
			}
		}
		if k != sca.Order2Len(windows) {
			t.Fatalf("%v: %d pairs, Order2Len says %d", windows, k, sca.Order2Len(windows))
		}
		for _, s := range []int{k, -1} {
			if pi, pj := sca.Order2Pair(windows, s); pi != -1 || pj != -1 {
				t.Fatalf("%v: Order2Pair(%d) = (%d,%d), want (-1,-1)", windows, s, pi, pj)
			}
		}
	}
}

// TestOrder2ScanGolden pins the order-2 scan of row 2 at 300 traces to
// values recorded before the scan moved onto the engine's Order2 bank:
// each expression's peak bits and winning pair.
func TestOrder2ScanGolden(t *testing.T) {
	opt := fastOptions()
	opt.Traces = 300
	opt.Order = 2
	b := Benchmarks()[1]
	res, err := RunBenchmark(&b, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name string
		peak uint64
		i, j int
	}{
		{"rB", 0x3fb2887d858e9a1c, 49, 51},
		{"rE", 0x3fb388aa0b500d71, 55, 55},
		{"rB^rE", 0x3fb369f11739706b, 58, 58},
		{"rC^rF", 0x3fb40f8a842b4704, 58, 58},
		{"rB^rF", 0xbfb70d31025363c1, 57, 57},
		{"rC^rE", 0xbf80df6fd18692a6, 57, 57},
		{"rB", 0x3fb5600774ef8932, 55, 55},
		{"rF", 0xbfbf7b37fc4a4750, 62, 63},
		{"rA", 0x3f9b34eaf0939004, 52, 52},
		{"rD", 0xbf91d37ad6584105, 56, 56},
		{"rA^rD", 0x3fa47a797d968299, 60, 60},
		{"rA†", 0x3fb3634ff13caad9, 58, 58},
		{"rD†", 0x3fc1eb678ce13b31, 66, 69},
	}
	if len(res.Exprs) != len(want) {
		t.Fatalf("%d expressions, want %d", len(res.Exprs), len(want))
	}
	for k, w := range want {
		g := res.Exprs[k]
		if g.Name != w.name || math.Float64bits(g.Peak) != w.peak || g.PeakSample != w.i || g.PeakSample2 != w.j {
			t.Errorf("expr %d: %q %#016x@(%d,%d), want %q %#016x@(%d,%d)",
				k, g.Name, math.Float64bits(g.Peak), g.PeakSample, g.PeakSample2, w.name, w.peak, w.i, w.j)
		}
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
