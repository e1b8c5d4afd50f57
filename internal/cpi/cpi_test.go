package cpi

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

func TestMeasurePairMov(t *testing.T) {
	cpi, err := MeasurePair(pipeline.DefaultConfig(), isa.ClassMov, isa.ClassMov, false, 100)
	if err != nil {
		t.Fatal(err)
	}
	if cpi != 0.5 {
		t.Errorf("hazard-free mov CPI = %v, want 0.5", cpi)
	}
	laden, err := MeasurePair(pipeline.DefaultConfig(), isa.ClassMov, isa.ClassMov, true, 100)
	if err != nil {
		t.Fatal(err)
	}
	if laden < 1 {
		t.Errorf("hazard-laden mov CPI = %v, want >= 1", laden)
	}
}

func TestMeasurePairValidatesReps(t *testing.T) {
	if _, err := MeasurePair(pipeline.DefaultConfig(), isa.ClassMov, isa.ClassMov, false, 0); err == nil {
		t.Error("zero reps must be rejected")
	}
}

func TestMatrixReproducesTable1(t *testing.T) {
	m, err := MeasureMatrix(pipeline.DefaultConfig(), 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	match, total := m.Agreement()
	if match != total {
		for _, older := range isa.Table1Classes() {
			for _, younger := range isa.Table1Classes() {
				got := m.Dual(older, younger)
				want := PaperTable1(older, younger)
				if got != want {
					cell := m.Cells[older][younger]
					t.Errorf("(%v, %v): measured dual=%v (CPI %.2f), paper says %v",
						older, younger, got, cell.CPI, want)
				}
			}
		}
		t.Fatalf("matrix agreement %d/%d", match, total)
	}
}

func TestMatrixScalarCoreAllSingle(t *testing.T) {
	m, err := MeasureMatrix(pipeline.ScalarConfig(), 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, older := range isa.Table1Classes() {
		for _, younger := range isa.Table1Classes() {
			if m.Dual(older, younger) {
				t.Errorf("scalar core dual-issued (%v, %v)", older, younger)
			}
		}
	}
}

func TestHazardAlwaysAtLeastOne(t *testing.T) {
	m, err := MeasureMatrix(pipeline.DefaultConfig(), 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, older := range isa.Table1Classes() {
		for _, younger := range isa.Table1Classes() {
			cell := m.Cells[older][younger]
			if cell.HazardCPI < cell.CPI-1e-9 {
				t.Errorf("(%v, %v): hazard CPI %.2f below hazard-free %.2f",
					older, younger, cell.HazardCPI, cell.CPI)
			}
		}
	}
}

// TestMatrixWidthInvariance pins the matrix's spreading over a run's
// workers: at widths 1 and 4 the cells are the same, in Table 1 order,
// and a failing matrix reports the first failing cell in that order.
func TestMatrixWidthInvariance(t *testing.T) {
	cfg := pipeline.ScalarConfig()
	one, err := MeasureMatrix(cfg, 16, engine.Config{Workers: 1}.Each)
	if err != nil {
		t.Fatal(err)
	}
	four, err := MeasureMatrix(cfg, 16, engine.Config{Workers: 4}.Each)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(one.Ordered(), four.Ordered()) {
		t.Errorf("width 4 cells differ from width 1:\n%s\nvs\n%s", four.Table(), one.Table())
	}
	_, err1 := MeasureMatrix(cfg, 0, engine.Config{Workers: 1}.Each)
	_, err4 := MeasureMatrix(cfg, 0, engine.Config{Workers: 4}.Each)
	if err1 == nil || err4 == nil || err1.Error() != err4.Error() || !strings.Contains(err1.Error(), "pair (mov,mov)") {
		t.Errorf("failing matrix: width 1 %v, width 4 %v; want the (mov,mov) cell's error at both", err1, err4)
	}
}

func TestTableRendering(t *testing.T) {
	m, err := MeasureMatrix(pipeline.DefaultConfig(), 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Table()
	for _, label := range []string{"mov", "ALU w/ imm", "ld/st", "YES", "no"} {
		if !strings.Contains(s, label) {
			t.Errorf("table missing %q:\n%s", label, s)
		}
	}
}

func TestProbesOnDefaultCore(t *testing.T) {
	p, err := MeasureProbes(pipeline.DefaultConfig(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if p.MovPairCPI != 0.5 {
		t.Errorf("mov pair CPI = %v, want 0.5", p.MovPairCPI)
	}
	if p.LoadSeqCPI != 1 || p.StoreSeqCPI != 1 {
		t.Errorf("ld/st stream CPI = %v/%v, want 1/1 (pipelined LSU)", p.LoadSeqCPI, p.StoreSeqCPI)
	}
	if p.MulSeqCPI != 1 {
		t.Errorf("mul stream CPI = %v, want 1 (pipelined multiplier)", p.MulSeqCPI)
	}
	if p.NopSeqCPI != 1 {
		t.Errorf("nop stream CPI = %v, want 1 (nops never dual-issue)", p.NopSeqCPI)
	}
	if p.LoadWithALUImmCPI != 0.5 {
		t.Errorf("ldr+ALUimm CPI = %v, want 0.5 (AGU in issue stage)", p.LoadWithALUImmCPI)
	}
}

func TestInferenceMatchesPaper(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	m, err := MeasureMatrix(cfg, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := MeasureProbes(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	inf := Infer(m, p)
	ok, why := inf.MatchesPaper()
	if !ok {
		t.Fatalf("inference disagrees with Figure 2: %s\n%s", why, inf)
	}
	if inf.NumALUs != 2 || inf.ReadPorts != 3 || inf.WritePorts != 2 {
		t.Errorf("structure = %+v", inf)
	}
}

func TestInferenceOnScalarCore(t *testing.T) {
	cfg := pipeline.ScalarConfig()
	m, err := MeasureMatrix(cfg, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := MeasureProbes(cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	inf := Infer(m, p)
	if inf.DualIssue || inf.FetchWidth != 1 {
		t.Errorf("scalar core misidentified: %+v", inf)
	}
	if ok, _ := inf.MatchesPaper(); ok {
		t.Error("scalar core must not match the Cortex-A7 structure")
	}
}

func TestInferenceString(t *testing.T) {
	inf := &Inference{DualIssue: true, FetchWidth: 2, NumALUs: 2, ReadPorts: 3, WritePorts: 2}
	s := inf.String()
	if !strings.Contains(s, "read ports:       3") && !strings.Contains(s, "RF read ports") {
		t.Errorf("report missing fields:\n%s", s)
	}
}

// benchText is the micro-benchmark as assembly text — the register
// prologue, padding nops to an even start, reps copies of the pair,
// padding nops and the shared "end" label — with the [start, end) range
// of the measured pairs: the oracle buildBench is pinned to.
func benchText(a, b string, reps int) (string, int, int) {
	var sb strings.Builder
	sb.WriteString("mov r1, #17\nmov r2, #42\nmov r4, #23\nmov r5, #99\n")
	sb.WriteString("mov r8, #0x400\nmov r10, #0x500\nmov r3, #0\n")
	prologue := 7
	for i := 0; i < padNops; i++ {
		sb.WriteString("nop\n")
	}
	start := prologue + padNops
	if start%2 != 0 {
		sb.WriteString("nop\n")
		start++
	}
	for i := 0; i < reps; i++ {
		sb.WriteString(a)
		sb.WriteByte('\n')
		sb.WriteString(b)
		sb.WriteByte('\n')
	}
	end := start + 2*reps
	for i := 0; i < padNops; i++ {
		sb.WriteString("nop\n")
	}
	sb.WriteString("end:\n")
	return sb.String(), start, end
}

// TestBuildBenchMatchesAssembledText pins the replicated micro-benchmark
// to the assembly of its full text, instruction for instruction — every
// class pair in both hazard variants, the raw pairs of the structure
// probes, and several repetition counts — so the branch to "end" lands
// on the final label and the measured range is unchanged.
func TestBuildBenchMatchesAssembledText(t *testing.T) {
	type pair struct{ a, b string }
	var pairs []pair
	for _, older := range isa.Table1Classes() {
		for _, younger := range isa.Table1Classes() {
			a, b := pairInstrs(older, younger)
			pairs = append(pairs, pair{a, b})
			a, b = hazardInstrs(older, younger)
			pairs = append(pairs, pair{a, b})
		}
	}
	pairs = append(pairs, pair{"str r1, [r8]", "str r4, [r10]"}, pair{"nop", "nop"})
	for _, pr := range pairs {
		for _, reps := range []int{1, 10, 64} {
			got, start, end, err := buildBench(pr.a, pr.b, reps)
			if err != nil {
				t.Fatalf("%q/%q reps %d: %v", pr.a, pr.b, reps, err)
			}
			text, wantStart, wantEnd := benchText(pr.a, pr.b, reps)
			want := isa.MustAssemble(text)
			if !slices.Equal(got.Instrs, want.Instrs) || !maps.Equal(got.Symbols, want.Symbols) {
				t.Fatalf("%q/%q reps %d: program differs from the assembled text", pr.a, pr.b, reps)
			}
			if start != wantStart || end != wantEnd {
				t.Fatalf("%q/%q reps %d: measured range [%d, %d), want [%d, %d)", pr.a, pr.b, reps, start, end, wantStart, wantEnd)
			}
		}
	}
}
