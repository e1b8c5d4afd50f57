// Package cpi implements the micro-architecture characterization of §3.2:
// measuring Clock-cycles-Per-Instruction on repeated instruction pairs —
// hazard-free versus RAW-hazard-laden — to recover which pairs the core
// dual-issues (Table 1), and inferring the pipeline structure (Figure 2)
// from the recovered matrix plus targeted probes.
package cpi

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/pipeline"
)

// DefaultReps mirrors the paper's 200 repetitions of each pair.
const DefaultReps = 200

// padNops mirrors the paper's pipeline-flushing nops around the measured
// region (the paper uses 100; fewer suffice on the simulator, whose
// pipeline state is far shallower than a physical board's).
const padNops = 16

// pairInstrs returns a hazard-free representative instruction pair for
// the ordered class pair, with disjoint register sets so that neither
// intra-pair nor cross-iteration dependences arise. Memory classes use
// r8/r10 as pre-set base registers; branches are never-taken conditional
// branches to the common "end" label, keeping the stream linear.
func pairInstrs(older, younger isa.Class) (a, b string) {
	olderOf := map[isa.Class]string{
		isa.ClassMov:       "mov r0, r1",
		isa.ClassALU:       "add r0, r1, r2",
		isa.ClassALUImm:    "add r0, r1, #5",
		isa.ClassMul:       "mul r0, r1, r2",
		isa.ClassShift:     "lsl r0, r1, #2",
		isa.ClassBranch:    "beq end",
		isa.ClassLoadStore: "ldr r0, [r8]",
	}
	youngerOf := map[isa.Class]string{
		isa.ClassMov:       "mov r3, r4",
		isa.ClassALU:       "add r3, r4, r5",
		isa.ClassALUImm:    "add r3, r4, #7",
		isa.ClassMul:       "mul r3, r4, r5",
		isa.ClassShift:     "lsl r3, r4, #2",
		isa.ClassBranch:    "bne end",
		isa.ClassLoadStore: "ldr r3, [r10]",
	}
	return olderOf[older], youngerOf[younger]
}

// hazardInstrs returns a RAW-hazard-laden variant: the younger reads the
// older's destination and vice versa across iterations, fully serializing
// the stream (the paper's "artificially induced RAW hazards").
func hazardInstrs(older, younger isa.Class) (a, b string) {
	a, b = pairInstrs(older, younger)
	// Rewrite destinations/sources to form a mutual dependence chain
	// where the classes allow it; branches have no destination, so pairs
	// involving them serialize through the partner instead.
	switch older {
	case isa.ClassMov:
		a = "mov r0, r3"
	case isa.ClassALU:
		a = "add r0, r3, r2"
	case isa.ClassALUImm:
		a = "add r0, r3, #5"
	case isa.ClassMul:
		a = "mul r0, r3, r2"
	case isa.ClassShift:
		a = "lsl r0, r3, #2"
	case isa.ClassLoadStore:
		a = "ldr r0, [r8, r3]"
	}
	switch younger {
	case isa.ClassMov:
		b = "mov r3, r0"
	case isa.ClassALU:
		b = "add r3, r0, r5"
	case isa.ClassALUImm:
		b = "add r3, r0, #7"
	case isa.ClassMul:
		b = "mul r3, r0, r5"
	case isa.ClassShift:
		b = "lsl r3, r0, #2"
	case isa.ClassLoadStore:
		b = "ldr r3, [r10, r0]"
	}
	return a, b
}

// benchRegs sets the micro-benchmark's benign operand values and memory
// bases; r3 starts at 0 so hazard variants still index within mapped
// memory.
const benchRegs = "mov r1, #17\nmov r2, #42\nmov r4, #23\nmov r5, #99\n" +
	"mov r8, #0x400\nmov r10, #0x500\nmov r3, #0\n"

// benchPrologue is the micro-benchmark's head: benchRegs, then padding
// nops up to an even length, so the measured pairs begin aligned.
// benchEpilogue is its tail: padding nops and the shared branch target
// "end".
var (
	benchPrologue = isa.MustAssemble(benchRegs +
		strings.Repeat("nop\n", padNops+(strings.Count(benchRegs, "\n")+padNops)%2))
	benchEpilogue = isa.MustAssemble(strings.Repeat("nop\n", padNops) + "end:")
)

// buildBench builds the paper's micro-benchmark: the prologue, reps
// repetitions of the pair, and the epilogue. The pair is assembled once
// and its instructions replicated; a branch to "end" is retargeted to
// the epilogue's label. It returns the program and the [start, end)
// instruction range of the measured region.
func buildBench(a, b string, reps int) (*isa.Program, int, int, error) {
	pair, err := isa.Assemble(a + "\n" + b + "\nend:")
	if err != nil {
		return nil, 0, 0, err
	}
	start := benchPrologue.Len()
	end := start + 2*reps
	total := end + benchEpilogue.Len()
	instrs := make([]isa.Instr, 0, total)
	instrs = append(instrs, benchPrologue.Instrs...)
	for i := range pair.Instrs {
		if in := &pair.Instrs[i]; in.Op.IsBranch() && in.Op != isa.BX && in.Target == pair.Symbols["end"] {
			in.Target = total
		}
	}
	for range reps {
		instrs = append(instrs, pair.Instrs...)
	}
	instrs = append(instrs, benchEpilogue.Instrs...)
	return &isa.Program{Instrs: instrs, Symbols: map[string]int{"end": total}}, start, end, nil
}

// MeasurePair runs the micro-benchmark for the ordered class pair and
// returns its CPI. With hazard set, the RAW-laden variant runs instead.
func MeasurePair(cfg pipeline.Config, older, younger isa.Class, hazard bool, reps int) (float64, error) {
	if reps < 1 {
		return 0, fmt.Errorf("cpi: reps must be >= 1, got %d", reps)
	}
	a, b := pairInstrs(older, younger)
	if hazard {
		a, b = hazardInstrs(older, younger)
	}
	prog, start, end, err := buildBench(a, b, reps)
	if err != nil {
		return 0, err
	}
	core, err := pipeline.New(cfg, nil)
	if err != nil {
		return 0, err
	}
	res, err := core.Run(prog)
	if err != nil {
		return 0, err
	}
	return res.CPIBetween(start, end), nil
}

// Measurement is one cell of the dual-issue matrix.
type Measurement struct {
	Older, Younger isa.Class
	// CPI is the hazard-free pair CPI; HazardCPI the serialized variant.
	CPI       float64
	HazardCPI float64
	// Dual is the recovered verdict: the hazard-free stream ran at
	// materially better throughput than one instruction per cycle.
	Dual bool
}

// Matrix is the recovered Table 1.
type Matrix struct {
	Cells map[isa.Class]map[isa.Class]Measurement
	Reps  int
}

// dualThreshold separates dual-issue CPI (0.5) from scalar CPI (1.0).
const dualThreshold = 0.75

// MeasureMatrix measures every ordered pair of the seven Table 1
// classes. Its 98 pair simulations — each cell's hazard-free and
// hazard-laden variant — are independent: each(n, f) runs them as f(0)
// … f(n-1), possibly concurrently, each into its own slot, and a nil
// each runs them in order. The error returned is the first failing
// simulation's in Table 1 order, whatever each ran first.
func MeasureMatrix(cfg pipeline.Config, reps int, each func(n int, f func(i int))) (*Matrix, error) {
	classes := isa.Table1Classes()
	nc := len(classes)
	cpis := make([]float64, 2*nc*nc) // [2*cell + hazard]
	errs := make([]error, len(cpis))
	run := func(i int) {
		older, younger := classes[i/2/nc], classes[i/2%nc]
		cpis[i], errs[i] = MeasurePair(cfg, older, younger, i%2 == 1, reps)
	}
	if each == nil {
		for i := range cpis {
			run(i)
		}
	} else {
		each(len(cpis), run)
	}
	m := &Matrix{Cells: make(map[isa.Class]map[isa.Class]Measurement), Reps: reps}
	for c := 0; c < nc*nc; c++ {
		older, younger := classes[c/nc], classes[c%nc]
		if err := errs[2*c]; err != nil {
			return nil, fmt.Errorf("cpi: pair (%v,%v): %w", older, younger, err)
		}
		if err := errs[2*c+1]; err != nil {
			return nil, fmt.Errorf("cpi: hazard pair (%v,%v): %w", older, younger, err)
		}
		if m.Cells[older] == nil {
			m.Cells[older] = make(map[isa.Class]Measurement)
		}
		free, laden := cpis[2*c], cpis[2*c+1]
		m.Cells[older][younger] = Measurement{
			Older: older, Younger: younger,
			CPI: free, HazardCPI: laden,
			Dual: free < dualThreshold,
		}
	}
	return m, nil
}

// Dual reports the recovered verdict for one ordered pair.
func (m *Matrix) Dual(older, younger isa.Class) bool {
	return m.Cells[older][younger].Dual
}

// Ordered returns the 49 cells in Table 1 order (older class major,
// younger minor) — the deterministic flattening used by serialized
// campaign results, independent of map iteration order.
func (m *Matrix) Ordered() []Measurement {
	classes := isa.Table1Classes()
	out := make([]Measurement, 0, len(classes)*len(classes))
	for _, older := range classes {
		for _, younger := range classes {
			out = append(out, m.Cells[older][younger])
		}
	}
	return out
}

// PaperTable1 returns the published Table 1 verdict for a pair.
func PaperTable1(older, younger isa.Class) bool {
	return pipeline.PolicyAllows(older, younger)
}

// Agreement counts how many of the 49 cells match the published Table 1.
func (m *Matrix) Agreement() (match, total int) {
	for _, older := range isa.Table1Classes() {
		for _, younger := range isa.Table1Classes() {
			total++
			if m.Dual(older, younger) == PaperTable1(older, younger) {
				match++
			}
		}
	}
	return match, total
}

// Table renders the matrix in the layout of the paper's Table 1.
func (m *Matrix) Table() string {
	classes := isa.Table1Classes()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s", "")
	for _, c := range classes {
		fmt.Fprintf(&sb, "%-12s", c)
	}
	sb.WriteByte('\n')
	for _, older := range classes {
		fmt.Fprintf(&sb, "%-12s", older)
		for _, younger := range classes {
			cell := m.Cells[older][younger]
			mark := "no "
			if cell.Dual {
				mark = "YES"
			}
			fmt.Fprintf(&sb, "%s %.2f    ", mark, cell.CPI)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
