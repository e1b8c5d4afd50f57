package leakscan

import (
	"fmt"
	"math/rand"

	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/sca"
)

// The seven micro-benchmarks of Table 2. Register letters follow the
// paper; concrete registers are r0..r7 for data and r8..r11 for memory
// bases. Each Setup draws fresh random operands, pre-charges destination
// registers with the expected results (the paper's §4 technique for
// separating register-file effects from pipeline effects) and plants
// memory contents for the load benchmarks.
//
// Window offsets follow the model's stage timing: register-file reads at
// the issue cycle (+0); IS/EX buses, ALU input latches, ALU outputs and
// the shifter buffer one cycle later (+1); write-back at the unit latency
// (+1 ALU, +2 shifted, +3 loads); MDR at +2; the align buffer at +3;
// nop border effects within a few cycles after the trailing padding
// starts.

// operands names the slots of a benchmark's Values, in order. The
// expressions resolve their operand names against it once, when the
// benchmark is built, so evaluating one per trace is two array loads.
type operands []string

func (o operands) slot(name string) int {
	for i, n := range o {
		if n == name {
			return i
		}
	}
	panic(fmt.Sprintf("leakscan: no operand %q in %v", name, o))
}

// hw evaluates the Hamming weight of the named value.
func (o operands) hw(name string) func(Values) float64 {
	i := o.slot(name)
	return func(v Values) float64 { return float64(sca.HW(v[i])) }
}

// hd evaluates the Hamming distance between two named values.
func (o operands) hd(a, b string) func(Values) float64 {
	i, j := o.slot(a), o.slot(b)
	return func(v Values) float64 { return float64(sca.HD(v[i], v[j])) }
}

// Benchmarks returns the Table 2 rows.
func Benchmarks() []Benchmark {
	return []Benchmark{
		movNopMov(),
		addAddSingle(),
		addAddDual(),
		addAddShifted(),
		ldrLdr(),
		strStr(),
		ldrLdrbInterleaved(),
	}
}

// numRows is the number of Table 2 rows.
var numRows = len(Benchmarks())

// CheckRows reports the first of rows that names no Table 2 row.
func CheckRows(rows []int) error {
	for _, row := range rows {
		if row < 1 || row > numRows {
			return fmt.Errorf("leakscan: row %d out of [1,%d]", row, numRows)
		}
	}
	return nil
}

// BenchmarkByRow returns the Table 2 benchmark with the given 1-based
// row number, or false when no such row exists.
func BenchmarkByRow(row int) (Benchmark, bool) {
	for _, b := range Benchmarks() {
		if b.Row == row {
			return b, true
		}
	}
	return Benchmark{}, false
}

// BenchmarksByRow returns the Table 2 benchmarks of the given 1-based
// rows, in that order; no rows selects all seven.
func BenchmarksByRow(rows []int) ([]Benchmark, error) {
	if len(rows) == 0 {
		return Benchmarks(), nil
	}
	out := make([]Benchmark, len(rows))
	for i, row := range rows {
		b, ok := BenchmarkByRow(row)
		if !ok {
			return nil, fmt.Errorf("leakscan: no Table 2 row %d", row)
		}
		out[i] = b
	}
	return out, nil
}

// Row 1: mov rA, rB; nop; mov rC, rD — the nop interleaving that exposes
// both the operand-transition HD leak (through the ALU input latch the
// condition-never nop does not clock) and the operand HW leak (through
// the IS/EX bus the nop drives to zero).
func movNopMov() Benchmark {
	ops := operands{"rB", "rD"}
	return Benchmark{
		Name:   "mov rA,rB; nop; mov rC,rD",
		Row:    1,
		Seq:    "mov r0, r1\nnop\nmov r2, r3",
		SeqLen: 3,
		Setup: func(rng *rand.Rand, core *pipeline.Core) Values {
			rB, rD := rng.Uint32(), rng.Uint32()
			core.SetReg(isa.R1, rB)
			core.SetReg(isa.R3, rD)
			core.SetReg(isa.R0, rB) // pre-charge destinations
			core.SetReg(isa.R2, rD)
			return Values{rB, rD}
		},
		Exprs: []Expr{
			{Column: ColRF, Name: "rB", Expected: None, Scored: true, Anchor: 0, OffLo: 0, OffHi: 0, Eval: ops.hw("rB")},
			{Column: ColRF, Name: "rD", Expected: None, Scored: true, Anchor: 2, OffLo: 0, OffHi: 0, Eval: ops.hw("rD")},
			{Column: ColISEX, Name: "rB", Expected: Leak, Scored: true, Anchor: 0, OffLo: 1, OffHi: 2, Eval: ops.hw("rB")},
			{Column: ColISEX, Name: "rD", Expected: Leak, Scored: true, Anchor: 2, OffLo: 1, OffHi: 2, Eval: ops.hw("rD")},
			{Column: ColISEX, Name: "rB^rD", Expected: Leak, Scored: true, Anchor: 2, OffLo: 1, OffHi: 1, Eval: ops.hd("rB", "rD")},
			{Column: ColEXWB, Name: "rB†", Expected: Border, Scored: true, Anchor: 1, OffLo: 2, OffHi: 2, Eval: ops.hw("rB")},
			{Column: ColEXWB, Name: "rD†", Expected: Border, Scored: true, Anchor: 3, OffLo: 1, OffHi: 3, Eval: ops.hw("rD")},
			// The mov results are separated by the nop on the WB bus, so
			// their direct transition never occurs (§4.1: EX/WB combines
			// *subsequent* single-issued results).
			{Column: ColEXWB, Name: "rB^rD", Expected: None, Scored: true, Anchor: 2, OffLo: 2, OffHi: 3, Eval: ops.hd("rB", "rD")},
		},
	}
}

// Row 2: two single-issued reg-reg adds — same-position IS/EX sharing.
func addAddSingle() Benchmark {
	ops := operands{"rA", "rB", "rC", "rD", "rE", "rF"}
	return Benchmark{
		Name:   "add rA,rB,rC; add rD,rE,rF",
		Row:    2,
		Seq:    "add r0, r1, r2\nadd r3, r4, r5",
		SeqLen: 2,
		Setup: func(rng *rand.Rand, core *pipeline.Core) Values {
			rB, rC, rE, rF := rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()
			rA, rD := rB+rC, rE+rF
			core.SetRegs(rA, rB, rC, rD, rE, rF)
			return Values{rA, rB, rC, rD, rE, rF}
		},
		Exprs: []Expr{
			{Column: ColRF, Name: "rB", Expected: None, Scored: true, Anchor: 0, OffLo: 0, OffHi: 0, Eval: ops.hw("rB")},
			{Column: ColRF, Name: "rE", Expected: None, Scored: true, Anchor: 1, OffLo: 0, OffHi: 0, Eval: ops.hw("rE")},
			{Column: ColISEX, Name: "rB^rE", Expected: Leak, Scored: true, Anchor: 1, OffLo: 1, OffHi: 1, Eval: ops.hd("rB", "rE")},
			{Column: ColISEX, Name: "rC^rF", Expected: Leak, Scored: true, Anchor: 1, OffLo: 1, OffHi: 1, Eval: ops.hd("rC", "rF")},
			// Cross-position operands never share a bus (§4.1).
			{Column: ColISEX, Name: "rB^rF", Expected: None, Scored: true, Anchor: 1, OffLo: 1, OffHi: 1, Eval: ops.hd("rB", "rF")},
			{Column: ColISEX, Name: "rC^rE", Expected: None, Scored: true, Anchor: 1, OffLo: 1, OffHi: 1, Eval: ops.hd("rC", "rE")},
			// Boundary HW of the operands through the nop-zeroed buses.
			{Column: ColISEX, Name: "rB", Expected: Border, Scored: false, Anchor: 0, OffLo: 1, OffHi: 1, Eval: ops.hw("rB")},
			{Column: ColISEX, Name: "rF", Expected: Border, Scored: false, Anchor: 1, OffLo: 2, OffHi: 2, Eval: ops.hw("rF")},
			{Column: ColALU, Name: "rA", Expected: Leak, Scored: true, Anchor: 0, OffLo: 1, OffHi: 1, Eval: ops.hw("rA")},
			{Column: ColALU, Name: "rD", Expected: Leak, Scored: true, Anchor: 1, OffLo: 1, OffHi: 1, Eval: ops.hw("rD")},
			{Column: ColEXWB, Name: "rA^rD", Expected: Leak, Scored: true, Anchor: 1, OffLo: 2, OffHi: 2, Eval: ops.hd("rA", "rD")},
			{Column: ColEXWB, Name: "rA†", Expected: Border, Scored: true, Anchor: 0, OffLo: 2, OffHi: 2, Eval: ops.hw("rA")},
			{Column: ColEXWB, Name: "rD†", Expected: Border, Scored: true, Anchor: 2, OffLo: 1, OffHi: 3, Eval: ops.hw("rD")},
		},
	}
}

// Row 3: dual-issued add + add-with-immediate — the pair's operands and
// results share nothing.
func addAddDual() Benchmark {
	ops := operands{"rA", "rB", "rC", "rD", "rE"}
	return Benchmark{
		Name:         "add rA,rB,rC; add rD,rE,#n (dual)",
		Row:          3,
		Seq:          "add r0, r1, r2\nadd r3, r4, #77",
		SeqLen:       2,
		DualExpected: true,
		Setup: func(rng *rand.Rand, core *pipeline.Core) Values {
			rB, rC, rE := rng.Uint32(), rng.Uint32(), rng.Uint32()
			rA, rD := rB+rC, rE+77
			core.SetRegs(rA, rB, rC, rD, rE)
			return Values{rA, rB, rC, rD, rE}
		},
		Exprs: []Expr{
			{Column: ColRF, Name: "rB", Expected: None, Scored: true, Anchor: 0, OffLo: 0, OffHi: 0, Eval: ops.hw("rB")},
			// Dual-issued source operands travel distinct buses: no
			// combination leaks (§4.1, "no measurable leakage ... among
			// their source operands").
			{Column: ColISEX, Name: "rB^rE", Expected: None, Scored: true, Anchor: 1, OffLo: 1, OffHi: 1, Eval: ops.hd("rB", "rE")},
			{Column: ColISEX, Name: "rC^rE", Expected: None, Scored: true, Anchor: 1, OffLo: 1, OffHi: 1, Eval: ops.hd("rC", "rE")},
			{Column: ColALU, Name: "rA", Expected: Leak, Scored: true, Anchor: 0, OffLo: 1, OffHi: 1, Eval: ops.hw("rA")},
			{Column: ColALU, Name: "rD", Expected: Leak, Scored: true, Anchor: 1, OffLo: 1, OffHi: 1, Eval: ops.hw("rD")},
			// The results retire on different write ports: no transition.
			{Column: ColEXWB, Name: "rA^rD", Expected: None, Scored: true, Anchor: 1, OffLo: 2, OffHi: 2, Eval: ops.hd("rA", "rD")},
			{Column: ColEXWB, Name: "rA†", Expected: Border, Scored: true, Anchor: 2, OffLo: 1, OffHi: 3, Eval: ops.hw("rA")},
			{Column: ColEXWB, Name: "rD†", Expected: Border, Scored: true, Anchor: 2, OffLo: 1, OffHi: 3, Eval: ops.hw("rD")},
		},
	}
}

// Row 4: shifted-operand adds — the barrel shifter buffer leaks the
// shifted value (at about a tenth of the other leakages' weight).
func addAddShifted() Benchmark {
	ops := operands{"rA", "rB", "rC", "rD", "rE", "rF", "rC<<n", "rF<<n"}
	return Benchmark{
		Name:   "add rA,rB,rC,lsl n; add rD,rE,rF,lsl n",
		Row:    4,
		Seq:    "add r0, r1, r2, lsl #4\nadd r3, r4, r5, lsl #4",
		SeqLen: 2,
		Setup: func(rng *rand.Rand, core *pipeline.Core) Values {
			rB, rC, rE, rF := rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()
			rA, rD := rB+rC<<4, rE+rF<<4
			core.SetRegs(rA, rB, rC, rD, rE, rF)
			return Values{rA, rB, rC, rD, rE, rF, rC << 4, rF << 4}
		},
		Exprs: []Expr{
			{Column: ColRF, Name: "rB", Expected: None, Scored: true, Anchor: 0, OffLo: 0, OffHi: 0, Eval: ops.hw("rB")},
			{Column: ColShift, Name: "rC<<n", Expected: Leak, Scored: true, Anchor: 0, OffLo: 1, OffHi: 1, Eval: ops.hw("rC<<n")},
			{Column: ColShift, Name: "rF<<n", Expected: Leak, Scored: true, Anchor: 1, OffLo: 1, OffHi: 1, Eval: ops.hw("rF<<n")},
			{Column: ColISEX, Name: "rB^rE", Expected: Leak, Scored: true, Anchor: 1, OffLo: 1, OffHi: 1, Eval: ops.hd("rB", "rE")},
			{Column: ColISEX, Name: "rC^rF", Expected: Leak, Scored: true, Anchor: 1, OffLo: 1, OffHi: 1, Eval: ops.hd("rC", "rF")},
			{Column: ColALU, Name: "rA", Expected: Leak, Scored: true, Anchor: 0, OffLo: 1, OffHi: 1, Eval: ops.hw("rA")},
			{Column: ColALU, Name: "rD", Expected: Leak, Scored: true, Anchor: 1, OffLo: 1, OffHi: 1, Eval: ops.hw("rD")},
			{Column: ColEXWB, Name: "rA^rD", Expected: Leak, Scored: true, Anchor: 1, OffLo: 3, OffHi: 3, Eval: ops.hd("rA", "rD")},
			{Column: ColEXWB, Name: "rA†", Expected: Border, Scored: true, Anchor: 0, OffLo: 3, OffHi: 3, Eval: ops.hw("rA")},
			{Column: ColEXWB, Name: "rD†", Expected: Border, Scored: true, Anchor: 2, OffLo: 1, OffHi: 4, Eval: ops.hw("rD")},
		},
	}
}

// Row 5: two word loads — MDR and write-back transitions between the
// loaded values.
func ldrLdr() Benchmark {
	ops := operands{"rA", "rC"}
	return Benchmark{
		Name:   "ldr rA,[rB]; ldr rC,[rD]",
		Row:    5,
		Seq:    "ldr r0, [r8]\nldr r1, [r9]",
		SeqLen: 2,
		Setup: func(rng *rand.Rand, core *pipeline.Core) Values {
			rA, rC := rng.Uint32(), rng.Uint32()
			core.SetReg(isa.R8, 0x100)
			core.SetReg(isa.R9, 0x200)
			core.Mem().Write32(0x100, rA)
			core.Mem().Write32(0x200, rC)
			core.SetReg(isa.R0, rA) // pre-charge destinations
			core.SetReg(isa.R1, rC)
			return Values{rA, rC}
		},
		Exprs: []Expr{
			{Column: ColMDR, Name: "rA^rC", Expected: Leak, Scored: true, Anchor: 1, OffLo: 2, OffHi: 2, Eval: ops.hd("rA", "rC")},
			{Column: ColEXWB, Name: "rA^rC", Expected: Leak, Scored: true, Anchor: 1, OffLo: 4, OffHi: 4, Eval: ops.hd("rA", "rC")},
			{Column: ColEXWB, Name: "rA†", Expected: Border, Scored: true, Anchor: 0, OffLo: 4, OffHi: 4, Eval: ops.hw("rA")},
			{Column: ColEXWB, Name: "rC†", Expected: Border, Scored: true, Anchor: 2, OffLo: 1, OffHi: 5, Eval: ops.hw("rC")},
			// The align buffer is untested here (Table 2 "–"): word loads
			// never touch it, and row 7's interleaving experiment is the
			// one that can discriminate it from the MDR.
		},
	}
}

// Row 6: two word stores — the store data crosses the IS/EX bus and the
// MDR; the strongest leakage path of §5.
func strStr() Benchmark {
	ops := operands{"rA", "rC"}
	return Benchmark{
		Name:   "str rA,[rB]; str rC,[rD]",
		Row:    6,
		Seq:    "str r4, [r8]\nstr r5, [r9]",
		SeqLen: 2,
		Setup: func(rng *rand.Rand, core *pipeline.Core) Values {
			rA, rC := rng.Uint32(), rng.Uint32()
			core.SetReg(isa.R4, rA)
			core.SetReg(isa.R5, rC)
			core.SetReg(isa.R8, 0x100)
			core.SetReg(isa.R9, 0x200)
			return Values{rA, rC}
		},
		Exprs: []Expr{
			{Column: ColISEX, Name: "rA^rC", Expected: Leak, Scored: true, Anchor: 1, OffLo: 1, OffHi: 1, Eval: ops.hd("rA", "rC")},
			{Column: ColMDR, Name: "rA^rC", Expected: Leak, Scored: true, Anchor: 1, OffLo: 2, OffHi: 2, Eval: ops.hd("rA", "rC")},
			{Column: ColEXWB, Name: "rA†", Expected: Border, Scored: true, Anchor: 0, OffLo: 2, OffHi: 2, Eval: ops.hw("rA")},
			{Column: ColEXWB, Name: "rC†", Expected: Border, Scored: true, Anchor: 2, OffLo: 1, OffHi: 3, Eval: ops.hw("rC")},
			// Model-specific: the store datum traverses the EX/WB path,
			// so consecutive store data also combine there (consistent
			// with §4.1's general EX/WB statement; Table 2's cell colors
			// are not recoverable from the text dump).
			{Column: ColEXWB, Name: "rA^rC", Expected: Leak, Scored: false, Anchor: 1, OffLo: 2, OffHi: 2, Eval: ops.hd("rA", "rC")},
		},
	}
}

// Row 7: word and byte loads interleaved — the align buffer combines the
// two byte values across the intervening word load.
func ldrLdrbInterleaved() Benchmark {
	ops := operands{"rA", "rC", "rE", "rG"}
	return Benchmark{
		Name:   "ldr rA,[rB]; ldrb rC,[rD]; ldr rE,[rF]; ldrb rG,[rH]",
		Row:    7,
		Seq:    "ldr r0, [r8]\nldrb r1, [r9]\nldr r2, [r10]\nldrb r3, [r11]",
		SeqLen: 4,
		Setup: func(rng *rand.Rand, core *pipeline.Core) Values {
			rA, rE := rng.Uint32(), rng.Uint32()
			rC, rG := uint32(rng.Intn(256)), uint32(rng.Intn(256))
			core.SetReg(isa.R8, 0x100)
			core.SetReg(isa.R9, 0x200)
			core.SetReg(isa.R10, 0x300)
			core.SetReg(isa.R11, 0x400)
			core.Mem().Write32(0x100, rA)
			core.Mem().Write32(0x200, rC) // container word equals the byte
			core.Mem().Write32(0x300, rE)
			core.Mem().Write32(0x400, rG)
			core.SetRegs(rA, rC, rE, rG)
			return Values{rA, rC, rE, rG}
		},
		Exprs: []Expr{
			{Column: ColMDR, Name: "rA^rC", Expected: Leak, Scored: true, Anchor: 1, OffLo: 2, OffHi: 2, Eval: ops.hd("rA", "rC")},
			{Column: ColMDR, Name: "rC^rE", Expected: Leak, Scored: true, Anchor: 2, OffLo: 2, OffHi: 2, Eval: ops.hd("rC", "rE")},
			{Column: ColMDR, Name: "rE^rG", Expected: Leak, Scored: true, Anchor: 3, OffLo: 2, OffHi: 2, Eval: ops.hd("rE", "rG")},
			// The align buffer is skipped by word loads: the two byte
			// values combine directly across the interleaved ldr.
			{Column: ColAlign, Name: "rC^rG", Expected: Leak, Scored: true, Anchor: 3, OffLo: 3, OffHi: 3, Eval: ops.hd("rC", "rG")},
			{Column: ColEXWB, Name: "rA†", Expected: Border, Scored: true, Anchor: 0, OffLo: 4, OffHi: 4, Eval: ops.hw("rA")},
			{Column: ColEXWB, Name: "rG†", Expected: Border, Scored: true, Anchor: 4, OffLo: 1, OffHi: 6, Eval: ops.hw("rG")},
		},
	}
}
