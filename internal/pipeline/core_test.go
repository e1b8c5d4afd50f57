package pipeline

import (
	"testing"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/mem"
)

func run(t *testing.T, cfg Config, src string, setup func(c *Core)) (*Core, *Result) {
	t.Helper()
	prog := isa.MustAssemble(src)
	c := MustNew(cfg, nil)
	if setup != nil {
		setup(c)
	}
	res, err := c.Run(prog)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return c, res
}

func TestRunStraightLine(t *testing.T) {
	c, _ := run(t, DefaultConfig(), `
		mov r0, #5
		mov r1, #7
		add r2, r0, r1
		sub r3, r1, r0
		eor r4, r0, r1
	`, nil)
	if got := c.Reg(isa.R2); got != 12 {
		t.Errorf("r2 = %d, want 12", got)
	}
	if got := c.Reg(isa.R3); got != 2 {
		t.Errorf("r3 = %d, want 2", got)
	}
	if got := c.Reg(isa.R4); got != 2 {
		t.Errorf("r4 = %d, want 2", got)
	}
}

func TestRunLoop(t *testing.T) {
	// Sum 1..10 with a countdown loop.
	c, _ := run(t, DefaultConfig(), `
		mov r0, #0
		mov r1, #10
	loop:
		add r0, r0, r1
		subs r1, r1, #1
		bne loop
		bx lr
	`, nil)
	if got := c.Reg(isa.R0); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestRunMemoryOps(t *testing.T) {
	c, _ := run(t, DefaultConfig(), `
		mov r1, #0x100
		mov r0, #0xAB
		strb r0, [r1]
		mov r0, #0xCD
		strb r0, [r1, #1]
		ldrh r2, [r1]
		ldr r3, [r1]
	`, nil)
	if got := c.Reg(isa.R2); got != 0xCDAB {
		t.Errorf("ldrh = %#x, want 0xCDAB", got)
	}
	if got := c.Reg(isa.R3); got != 0xCDAB {
		t.Errorf("ldr = %#x, want 0xCDAB", got)
	}
	if got := c.Mem().Read8(0x101); got != 0xCD {
		t.Errorf("memory byte = %#x", got)
	}
}

func TestRunIndexedAddressing(t *testing.T) {
	c, _ := run(t, DefaultConfig(), `
		mov r1, #0x200
		mov r0, #17
		str r0, [r1], #4     @ post-index: store at 0x200, r1 = 0x204
		mov r0, #23
		str r0, [r1, #4]!    @ pre-index: store at 0x208, r1 = 0x208
	`, nil)
	if got := c.Mem().Read32(0x200); got != 17 {
		t.Errorf("post-index store = %d", got)
	}
	if got := c.Mem().Read32(0x208); got != 23 {
		t.Errorf("pre-index store = %d", got)
	}
	if got := c.Reg(isa.R1); got != 0x208 {
		t.Errorf("r1 = %#x, want 0x208", got)
	}
}

func TestRunFunctionCall(t *testing.T) {
	c, _ := run(t, DefaultConfig(), `
		mov r0, #3
		bl double
		bl double
		b end
	double:
		add r0, r0, r0
		bx lr
	end:
	`, nil)
	if got := c.Reg(isa.R0); got != 12 {
		t.Errorf("r0 = %d, want 12", got)
	}
}

func TestRunConditionalExecution(t *testing.T) {
	c, _ := run(t, DefaultConfig(), `
		mov r0, #5
		cmp r0, #5
		moveq r1, #1
		movne r2, #1
		addeq r3, r0, #10
	`, nil)
	if got := c.Reg(isa.R1); got != 1 {
		t.Errorf("moveq skipped: r1 = %d", got)
	}
	if got := c.Reg(isa.R2); got != 0 {
		t.Errorf("movne executed: r2 = %d", got)
	}
	if got := c.Reg(isa.R3); got != 15 {
		t.Errorf("addeq: r3 = %d, want 15", got)
	}
}

func TestRunShiftedOperands(t *testing.T) {
	c, _ := run(t, DefaultConfig(), `
		mov r1, #3
		mov r2, #1
		add r0, r1, r2, lsl #4   @ 3 + 16
		lsr r3, r0, #1
		ror r4, r2, #1
	`, nil)
	if got := c.Reg(isa.R0); got != 19 {
		t.Errorf("shifted add = %d, want 19", got)
	}
	if got := c.Reg(isa.R3); got != 9 {
		t.Errorf("lsr = %d, want 9", got)
	}
	if got := c.Reg(isa.R4); got != 0x80000000 {
		t.Errorf("ror = %#x, want 0x80000000", got)
	}
}

func TestRunMul(t *testing.T) {
	c, _ := run(t, DefaultConfig(), `
		mov r1, #6
		mov r2, #7
		mul r0, r1, r2
		mla r3, r1, r2, r0
	`, nil)
	if got := c.Reg(isa.R0); got != 42 {
		t.Errorf("mul = %d", got)
	}
	if got := c.Reg(isa.R3); got != 84 {
		t.Errorf("mla = %d", got)
	}
}

func TestRunRunawayGuard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 1000
	prog := isa.MustAssemble("loop:\n b loop")
	c := MustNew(cfg, nil)
	if _, err := c.Run(prog); err == nil {
		t.Fatal("infinite loop must trip the cycle guard")
	}
}

// repeatPair builds 'reps' copies of the two-line pair surrounded by nops,
// mirroring the paper's micro-benchmark layout, and returns the program
// and the [start, end) instruction-index range of the measured region.
func repeatPair(t *testing.T, a, b string, reps int) (*isa.Program, int, int) {
	t.Helper()
	src := ""
	for i := 0; i < 8; i++ {
		src += "nop\n"
	}
	start := 8
	for i := 0; i < reps; i++ {
		src += a + "\n" + b + "\n"
	}
	end := start + 2*reps
	for i := 0; i < 8; i++ {
		src += "nop\n"
	}
	return isa.MustAssemble(src), start, end
}

func pairCPI(t *testing.T, cfg Config, a, b string) float64 {
	t.Helper()
	prog, s, e := repeatPair(t, a, b, 100)
	c := MustNew(cfg, nil)
	c.SetReg(isa.R8, 0x400) // memory base for ld/st benchmark operands
	c.SetReg(isa.R10, 0x500)
	res, err := c.Run(prog)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res.CPIBetween(s, e)
}

func TestCPIDualIssueMov(t *testing.T) {
	got := pairCPI(t, DefaultConfig(), "mov r0, r1", "mov r2, r3")
	if got != 0.5 {
		t.Errorf("hazard-free mov pair CPI = %v, want 0.5", got)
	}
}

func TestCPIHazardBreaksDualIssue(t *testing.T) {
	got := pairCPI(t, DefaultConfig(), "mov r0, r1", "mov r1, r0")
	if got < 1 {
		t.Errorf("RAW-laden mov pair CPI = %v, want >= 1", got)
	}
}

func TestCPINopsNeverDual(t *testing.T) {
	got := pairCPI(t, DefaultConfig(), "nop", "nop")
	if got != 1 {
		t.Errorf("nop stream CPI = %v, want 1 (nops are never dual-issued)", got)
	}
}

func TestCPIScalarConfig(t *testing.T) {
	got := pairCPI(t, ScalarConfig(), "mov r0, r1", "mov r2, r3")
	if got != 1 {
		t.Errorf("scalar mov pair CPI = %v, want 1", got)
	}
}

func TestCPILoadStoreFullyPipelined(t *testing.T) {
	// §3.2: a hazard-free sequence of loads or stores sustains CPI 1.
	if got := pairCPI(t, DefaultConfig(), "ldr r0, [r8]", "ldr r1, [r10]"); got != 1 {
		t.Errorf("load stream CPI = %v, want 1", got)
	}
	if got := pairCPI(t, DefaultConfig(), "str r0, [r8]", "str r1, [r10]"); got != 1 {
		t.Errorf("store stream CPI = %v, want 1", got)
	}
}

func TestCPIMulFullyPipelined(t *testing.T) {
	// §3.2: a sequence of muls achieves CPI 1.
	got := pairCPI(t, DefaultConfig(), "mul r0, r1, r2", "mul r3, r4, r5")
	if got != 1 {
		t.Errorf("mul stream CPI = %v, want 1", got)
	}
}

func TestCPITable1Asymmetry(t *testing.T) {
	// mov followed by ld/st does not pair; ld/st followed by mov does.
	if got := pairCPI(t, DefaultConfig(), "mov r0, r1", "ldr r2, [r8]"); got != 1 {
		t.Errorf("mov+ldr CPI = %v, want 1", got)
	}
	if got := pairCPI(t, DefaultConfig(), "ldr r2, [r8]", "mov r0, r1"); got != 0.5 {
		t.Errorf("ldr+mov CPI = %v, want 0.5", got)
	}
}

func TestCPIDualIssueALUWithImm(t *testing.T) {
	if got := pairCPI(t, DefaultConfig(), "add r0, r1, r2", "add r3, r4, #7"); got != 0.5 {
		t.Errorf("ALU+ALUimm CPI = %v, want 0.5", got)
	}
	if got := pairCPI(t, DefaultConfig(), "add r0, r1, r2", "add r3, r4, r5"); got != 1 {
		t.Errorf("ALU+ALU CPI = %v, want 1 (only 3 RF read ports)", got)
	}
}

func TestCPIShifts(t *testing.T) {
	if got := pairCPI(t, DefaultConfig(), "lsl r0, r1, #2", "lsl r2, r3, #2"); got != 1 {
		t.Errorf("shift+shift CPI = %v, want 1 (single shifter)", got)
	}
	if got := pairCPI(t, DefaultConfig(), "lsl r0, r1, #2", "add r2, r3, #1"); got != 0.5 {
		t.Errorf("shift+ALUimm CPI = %v, want 0.5", got)
	}
}

func TestCanPairMatrixMatchesTable1(t *testing.T) {
	reps := map[isa.Class]isa.Instr{
		isa.ClassMov:       {Op: isa.MOV, Cond: isa.AL, Rd: isa.R0, Op2: isa.RegOp(isa.R1)},
		isa.ClassALU:       {Op: isa.ADD, Cond: isa.AL, Rd: isa.R2, Rn: isa.R3, Op2: isa.RegOp(isa.R4)},
		isa.ClassALUImm:    {Op: isa.ADD, Cond: isa.AL, Rd: isa.R5, Rn: isa.R6, Op2: isa.Imm(1)},
		isa.ClassMul:       {Op: isa.MUL, Cond: isa.AL, Rd: isa.R7, Rn: isa.R9, Rm: isa.R10},
		isa.ClassShift:     {Op: isa.LSL, Cond: isa.AL, Rd: isa.R11, Op2: isa.ShiftedReg(isa.R12, isa.ShiftLSL, 3)},
		isa.ClassBranch:    {Op: isa.B, Cond: isa.NE, Target: 0},
		isa.ClassLoadStore: {Op: isa.LDR, Cond: isa.AL, Rd: isa.R14, Mem: isa.MemImm(isa.R8, 0)},
	}
	cfg := DefaultConfig()
	for _, older := range isa.Table1Classes() {
		for _, younger := range isa.Table1Classes() {
			a, b := reps[older], reps[younger]
			if older == younger {
				// Use register-disjoint copies for the diagonal.
				switch older {
				case isa.ClassMov:
					b = isa.Instr{Op: isa.MOV, Cond: isa.AL, Rd: isa.R2, Op2: isa.RegOp(isa.R3)}
				case isa.ClassALU:
					b = isa.Instr{Op: isa.ADD, Cond: isa.AL, Rd: isa.R5, Rn: isa.R6, Op2: isa.RegOp(isa.R7)}
				case isa.ClassALUImm:
					b = isa.Instr{Op: isa.SUB, Cond: isa.AL, Rd: isa.R9, Rn: isa.R10, Op2: isa.Imm(2)}
				case isa.ClassMul:
					b = isa.Instr{Op: isa.MUL, Cond: isa.AL, Rd: isa.R11, Rn: isa.R12, Rm: isa.R14}
				case isa.ClassShift:
					b = isa.Instr{Op: isa.LSR, Cond: isa.AL, Rd: isa.R5, Op2: isa.ShiftedReg(isa.R6, isa.ShiftLSR, 1)}
				case isa.ClassBranch:
					b = isa.Instr{Op: isa.B, Cond: isa.EQ, Target: 0}
				case isa.ClassLoadStore:
					b = isa.Instr{Op: isa.LDR, Cond: isa.AL, Rd: isa.R5, Mem: isa.MemImm(isa.R10, 0)}
				}
			}
			want := PolicyAllows(older, younger)
			if got := cfg.CanPair(a, b); got != want {
				t.Errorf("CanPair(%v, %v) = %v, want %v (%s)",
					older, younger, got, want, cfg.ExplainPair(a, b))
			}
		}
	}
}

func TestCanPairBlocksDependences(t *testing.T) {
	cfg := DefaultConfig()
	older := isa.Instr{Op: isa.MOV, Cond: isa.AL, Rd: isa.R0, Op2: isa.RegOp(isa.R1)}
	raw := isa.Instr{Op: isa.MOV, Cond: isa.AL, Rd: isa.R2, Op2: isa.RegOp(isa.R0)}
	if cfg.CanPair(older, raw) {
		t.Error("RAW pair must not dual-issue")
	}
	waw := isa.Instr{Op: isa.MOV, Cond: isa.AL, Rd: isa.R0, Op2: isa.RegOp(isa.R3)}
	if cfg.CanPair(older, waw) {
		t.Error("WAW pair must not dual-issue")
	}
	setter := isa.Instr{Op: isa.ADD, Cond: isa.AL, SetFlags: true, Rd: isa.R4, Rn: isa.R5, Op2: isa.Imm(1)}
	condUser := isa.Instr{Op: isa.MOV, Cond: isa.EQ, Rd: isa.R6, Op2: isa.RegOp(isa.R7)}
	if cfg.CanPair(setter, condUser) {
		t.Error("flag-dependent pair must not dual-issue")
	}
}

func TestStructuralOnlyPolicyDiffers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StructuralPolicyOnly = true
	// mov + ldr is blocked by policy, not structure.
	mov := isa.Instr{Op: isa.MOV, Cond: isa.AL, Rd: isa.R0, Op2: isa.RegOp(isa.R1)}
	ldr := isa.Instr{Op: isa.LDR, Cond: isa.AL, Rd: isa.R2, Mem: isa.MemImm(isa.R3, 0)}
	if !cfg.CanPair(mov, ldr) {
		t.Error("structural-only model must pair mov+ldr")
	}
	if DefaultConfig().CanPair(mov, ldr) {
		t.Error("Table 1 policy must block mov+ldr")
	}
	// ALU+ALU stays blocked either way: 4 reads > 3 ports.
	alu1 := isa.Instr{Op: isa.ADD, Cond: isa.AL, Rd: isa.R0, Rn: isa.R1, Op2: isa.RegOp(isa.R2)}
	alu2 := isa.Instr{Op: isa.ADD, Cond: isa.AL, Rd: isa.R3, Rn: isa.R4, Op2: isa.RegOp(isa.R5)}
	if cfg.CanPair(alu1, alu2) {
		t.Error("ALU+ALU must stay blocked by read ports")
	}
}

func TestColdCachesSlowFirstIteration(t *testing.T) {
	src := `
	outer:
		ldr r0, [r8]
		ldr r1, [r8, #4]
		subs r9, r9, #1
		bne outer
	`
	prog := isa.MustAssemble(src)
	c := MustNew(DefaultConfig(), nil)
	h := mem.DefaultHierarchy()
	c.SetHierarchy(h)
	c.SetReg(isa.R8, 0x1000)
	c.SetReg(isa.R9, 4)
	res, err := c.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	// First iteration pays miss penalties; later iterations are warm,
	// so total cycles must be far below 4x the cold iteration.
	cold := res.Issues[1].Cycle // after the first miss
	if cold == 0 {
		t.Error("first load must stall on a cold cache")
	}
	h.Warm = true
	c2 := MustNew(DefaultConfig(), nil)
	c2.SetHierarchy(h)
	c2.SetReg(isa.R8, 0x1000)
	c2.SetReg(isa.R9, 4)
	warm, err := c2.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cycles >= res.Cycles {
		t.Errorf("warm run (%d cycles) must beat cold run (%d cycles)", warm.Cycles, res.Cycles)
	}
}

// TestIssueRecordPipe pins the pipe each issue record carries: a
// shifter or multiplier user runs on pipe 1, the two halves of a
// dual-issued pair run on different pipes, and a single instruction
// without such a claim runs on pipe 0. The field lives in the record's
// padding, so the record stays 32 bytes on 64-bit hosts.
func TestIssueRecordPipe(t *testing.T) {
	if s := unsafe.Sizeof(IssueRecord{}); unsafe.Sizeof(0) == 8 && s != 32 {
		t.Errorf("IssueRecord is %d bytes, want 32", s)
	}
	prog := isa.MustAssemble(`
		mov r0, #1
		mov r1, #2
		lsl r2, r1, #2
		add r3, r0, #1
		add r4, r0, #3
		lsl r5, r1, #1
		mul r6, r0, r1
		nop
		add r8, r0, r1
	`)
	res, err := MustNew(DefaultConfig(), nil).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	claims := map[int]int{} // pipe-1 halves of dual pairs, by slot
	for i, is := range res.Issues {
		in := prog.Instrs[is.PC]
		switch {
		case needsPipe1(in) && is.Pipe != 1:
			t.Errorf("issue %d (%s): pipe %d, want 1", i, in, is.Pipe)
		case is.Dual && is.Slot == 1 && is.Pipe == res.Issues[i-1].Pipe:
			t.Errorf("issue %d (%s): pair shares pipe %d", i, in, is.Pipe)
		case !is.Dual && !needsPipe1(in) && is.Pipe != 0:
			t.Errorf("issue %d (%s): single issue on pipe %d, want 0", i, in, is.Pipe)
		}
		if is.Dual && is.Pipe == 1 {
			claims[is.Slot]++
		}
	}
	if claims[0] == 0 || claims[1] == 0 {
		t.Fatalf("pipe-1 halves by slot %v: a pairing leg did not run", claims)
	}
}
