package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/power"
)

func shareSpec() TaintSpec {
	return TaintSpec{Regs: map[isa.Reg]Labels{
		isa.R0: {"key.0"},
		isa.R1: {"key.1"},
	}}
}

func TestSchedulerFixesNaiveGadget(t *testing.T) {
	// The naive gadget: share instructions back-to-back plus two
	// independent spacers the scheduler may move between them.
	prog := isa.MustAssemble(`
		eor r4, r0, r2
		eor r5, r1, r3
		add r6, r7, r8
		add r9, r7, r8
	`)
	cfg := pipeline.ScalarConfig() // hardest case: no dual-issue rescue
	res, err := ScheduleForSecurity(prog, cfg, power.DefaultModel(), nil, shareSpec(), "key")
	if err != nil {
		t.Fatal(err)
	}
	if res.Original == 0 {
		t.Fatal("input gadget should violate")
	}
	if res.Violations != 0 {
		t.Fatalf("scheduler left %d violations (from %d):\n%s", res.Violations, res.Original, res.Prog)
	}
	// Semantics preserved: same registers, same final values.
	run := func(p *isa.Program) [isa.NumRegs]uint32 {
		c := pipeline.MustNew(cfg, nil)
		c.SetRegs(0x1111, 0x2222, 0x3333, 0x4444, 0, 0, 0, 0x77, 0x88)
		r, err := c.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return r.Regs
	}
	if run(prog) != run(res.Prog) {
		t.Error("scheduler changed program semantics")
	}
}

func TestSchedulerKeepsCleanProgram(t *testing.T) {
	prog := isa.MustAssemble(`
		eor r4, r0, r2
		add r6, r7, r8
		add r9, r7, r8
		eor r5, r1, r3
	`)
	res, err := ScheduleForSecurity(prog, pipeline.ScalarConfig(), power.DefaultModel(), nil, shareSpec(), "key")
	if err != nil {
		t.Fatal(err)
	}
	if res.Original != 0 || res.Violations != 0 {
		t.Fatalf("clean program misjudged: %d -> %d", res.Original, res.Violations)
	}
	for i, o := range res.Order {
		if i != o {
			t.Fatal("clean program must keep its order")
		}
	}
}

func TestSchedulerRespectsDependences(t *testing.T) {
	// r4 feeds the second eor: the shares cannot be separated by moving
	// dependent code, only by the (single) independent add — which is
	// not enough on a scalar core, so violations remain, but semantics
	// must hold.
	prog := isa.MustAssemble(`
		eor r4, r0, r2
		eor r5, r1, r4
		add r6, r7, r8
	`)
	cfg := pipeline.ScalarConfig()
	res, err := ScheduleForSecurity(prog, cfg, power.DefaultModel(), nil, shareSpec(), "key")
	if err != nil {
		t.Fatal(err)
	}
	run := func(p *isa.Program) [isa.NumRegs]uint32 {
		c := pipeline.MustNew(cfg, nil)
		c.SetRegs(1, 2, 3, 4, 0, 0, 0, 7, 8)
		r, err := c.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return r.Regs
	}
	if run(prog) != run(res.Prog) {
		t.Fatal("scheduler broke a dependence")
	}
	if res.Violations > res.Original {
		t.Fatal("scheduler made things worse")
	}
}

func TestSchedulerRejectsBranches(t *testing.T) {
	prog := isa.MustAssemble("loop:\n add r0, r0, #1\n b loop")
	if _, err := ScheduleForSecurity(prog, pipeline.DefaultConfig(), power.DefaultModel(), nil, shareSpec(), "key"); err == nil {
		t.Error("branches must be rejected")
	}
}

func TestSchedulerRejectsLongPrograms(t *testing.T) {
	b := isa.NewBuilder()
	for i := 0; i < 13; i++ {
		b.ALUImm(isa.ADD, isa.R0, isa.R0, 1)
	}
	if _, err := ScheduleForSecurity(b.MustBuild(), pipeline.DefaultConfig(), power.DefaultModel(), nil, shareSpec(), "key"); err == nil {
		t.Error("oversized programs must be rejected")
	}
}

func TestDependsOn(t *testing.T) {
	add := isa.Instr{Op: isa.ADD, Cond: isa.AL, Rd: isa.R0, Rn: isa.R1, Op2: isa.RegOp(isa.R2)}
	useR0 := isa.Instr{Op: isa.ADD, Cond: isa.AL, Rd: isa.R3, Rn: isa.R0, Op2: isa.RegOp(isa.R4)}
	indep := isa.Instr{Op: isa.ADD, Cond: isa.AL, Rd: isa.R5, Rn: isa.R6, Op2: isa.RegOp(isa.R7)}
	if !dependsOn(add, useR0) {
		t.Error("RAW not detected")
	}
	if dependsOn(add, indep) {
		t.Error("false dependence")
	}
	waw := isa.Instr{Op: isa.ADD, Cond: isa.AL, Rd: isa.R0, Rn: isa.R6, Op2: isa.RegOp(isa.R7)}
	if !dependsOn(add, waw) {
		t.Error("WAW not detected")
	}
	war := isa.Instr{Op: isa.ADD, Cond: isa.AL, Rd: isa.R1, Rn: isa.R6, Op2: isa.RegOp(isa.R7)}
	if !dependsOn(add, war) {
		t.Error("WAR not detected")
	}
	ld := isa.Instr{Op: isa.LDR, Cond: isa.AL, Rd: isa.R9, Mem: isa.MemImm(isa.R10, 0)}
	st := isa.Instr{Op: isa.STR, Cond: isa.AL, Rd: isa.R9, Mem: isa.MemImm(isa.R10, 0)}
	ld2 := isa.Instr{Op: isa.LDR, Cond: isa.AL, Rd: isa.R11, Mem: isa.MemImm(isa.R12, 0)}
	if !dependsOn(ld, st) || !dependsOn(st, ld2) {
		t.Error("memory ordering not enforced")
	}
	if dependsOn(ld, ld2) {
		t.Error("two loads must be reorderable")
	}
}
