package isa

import (
	"strings"
	"testing"
)

func TestAssembleBasic(t *testing.T) {
	p, err := Assemble(`
		@ a tiny program
		mov r0, r1
		mov r2, #42
		add r3, r4, r5
		add r3, r4, #0x10
		eor r6, r7, r8, lsl #2
		mul r9, r10, r11
		lsl r1, r2, #3
		ldr r0, [r1]
		ldrb r2, [r3, #1]
		str r4, [r5, r6]
		nop
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 11 {
		t.Fatalf("program length = %d, want 11", p.Len())
	}
	wantClasses := []Class{
		ClassMov, ClassMov, ClassALU, ClassALUImm, ClassShift, ClassMul,
		ClassShift, ClassLoadStore, ClassLoadStore, ClassLoadStore, ClassNop,
	}
	for i, c := range wantClasses {
		if got := Classify(p.Instrs[i]); got != c {
			t.Errorf("instr %d (%s) class = %v, want %v", i, p.Instrs[i], got, c)
		}
	}
}

func TestAssembleLabelsAndBranches(t *testing.T) {
	p, err := Assemble(`
	start:
		mov r0, #0
	loop:
		add r0, r0, #1
		cmp r0, #10
		bne loop
		b done
		nop
	done:
		bx lr
	`)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Symbols["start"]; got != 0 {
		t.Errorf("start = %d, want 0", got)
	}
	if got := p.Symbols["loop"]; got != 1 {
		t.Errorf("loop = %d, want 1", got)
	}
	bne := p.Instrs[3]
	if bne.Op != B || bne.Cond != NE || bne.Target != 1 {
		t.Errorf("bne = %+v, want branch NE to 1", bne)
	}
	b := p.Instrs[4]
	if b.Target != p.Symbols["done"] {
		t.Errorf("b target = %d, want %d", b.Target, p.Symbols["done"])
	}
}

func TestAssembleConditionsAndFlags(t *testing.T) {
	p, err := Assemble(`
		addeq r0, r1, r2
		adds r0, r1, r2
		addseq r0, r1, r2
		subne r3, r4, #1
		moveq r5, r6
		bls out
	out:
	`)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		i        int
		cond     Cond
		setFlags bool
	}{
		{0, EQ, false}, {1, AL, true}, {2, EQ, true}, {3, NE, false}, {4, EQ, false}, {5, LS, false},
	}
	for _, c := range checks {
		in := p.Instrs[c.i]
		if in.Cond != c.cond || in.SetFlags != c.setFlags {
			t.Errorf("instr %d (%s): cond=%v setFlags=%v, want %v/%v",
				c.i, in, in.Cond, in.SetFlags, c.cond, c.setFlags)
		}
	}
	// "bls" must be branch-on-LS, not bl with S.
	if p.Instrs[5].Op != B {
		t.Errorf("bls parsed as %v, want b", p.Instrs[5].Op)
	}
}

func TestAssembleMemoryModes(t *testing.T) {
	p, err := Assemble(`
		ldr r0, [r1]
		ldr r0, [r1, #4]
		ldr r0, [r1, #-4]
		ldr r0, [r1, r2]
		ldr r0, [r1, #4]!
		ldr r0, [r1], #4
		strh r3, [r4, #2]
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Instrs[2].Mem
	if !m.OffImm || m.Imm != -4 {
		t.Errorf("negative offset = %+v", m)
	}
	m = p.Instrs[3].Mem
	if !m.HasOffReg || m.OffReg != R2 {
		t.Errorf("register offset = %+v", m)
	}
	m = p.Instrs[4].Mem
	if !m.WriteBack || m.PostIndex {
		t.Errorf("pre-index write-back = %+v", m)
	}
	m = p.Instrs[5].Mem
	if !m.PostIndex || m.WriteBack || m.Imm != 4 {
		t.Errorf("post-index = %+v", m)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"frob r0, r1",                        // unknown mnemonic
		"mov r0",                             // missing operand
		"add r0, r1",                         // missing operand
		"mov r16, r0",                        // bad register
		"b",                                  // missing target
		"b nowhere",                          // undefined label
		"ldr r0, [r1, #4]!, #2",              // malformed
		"nop r0",                             // nop takes no operands
		"lsl r0, r1, #40",                    // shift amount out of range
		"dup: dup: mov r0, r0 \n mov r1, r1", // duplicate label (same line twice)
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

func TestAssembleCommentsAndBlankLines(t *testing.T) {
	p, err := Assemble(`
		// full line comment
		; another
		@ and another

		mov r0, r1 @ trailing
		mov r2, r3 ; trailing
		mov r4, r5 // trailing
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Fatalf("length = %d, want 3", p.Len())
	}
}

// Round trip: disassembling and re-assembling must preserve the program.
func TestAssembleDisassembleRoundTrip(t *testing.T) {
	src := `
	entry:
		mov r0, #0
		mvn r1, r2
		add r3, r4, r5
		adc r3, r4, #1
		sub r6, r7, r8, lsr #4
		rsb r9, r10, #0
		and r1, r2, r3
		orr r1, r2, #0xF0
		eor r4, r5, r6
		bic r4, r5, #0xFF
		cmp r1, #3
		tst r2, r3
		mul r0, r1, r2
		mla r0, r1, r2, r3
		lsl r1, r2, #5
		lsr r1, r2, #5
		asr r1, r2, #5
		ror r1, r2, #5
		ldr r0, [r1, #4]
		ldrb r0, [r1, r2]
		ldrh r0, [r1]
		str r0, [r1, #-8]
		strb r0, [r1]
		strh r0, [r1, #2]
		beq entry
		bne entry
		b entry
		bl entry
		bx lr
		nop
	`
	p1, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Assemble(p1.String())
	if err != nil {
		t.Fatalf("re-assemble: %v\nsource:\n%s", err, p1)
	}
	if p1.Len() != p2.Len() {
		t.Fatalf("length mismatch: %d vs %d", p1.Len(), p2.Len())
	}
	for i := range p1.Instrs {
		a, b := p1.Instrs[i], p2.Instrs[i]
		a.Label, b.Label = "", "" // String() prints resolved targets via labels
		if a.String() != b.String() {
			t.Errorf("instr %d: %q vs %q", i, a.String(), b.String())
		}
	}
}

func TestBuilderMirrorsAssembler(t *testing.T) {
	b := NewBuilder()
	b.Label("top").
		Tst(R0, 7).
		Add(R1, R2, R3).
		ALUImm(ADD, R1, R2, 16).
		Eor(R4, R5, R6).
		Lsl(R7, R8, 3).
		Orr(R9, R10, R11).
		LdrOff(R0, R1, 4).
		Strb(R2, R3, 1).
		B("top").
		Nop(2)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	src := `
	top:
		tst r0, #7
		add r1, r2, r3
		add r1, r2, #16
		eor r4, r5, r6
		lsl r7, r8, #3
		orr r9, r10, r11
		ldr r0, [r1, #4]
		strb r2, [r3, #1]
		b top
		nop
		nop
	`
	q, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != q.Len() {
		t.Fatalf("length mismatch: %d vs %d", p.Len(), q.Len())
	}
	for i := range p.Instrs {
		if p.Instrs[i].String() != q.Instrs[i].String() {
			t.Errorf("instr %d: builder %q vs asm %q", i, p.Instrs[i], q.Instrs[i])
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	b.B("missing")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("expected undefined-label error, got %v", err)
	}
	b2 := NewBuilder()
	b2.Label("x").Label("x")
	if _, err := b2.Build(); err == nil {
		t.Error("expected duplicate-label error")
	}
}

func TestProgramString(t *testing.T) {
	p := MustAssemble("loop:\n add r0, r0, #1\n b loop")
	s := p.String()
	if !strings.Contains(s, "loop:") || !strings.Contains(s, "add r0, r0, #1") {
		t.Errorf("program listing missing content:\n%s", s)
	}
}
