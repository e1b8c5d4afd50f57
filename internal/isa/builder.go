package isa

import "fmt"

// Builder constructs a Program incrementally. It resolves forward label
// references at Build time; misuse (duplicate or missing labels) is
// reported as an error from Build rather than panicking, so generators can
// surface problems to their callers.
type Builder struct {
	instrs []Instr
	labels map[string]int
	errs   []error
}

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder {
	return &Builder{labels: make(map[string]int)}
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.instrs) }

// Emit appends a raw instruction and returns its index.
func (b *Builder) Emit(in Instr) int {
	b.instrs = append(b.instrs, in)
	return len(b.instrs) - 1
}

// Label binds name to the next instruction index.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("isa: duplicate label %q", name))
		return b
	}
	b.labels[name] = len(b.instrs)
	return b
}

// Nop emits n canonical nops.
func (b *Builder) Nop(n int) *Builder {
	for i := 0; i < n; i++ {
		b.Emit(Nop())
	}
	return b
}

// Mov emits "mov rd, rm".
func (b *Builder) Mov(rd, rm Reg) *Builder {
	b.Emit(Instr{Op: MOV, Cond: AL, Rd: rd, Op2: RegOp(rm)})
	return b
}

// MovImm emits "mov rd, #imm".
func (b *Builder) MovImm(rd Reg, imm uint32) *Builder {
	b.Emit(Instr{Op: MOV, Cond: AL, Rd: rd, Op2: Imm(imm)})
	return b
}

// ALU emits a three-register data-processing instruction "op rd, rn, rm".
func (b *Builder) ALU(op Op, rd, rn, rm Reg) *Builder {
	b.Emit(Instr{Op: op, Cond: AL, Rd: rd, Rn: rn, Op2: RegOp(rm)})
	return b
}

// ALUImm emits "op rd, rn, #imm".
func (b *Builder) ALUImm(op Op, rd, rn Reg, imm uint32) *Builder {
	b.Emit(Instr{Op: op, Cond: AL, Rd: rd, Rn: rn, Op2: Imm(imm)})
	return b
}

// ALUShift emits "op rd, rn, rm, <kind> #amt" (shifted flexible operand).
func (b *Builder) ALUShift(op Op, rd, rn, rm Reg, kind ShiftKind, amt uint8) *Builder {
	b.Emit(Instr{Op: op, Cond: AL, Rd: rd, Rn: rn, Op2: ShiftedReg(rm, kind, amt)})
	return b
}

// Add, Sub, Eor, And, Orr are convenience wrappers for common ALU ops.
func (b *Builder) Add(rd, rn, rm Reg) *Builder { return b.ALU(ADD, rd, rn, rm) }

// Sub emits "sub rd, rn, rm".
func (b *Builder) Sub(rd, rn, rm Reg) *Builder { return b.ALU(SUB, rd, rn, rm) }

// Eor emits "eor rd, rn, rm".
func (b *Builder) Eor(rd, rn, rm Reg) *Builder { return b.ALU(EOR, rd, rn, rm) }

// And emits "and rd, rn, rm".
func (b *Builder) And(rd, rn, rm Reg) *Builder { return b.ALU(AND, rd, rn, rm) }

// Orr emits "orr rd, rn, rm".
func (b *Builder) Orr(rd, rn, rm Reg) *Builder { return b.ALU(ORR, rd, rn, rm) }

// AddImm emits "add rd, rn, #imm".
func (b *Builder) AddImm(rd, rn Reg, imm uint32) *Builder { return b.ALUImm(ADD, rd, rn, imm) }

// AndImm emits "and rd, rn, #imm".
func (b *Builder) AndImm(rd, rn Reg, imm uint32) *Builder { return b.ALUImm(AND, rd, rn, imm) }

// Tst emits "tst rn, #imm".
func (b *Builder) Tst(rn Reg, imm uint32) *Builder {
	b.Emit(Instr{Op: TST, Cond: AL, Rn: rn, Op2: Imm(imm), SetFlags: true})
	return b
}

// Mul emits "mul rd, rn, rm".
func (b *Builder) Mul(rd, rn, rm Reg) *Builder {
	b.Emit(Instr{Op: MUL, Cond: AL, Rd: rd, Rn: rn, Rm: rm})
	return b
}

// Lsl emits "lsl rd, rm, #amt".
func (b *Builder) Lsl(rd, rm Reg, amt uint8) *Builder {
	b.Emit(Instr{Op: LSL, Cond: AL, Rd: rd, Op2: ShiftedReg(rm, ShiftLSL, amt)})
	return b
}

// Lsr emits "lsr rd, rm, #amt".
func (b *Builder) Lsr(rd, rm Reg, amt uint8) *Builder {
	b.Emit(Instr{Op: LSR, Cond: AL, Rd: rd, Op2: ShiftedReg(rm, ShiftLSR, amt)})
	return b
}

// Ror emits "ror rd, rm, #amt".
func (b *Builder) Ror(rd, rm Reg, amt uint8) *Builder {
	b.Emit(Instr{Op: ROR, Cond: AL, Rd: rd, Op2: ShiftedReg(rm, ShiftROR, amt)})
	return b
}

// Ldr emits "ldr rd, [base]".
func (b *Builder) Ldr(rd, base Reg) *Builder {
	b.Emit(Instr{Op: LDR, Cond: AL, Rd: rd, Mem: MemOperand{Base: base, OffImm: true}})
	return b
}

// LdrOff emits "ldr rd, [base, #off]".
func (b *Builder) LdrOff(rd, base Reg, off int32) *Builder {
	b.Emit(Instr{Op: LDR, Cond: AL, Rd: rd, Mem: MemImm(base, off)})
	return b
}

// Ldrb emits "ldrb rd, [base, #off]".
func (b *Builder) Ldrb(rd, base Reg, off int32) *Builder {
	b.Emit(Instr{Op: LDRB, Cond: AL, Rd: rd, Mem: MemImm(base, off)})
	return b
}

// LdrbReg emits "ldrb rd, [base, roff]".
func (b *Builder) LdrbReg(rd, base, roff Reg) *Builder {
	b.Emit(Instr{Op: LDRB, Cond: AL, Rd: rd, Mem: MemReg(base, roff)})
	return b
}

// Str emits "str rd, [base]".
func (b *Builder) Str(rd, base Reg) *Builder {
	b.Emit(Instr{Op: STR, Cond: AL, Rd: rd, Mem: MemOperand{Base: base, OffImm: true}})
	return b
}

// StrOff emits "str rd, [base, #off]".
func (b *Builder) StrOff(rd, base Reg, off int32) *Builder {
	b.Emit(Instr{Op: STR, Cond: AL, Rd: rd, Mem: MemImm(base, off)})
	return b
}

// Strb emits "strb rd, [base, #off]".
func (b *Builder) Strb(rd, base Reg, off int32) *Builder {
	b.Emit(Instr{Op: STRB, Cond: AL, Rd: rd, Mem: MemImm(base, off)})
	return b
}

// B emits an unconditional branch to label.
func (b *Builder) B(label string) *Builder {
	b.Emit(Instr{Op: B, Cond: AL, Label: label, Target: -1})
	return b
}

// BCond emits a conditional branch to label.
func (b *Builder) BCond(c Cond, label string) *Builder {
	b.Emit(Instr{Op: B, Cond: c, Label: label, Target: -1})
	return b
}

// Bl emits a branch-with-link to label.
func (b *Builder) Bl(label string) *Builder {
	b.Emit(Instr{Op: BL, Cond: AL, Rd: LR, Label: label, Target: -1})
	return b
}

// Bx emits "bx rm" (function return).
func (b *Builder) Bx(rm Reg) *Builder {
	b.Emit(Instr{Op: BX, Cond: AL, Rm: rm})
	return b
}

// Build resolves labels and returns the validated program.
func (b *Builder) Build() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	instrs := make([]Instr, len(b.instrs))
	copy(instrs, b.instrs)
	for i := range instrs {
		in := &instrs[i]
		if in.Op.IsBranch() && in.Op != BX && in.Label != "" {
			tgt, ok := b.labels[in.Label]
			if !ok {
				return nil, fmt.Errorf("isa: undefined label %q at instruction %d", in.Label, i)
			}
			in.Target = tgt
		}
	}
	symbols := make(map[string]int, len(b.labels))
	for k, v := range b.labels {
		symbols[k] = v
	}
	p := &Program{Instrs: instrs, Symbols: symbols}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error, for use in tests and
// statically-known-correct generators.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
