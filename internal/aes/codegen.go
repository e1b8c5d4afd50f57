package aes

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/target"
)

// Register convention of the generated program.
const (
	regState = isa.R0 // state base address
	regKeys  = isa.R1 // round-key schedule base address
	regSbox  = isa.R2 // S-box base address
	regXArg  = isa.R3 // xtime argument
	regT0    = isa.R4
	regT1    = isa.R5
	regT2    = isa.R6
	regT3    = isa.R7
	regAcc   = isa.R8 // column parity t in MixColumns
	regXRes  = isa.R9 // xtime result
	regTmp   = isa.R10
)

// Default memory layout of the generated program.
const (
	DefaultStateAddr = 0x1000
	DefaultKeyAddr   = 0x1100
	DefaultSboxAddr  = 0x1200
	DefaultStackAddr = 0x2000
)

// Layout describes where the generated program expects its data and how
// its instructions map back to cipher primitives.
type Layout struct {
	StateAddr uint32
	KeyAddr   uint32
	SboxAddr  uint32
	StackAddr uint32
	// Regions are the primitive occurrences, for annotating the Figure 3
	// correlation curve. Name is "ARK", "SB", "ShR" or "MC"; Round is
	// the 0-based AddRoundKey round or the 1-based cipher round.
	Regions []target.Region
	// PadNops is the number of pipeline-flushing nops emitted before and
	// after the cipher body, mirroring the paper's measurement harness.
	PadNops int
}

// ProgramOptions selects the shape of the generated AES program.
type ProgramOptions struct {
	// Rounds is the number of cipher rounds: 10 generates the complete
	// AES-128 (final round without MixColumns); 1..9 generates the
	// initial AddRoundKey plus that many full rounds, the truncated
	// target used to keep first-round attacks fast.
	Rounds int
	// PadNops is the number of nops emitted before and after the cipher
	// body (the paper uses 100; 16 keeps traces compact while still
	// flushing the pipeline state).
	PadNops int
}

// BuildProgram emits the byte-oriented AES-128 assembly implementation:
// per-byte table-lookup SubBytes (a load and a subsequent store per
// byte), ShiftRows composing each row in a register and rotating it, and
// MixColumns calling a non-inlined shift-reduce xtime with stack spills
// and fills — the §5 target.
func BuildProgram(opts ProgramOptions) (*isa.Program, *Layout, error) {
	if opts.Rounds < 1 || opts.Rounds > Rounds {
		return nil, nil, fmt.Errorf("aes: rounds must be in [1,%d], got %d", Rounds, opts.Rounds)
	}
	if opts.PadNops < 0 {
		return nil, nil, fmt.Errorf("aes: pad nops must be >= 0, got %d", opts.PadNops)
	}
	b := isa.NewBuilder()
	l := &Layout{
		StateAddr: DefaultStateAddr,
		KeyAddr:   DefaultKeyAddr,
		SboxAddr:  DefaultSboxAddr,
		StackAddr: DefaultStackAddr,
		PadNops:   opts.PadNops,
	}

	b.B("main")

	// xtime: r9 = GF(2^8) doubling of r3 (shift, conditional reduce).
	b.Label("xtime")
	b.Lsl(regXRes, regXArg, 1)
	b.Tst(regXArg, 0x80)
	b.Emit(isa.Instr{Op: isa.EOR, Cond: isa.NE, Rd: regXRes, Rn: regXRes, Op2: isa.Imm(0x1B)})
	b.AndImm(regXRes, regXRes, 0xFF)
	b.Bx(isa.LR)

	b.Label("main")
	b.Nop(opts.PadNops)

	mark := func(name string, round int, body func()) {
		start := b.Len()
		body()
		l.Regions = append(l.Regions, target.Region{Name: name, Round: round, Start: start, End: b.Len()})
	}

	ark := func(round int) {
		mark("ARK", round, func() {
			for i := 0; i < BlockSize; i++ {
				b.Ldrb(regT0, regState, int32(i))
				b.Ldrb(regT1, regKeys, int32(16*round+i))
				b.Eor(regT0, regT0, regT1)
				b.Strb(regT0, regState, int32(i))
			}
		})
	}

	// SubBytes is register-blocked: four table lookups into r4..r7, then
	// four back-to-back byte stores. The burst of consecutive strb makes
	// the SubBytes output bytes meet in the MDR (and the align buffer) —
	// the "two consecutively stored bytes" leakage the paper's Figure 4
	// model exploits — while each output is still the load and subsequent
	// store of an S-box entry (the Figure 3 observation).
	sub := func(round int) {
		mark("SB", round, func() {
			outs := [4]isa.Reg{regT0, regT1, regT2, regT3}
			for g := 0; g < 4; g++ {
				for i := 0; i < 4; i++ {
					b.Ldrb(regXArg, regState, int32(4*g+i))
					b.LdrbReg(outs[i], regSbox, regXArg)
				}
				for i := 0; i < 4; i++ {
					b.Strb(outs[i], regState, int32(4*g+i))
				}
			}
		})
	}

	shiftRows := func(round int) {
		mark("ShR", round, func() {
			for r := 1; r < 4; r++ {
				// Compose the row in a register: w = b0|b1<<8|b2<<16|b3<<24.
				b.Ldrb(regT0, regState, int32(r))
				b.Ldrb(regT1, regState, int32(r+4))
				b.ALUShift(isa.ORR, regT0, regT0, regT1, isa.ShiftLSL, 8)
				b.Ldrb(regT1, regState, int32(r+8))
				b.ALUShift(isa.ORR, regT0, regT0, regT1, isa.ShiftLSL, 16)
				b.Ldrb(regT1, regState, int32(r+12))
				b.ALUShift(isa.ORR, regT0, regT0, regT1, isa.ShiftLSL, 24)
				// Rotate the packed row left by r byte positions:
				// row[c] = old row[(c+r)%4] is ror by 8r.
				b.Ror(regT0, regT0, uint8(8*r))
				// Store back byte by byte, shifting the register
				// progressively — the ShiftRows leakage of §5.
				b.Strb(regT0, regState, int32(r))
				b.Lsr(regT1, regT0, 8)
				b.Strb(regT1, regState, int32(r+4))
				b.Lsr(regT1, regT0, 16)
				b.Strb(regT1, regState, int32(r+8))
				b.Lsr(regT1, regT0, 24)
				b.Strb(regT1, regState, int32(r+12))
			}
		})
	}

	mixColumn := func(c int) {
		base := int32(4 * c)
		b.Ldrb(regT0, regState, base)
		b.Ldrb(regT1, regState, base+1)
		b.Ldrb(regT2, regState, base+2)
		b.Ldrb(regT3, regState, base+3)
		b.Eor(regAcc, regT0, regT1)
		b.Eor(regAcc, regAcc, regT2)
		b.Eor(regAcc, regAcc, regT3)
		terms := [4][2]isa.Reg{{regT0, regT1}, {regT1, regT2}, {regT2, regT3}, {regT3, regT0}}
		for i, p := range terms {
			b.Eor(regXArg, p[0], p[1])
			b.Bl("xtime")
			b.Eor(regTmp, p[0], regAcc)
			b.Eor(regTmp, regTmp, regXRes)
			// Spill the new byte to the stack; the column is filled back
			// as a word and stored to the state below (§5 "spills and
			// fills into the register file").
			b.Strb(regTmp, isa.SP, int32(i))
		}
		b.Ldr(regTmp, isa.SP)
		b.StrOff(regTmp, regState, base)
	}

	mix := func(round int) {
		mark("MC", round, func() {
			for c := 0; c < 4; c++ {
				mixColumn(c)
			}
		})
	}

	ark(0)
	full := opts.Rounds
	if opts.Rounds == Rounds {
		full = Rounds - 1
	}
	for r := 1; r <= full; r++ {
		sub(r)
		shiftRows(r)
		mix(r)
		ark(r)
	}
	if opts.Rounds == Rounds {
		sub(Rounds)
		shiftRows(Rounds)
		ark(Rounds)
	}
	b.Nop(opts.PadNops)

	prog, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return prog, l, nil
}
