package present

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/target"
)

// Register convention of the generated program.
const (
	regState = isa.R0 // state base address
	regKeys  = isa.R1 // round-key schedule base address
	regSbox  = isa.R2 // byte-doubled S-box table base address
	regT0    = isa.R4 // scratch byte / low state word
	regT1    = isa.R5 // scratch byte / high state word
	regO0    = isa.R6 // low output word of the pLayer gather
	regO1    = isa.R7 // high output word of the pLayer gather
	regTmp   = isa.R8 // extracted bit in flight
)

// Default memory layout of the generated program. The round-key
// schedule is 32 x 8 bytes, so it ends exactly where the S-box starts.
const (
	DefaultStateAddr = 0x1000
	DefaultKeyAddr   = 0x1100
	DefaultSboxAddr  = 0x1200
)

// Layout describes where the generated program expects its data and how
// its instructions map back to cipher primitives.
type Layout struct {
	StateAddr uint32
	KeyAddr   uint32
	SboxAddr  uint32
	// Regions are the primitive occurrences. Name is "ARK", "SB" or
	// "pL" — or "XK<j>" for state byte j's S-box table lookup inside the
	// sBoxLayer, the instruction whose load-data transition the
	// key-recovery attack windows on. Round is the 1-based cipher round
	// (the final whitening ARK gets Rounds+1).
	Regions []target.Region
	// PadNops is the number of pipeline-flushing nops emitted before and
	// after the cipher body.
	PadNops int
}

// ProgramOptions selects the shape of the generated PRESENT program.
type ProgramOptions struct {
	// Rounds is the number of addRoundKey+sBoxLayer+pLayer rounds
	// (1..31); 31 adds the final whitening key.
	Rounds int
	// PadNops is the number of nops emitted before and after the body.
	PadNops int
}

// wordBit maps 64-bit state bit s (0 = LSB) to its home in the two
// little-endian words the pLayer gathers through: the state is stored
// big-endian in memory (byte 0 = bits 63..56), so memory byte 7-s/8
// holds bit s, and the LE word load puts memory byte b at word bits
// 8b..8b+7.
func wordBit(s int) (word, bit int) {
	b := 7 - s/8
	if b < 4 {
		return 0, 8*b + s%8
	}
	return 1, 8*(b-4) + s%8
}

// BuildProgram emits the byte-oriented PRESENT-80 implementation:
// per-byte ARK and table-lookup sBoxLayer (a load and a subsequent
// store per byte, the same leak shape as the AES target), and a pLayer
// spelled as a 64-step register bit gather — extract each state bit
// with a shift-and-mask, OR it into place through the barrel shifter —
// a long pure-ALU stretch the AES workload never exercises.
func BuildProgram(opts ProgramOptions) (*isa.Program, *Layout, error) {
	if opts.Rounds < 1 || opts.Rounds > Rounds {
		return nil, nil, fmt.Errorf("present: rounds must be in [1,%d], got %d", Rounds, opts.Rounds)
	}
	if opts.PadNops < 0 {
		return nil, nil, fmt.Errorf("present: pad nops must be >= 0, got %d", opts.PadNops)
	}
	b := isa.NewBuilder()
	l := &Layout{
		StateAddr: DefaultStateAddr,
		KeyAddr:   DefaultKeyAddr,
		SboxAddr:  DefaultSboxAddr,
		PadNops:   opts.PadNops,
	}

	b.Nop(opts.PadNops)

	mark := func(name string, round int, body func()) {
		start := b.Len()
		body()
		l.Regions = append(l.Regions, target.Region{Name: name, Round: round, Start: start, End: b.Len()})
	}

	ark := func(round, keyIdx int) {
		mark("ARK", round, func() {
			for j := 0; j < BlockSize; j++ {
				b.Ldrb(regT0, regState, int32(j))
				b.Ldrb(regT1, regKeys, int32(BlockSize*keyIdx+j))
				b.Eor(regT0, regT0, regT1)
				b.Strb(regT0, regState, int32(j))
			}
		})
	}

	sub := func(round int) {
		mark("SB", round, func() {
			for j := 0; j < BlockSize; j++ {
				b.Ldrb(regT0, regState, int32(j))
				xk := b.Len()
				b.LdrbReg(regT0, regSbox, regT0)
				l.Regions = append(l.Regions, target.Region{
					Name: fmt.Sprintf("XK%d", j), Round: round, Start: xk, End: xk + 1,
				})
				b.Strb(regT0, regState, int32(j))
			}
		})
	}

	perm := func(round int) {
		mark("pL", round, func() {
			b.Ldr(regT0, regState)
			b.LdrOff(regT1, regState, 4)
			// x^x zeroes without a MovImm literal.
			b.Eor(regO0, regO0, regO0)
			b.Eor(regO1, regO1, regO1)
			srcs := [2]isa.Reg{regT0, regT1}
			outs := [2]isa.Reg{regO0, regO1}
			for s := 0; s < 64; s++ {
				sw, sb := wordBit(s)
				dw, db := wordBit(pBit(s))
				// LSR #0 would encode as a 32-bit shift; mask in place
				// instead when the source bit is already at position 0.
				if sb == 0 {
					b.AndImm(regTmp, srcs[sw], 1)
				} else {
					b.Lsr(regTmp, srcs[sw], uint8(sb))
					b.AndImm(regTmp, regTmp, 1)
				}
				if db == 0 {
					b.Orr(outs[dw], outs[dw], regTmp)
				} else {
					b.ALUShift(isa.ORR, outs[dw], outs[dw], regTmp, isa.ShiftLSL, uint8(db))
				}
			}
			b.Str(regO0, regState)
			b.StrOff(regO1, regState, 4)
		})
	}

	for r := 1; r <= opts.Rounds; r++ {
		ark(r, r-1)
		sub(r)
		perm(r)
	}
	if opts.Rounds == Rounds {
		ark(Rounds+1, Rounds)
	}

	b.Nop(opts.PadNops)

	prog, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return prog, l, nil
}
