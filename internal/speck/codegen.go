package speck

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/target"
)

// Register convention of the generated program.
const (
	regState = isa.R0 // state base address (x at +0, y at +4)
	regKeys  = isa.R1 // round-key schedule base address
	regX     = isa.R4 // x word in flight
	regY     = isa.R5 // y word in flight
	regK     = isa.R6 // round key in flight
)

// Default memory layout of the generated program.
const (
	DefaultStateAddr = 0x1000
	DefaultKeyAddr   = 0x1100
)

// Layout describes where the generated program expects its data and how
// its instructions map back to cipher rounds.
type Layout struct {
	StateAddr uint32
	KeyAddr   uint32
	// Regions are the rounds. Name is "ARX" for a whole round, or "XK"
	// for the round's single eor that mixes the round key into the
	// addition output — the instruction whose ALU-result leak the
	// key-recovery attack windows on. Round is the 1-based cipher round.
	Regions []target.Region
	// PadNops is the number of pipeline-flushing nops emitted before and
	// after the cipher body.
	PadNops int
}

// ProgramOptions selects the shape of the generated Speck program.
type ProgramOptions struct {
	// Rounds is the number of ARX rounds (1..27).
	Rounds int
	// PadNops is the number of nops emitted before and after the body.
	PadNops int
}

// BuildProgram emits the word-oriented Speck64/128 implementation: each
// round loads the word pair, rotates, adds, mixes the round key and
// stores both halves back — the store of the freshly keyed x word is
// the attacked leak.
func BuildProgram(opts ProgramOptions) (*isa.Program, *Layout, error) {
	if opts.Rounds < 1 || opts.Rounds > Rounds {
		return nil, nil, fmt.Errorf("speck: rounds must be in [1,%d], got %d", Rounds, opts.Rounds)
	}
	if opts.PadNops < 0 {
		return nil, nil, fmt.Errorf("speck: pad nops must be >= 0, got %d", opts.PadNops)
	}
	b := isa.NewBuilder()
	l := &Layout{
		StateAddr: DefaultStateAddr,
		KeyAddr:   DefaultKeyAddr,
		PadNops:   opts.PadNops,
	}

	b.Nop(opts.PadNops)

	for r := 1; r <= opts.Rounds; r++ {
		start := b.Len()
		b.Ldr(regX, regState)
		b.LdrOff(regY, regState, 4)
		b.Ror(regX, regX, 8)
		b.Add(regX, regX, regY)
		b.LdrOff(regK, regKeys, int32(4*(r-1)))
		xk := b.Len()
		b.Eor(regX, regX, regK)
		b.Str(regX, regState)
		// ROL(y,3) is ROR by 29.
		b.Ror(regY, regY, 29)
		b.Eor(regY, regY, regX)
		b.StrOff(regY, regState, 4)
		l.Regions = append(l.Regions,
			target.Region{Name: "ARX", Round: r, Start: start, End: b.Len()},
			target.Region{Name: "XK", Round: r, Start: xk, End: xk + 1})
	}

	b.Nop(opts.PadNops)

	prog, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return prog, l, nil
}
