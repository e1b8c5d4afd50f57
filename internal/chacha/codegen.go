package chacha

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/target"
)

// Register convention of the generated program: the state base plus two
// full quarter-round register sets, so two columns run interleaved.
const (
	regState = isa.R0
	regA0    = isa.R4
	regB0    = isa.R5
	regC0    = isa.R6
	regD0    = isa.R7
	regA1    = isa.R8
	regB1    = isa.R9
	regC1    = isa.R10
	regD1    = isa.R11
)

// DefaultStateAddr is where the generated program expects the 16-word
// state (constants row, key row, key row, input row).
const DefaultStateAddr = 0x1000

// Layout describes where the generated program expects its data and how
// its instructions map back to quarter-round sweeps.
type Layout struct {
	StateAddr uint32
	// Regions are the interleaved column pairs. Name is "QRa" (columns
	// 0 and 1) or "QRb" (columns 2 and 3) for a whole quarter-round
	// pair, or "XK0".."XK3" for column i's first d-word store — the
	// instruction whose MDR transition against the just-stored a word
	// carries the leak the key-recovery attack windows on. Round is the
	// 1-based column-round sweep.
	Regions []target.Region
	// PadNops is the number of pipeline-flushing nops emitted before and
	// after the body.
	PadNops int
}

// ProgramOptions selects the shape of the generated ChaCha program.
type ProgramOptions struct {
	// Rounds is the number of column-round sweeps (1..8).
	Rounds int
	// PadNops is the number of nops emitted before and after the body.
	PadNops int
}

// BuildProgram emits the column-round ChaCha implementation. Columns
// are processed in interleaved pairs — the same quarter-round step
// issued for two independent dataflows back to back — so the dual-issue
// pipeline's second slot has work every cycle; each intermediate word
// is stored back to the state right after it is produced, giving the
// attack a store leak per ARX step.
func BuildProgram(opts ProgramOptions) (*isa.Program, *Layout, error) {
	if opts.Rounds < 1 || opts.Rounds > Rounds {
		return nil, nil, fmt.Errorf("chacha: rounds must be in [1,%d], got %d", Rounds, opts.Rounds)
	}
	if opts.PadNops < 0 {
		return nil, nil, fmt.Errorf("chacha: pad nops must be >= 0, got %d", opts.PadNops)
	}
	b := isa.NewBuilder()
	l := &Layout{StateAddr: DefaultStateAddr, PadNops: opts.PadNops}

	b.Nop(opts.PadNops)

	type colRegs struct{ a, b, c, d isa.Reg }
	sets := [2]colRegs{
		{regA0, regB0, regC0, regD0},
		{regA1, regB1, regC1, regD1},
	}

	// pair runs the quarter-round on columns col and col+1, alternating
	// between the two register sets. Steps 1 and 2 are fused and their
	// stores reordered into per-column a-then-d order, so each d store's
	// MDR transition is HD(a, ROL(d^a,16)) — a value pair that depends
	// on the input row only through the attacked intermediate. It
	// records each column's d store as an "XK<i>" region.
	pair := func(col, round int) {
		regs := [2]colRegs{sets[0], sets[1]}
		off := [2][4]int32{}
		for i := 0; i < 2; i++ {
			c := int32(4 * (col + i))
			off[i] = [4]int32{c, 16 + c, 32 + c, 48 + c}
		}
		both := func(f func(r colRegs, o [4]int32)) {
			f(regs[0], off[0])
			f(regs[1], off[1])
		}
		both(func(r colRegs, o [4]int32) { b.LdrOff(r.a, regState, o[0]) })
		both(func(r colRegs, o [4]int32) { b.LdrOff(r.b, regState, o[1]) })
		both(func(r colRegs, o [4]int32) { b.LdrOff(r.c, regState, o[2]) })
		both(func(r colRegs, o [4]int32) { b.LdrOff(r.d, regState, o[3]) })
		// a += b; d = ROL(d ^ a, 16), both columns computed before any
		// store so the a/d store pairs can stay adjacent per column.
		both(func(r colRegs, o [4]int32) { b.Add(r.a, r.a, r.b) })
		both(func(r colRegs, o [4]int32) { b.Eor(r.d, r.d, r.a) })
		both(func(r colRegs, o [4]int32) { b.Ror(r.d, r.d, 16) }) // ROL 16 == ROR 16
		for i := 0; i < 2; i++ {
			b.StrOff(regs[i].a, regState, off[i][0])
			xk := b.Len()
			b.StrOff(regs[i].d, regState, off[i][3])
			l.Regions = append(l.Regions, target.Region{
				Name: fmt.Sprintf("XK%d", col+i), Round: round, Start: xk, End: xk + 1,
			})
		}
		// c += d; b = ROL(b ^ c, 12)
		both(func(r colRegs, o [4]int32) { b.Add(r.c, r.c, r.d); b.StrOff(r.c, regState, o[2]) })
		both(func(r colRegs, o [4]int32) {
			b.Eor(r.b, r.b, r.c)
			b.Ror(r.b, r.b, 20) // ROL 12 == ROR 20
			b.StrOff(r.b, regState, o[1])
		})
		// a += b; d = ROL(d ^ a, 8)
		both(func(r colRegs, o [4]int32) { b.Add(r.a, r.a, r.b); b.StrOff(r.a, regState, o[0]) })
		both(func(r colRegs, o [4]int32) {
			b.Eor(r.d, r.d, r.a)
			b.Ror(r.d, r.d, 24) // ROL 8 == ROR 24
			b.StrOff(r.d, regState, o[3])
		})
		// c += d; b = ROL(b ^ c, 7)
		both(func(r colRegs, o [4]int32) { b.Add(r.c, r.c, r.d); b.StrOff(r.c, regState, o[2]) })
		both(func(r colRegs, o [4]int32) {
			b.Eor(r.b, r.b, r.c)
			b.Ror(r.b, r.b, 25) // ROL 7 == ROR 25
			b.StrOff(r.b, regState, o[1])
		})
	}

	for r := 1; r <= opts.Rounds; r++ {
		for _, pc := range []struct {
			name string
			col  int
		}{{"QRa", 0}, {"QRb", 2}} {
			start := b.Len()
			pair(pc.col, r)
			l.Regions = append(l.Regions, target.Region{Name: pc.name, Round: r, Start: start, End: b.Len()})
		}
	}

	b.Nop(opts.PadNops)

	prog, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return prog, l, nil
}
