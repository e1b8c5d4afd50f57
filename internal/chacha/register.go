package chacha

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/target"
)

// DefaultAttackKey is the key attacked when none is given.
var DefaultAttackKey = [KeySize]byte{
	0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
	0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f,
}

func init() {
	target.Register(registered{})
}

type registered struct{}

func (registered) Info() target.Info {
	return target.Info{
		Name:          "chacha20",
		Desc:          "ChaCha20 column quarter-rounds, two interleaved ARX dataflows",
		BlockSize:     BlockSize,
		KeySize:       KeySize,
		AttackBytes:   16,
		MaxRounds:     Rounds,
		DefaultRounds: 1,
		DefaultKey:    append([]byte(nil), DefaultAttackKey[:]...),
	}
}

func (registered) New(cfg pipeline.Config, key []byte, rounds, padNops int) (target.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(key) != KeySize {
		return nil, fmt.Errorf("chacha: key must be %d bytes, got %d", KeySize, len(key))
	}
	var k [KeySize]byte
	copy(k[:], key)
	prog, layout, err := BuildProgram(ProgramOptions{Rounds: rounds, PadNops: padNops})
	if err != nil {
		return nil, err
	}
	ref := NewRef(k)
	in := &instance{prog: prog, layout: layout, ref: ref, rounds: rounds}
	// The attacked leak is the memory-data-register transition of column
	// c's first d store: HD(Kc, ROL(d^Kc, 16)) with Kc = Constants[c] +
	// key[c] — the a word stored immediately before, and the freshly
	// keyed d word. ROL 16 pairs byte j of the input word with byte
	// (j+2)%4, so the effective key recovered at position b = 4c+j is
	// Kc[j] ^ Kc[(j+2)%4].
	for c := 0; c < 4; c++ {
		kc := Constants[c] + ref.key[c]
		for j := 0; j < 4; j++ {
			in.trueKey[4*c+j] = byte(kc>>uint(8*j)) ^ byte(kc>>uint(8*((j+2)%4)))
		}
	}
	return in, nil
}

type instance struct {
	prog    *isa.Program
	layout  *Layout
	ref     *Ref
	rounds  int
	trueKey [16]byte
}

func (in *instance) Program() *isa.Program { return in.prog }

func (in *instance) Regions() []target.Region { return in.layout.Regions }

func (in *instance) InitCore(core *pipeline.Core, pt []byte) {
	var p [BlockSize]byte
	copy(p[:], pt)
	m := core.Mem()
	state := in.ref.InitState(p)
	m.WriteWords(in.layout.StateAddr, state[:])
	core.SetReg(regState, in.layout.StateAddr)
}

func (in *instance) VerifyOutput(m *mem.Memory, pt []byte) error {
	var p [BlockSize]byte
	copy(p[:], pt)
	want, err := in.ref.Permute(p, in.rounds)
	if err != nil {
		return err
	}
	var got [64]byte
	m.ReadBytesInto(got[:], in.layout.StateAddr)
	for i, w := range want {
		if g := binary.LittleEndian.Uint32(got[4*i:]); g != w {
			return fmt.Errorf("chacha: simulator state word %d is %08x, reference says %08x", i, g, w)
		}
	}
	return nil
}

// Class is input byte b itself: byte b%4 of bottom-row word b/4. The
// attacked store transition carries it XORed with the fixed effective
// key Kc[b%4] ^ Kc[(b%4+2)%4] (rotated to byte lane (b%4+2)%4 by the
// ROL 16).
func (in *instance) Class(b int, pt []byte) int { return int(pt[b]) }

func (in *instance) ClassTable(b int) [][]float64 { return target.HWXorTable() }

func (in *instance) TrueKeyByte(b int) byte { return in.trueKey[b] }

// AttackWindow aims the peak search at the memory stage of byte b's
// own column's first d store (region "XK<b/4>", two cycles past issue,
// when the store's value reaches the memory data register), where the
// MDR transition HD(Kc, ROL(d^Kc,16)) is a pure function of the
// attacked intermediate. The wider sweep carries deterministic ghosts
// — stale-constant bus transitions at the eor's issue cycle and
// cross-column store-to-store MDR transitions. Signed ranking breaks
// the HW(v^k) complement ambiguity (k^0xff predicts the exact negation
// of the true prediction).
func (in *instance) AttackWindow(b int) target.Window {
	return target.Window{Region: "XK" + strconv.Itoa(b/4), Signed: true, Delay: 2}
}
