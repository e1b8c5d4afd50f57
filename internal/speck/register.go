package speck

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/target"
)

// DefaultAttackKey is the key attacked when none is given — the
// published test-vector key (words l2 l1 l0 k0 = 1b1a1918 13121110
// 0b0a0908 03020100, stored little-endian word-ascending).
var DefaultAttackKey = [KeySize]byte{
	0x00, 0x01, 0x02, 0x03, // k0
	0x08, 0x09, 0x0a, 0x0b, // l0
	0x10, 0x11, 0x12, 0x13, // l1
	0x18, 0x19, 0x1a, 0x1b, // l2
}

func init() {
	target.Register(registered{})
}

type registered struct{}

func (registered) Info() target.Info {
	return target.Info{
		Name:          "speck64",
		Desc:          "Speck64/128, pure-ALU ARX rounds (rotate/add/xor)",
		BlockSize:     BlockSize,
		KeySize:       KeySize,
		AttackBytes:   4,
		MaxRounds:     Rounds,
		DefaultRounds: 2,
		DefaultKey:    append([]byte(nil), DefaultAttackKey[:]...),
	}
}

func (registered) New(cfg pipeline.Config, key []byte, rounds, padNops int) (target.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(key) != KeySize {
		return nil, fmt.Errorf("speck: key must be %d bytes, got %d", KeySize, len(key))
	}
	var k [KeySize]byte
	copy(k[:], key)
	prog, layout, err := BuildProgram(ProgramOptions{Rounds: rounds, PadNops: padNops})
	if err != nil {
		return nil, err
	}
	ref := NewRef(k)
	in := &instance{prog: prog, layout: layout, ref: ref, rounds: rounds}
	rk := ref.RoundKeys()
	for i, v := range rk {
		binary.LittleEndian.PutUint32(in.rkBytes[4*i:], v)
	}
	// The attacked effective key is rk[0] = k0 in little-endian byte
	// order — the word XORed onto the round-1 addition output.
	binary.LittleEndian.PutUint32(in.trueKey[:], rk[0])
	return in, nil
}

type instance struct {
	prog    *isa.Program
	layout  *Layout
	ref     *Ref
	rounds  int
	rkBytes [4 * Rounds]byte
	trueKey [4]byte
}

func (in *instance) Program() *isa.Program { return in.prog }

func (in *instance) Regions() []target.Region { return in.layout.Regions }

func (in *instance) InitCore(core *pipeline.Core, pt []byte) {
	m := core.Mem()
	m.WriteBytes(in.layout.KeyAddr, in.rkBytes[:])
	m.WriteBytes(in.layout.StateAddr, pt[:BlockSize])
	core.SetReg(regState, in.layout.StateAddr)
	core.SetReg(regKeys, in.layout.KeyAddr)
}

func (in *instance) VerifyOutput(m *mem.Memory, pt []byte) error {
	var got, p [BlockSize]byte
	copy(p[:], pt)
	m.ReadBytesInto(got[:], in.layout.StateAddr)
	want, err := in.ref.EncryptPartial(p, in.rounds)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("speck: simulator output %x disagrees with reference %x", got, want)
	}
	return nil
}

// Class is byte b of the round-1 addition output ROR(x,8)+y — known
// from the plaintext alone.
func (in *instance) Class(b int, pt []byte) int {
	x := binary.LittleEndian.Uint32(pt[0:4])
	y := binary.LittleEndian.Uint32(pt[4:8])
	return int(byte(AddOut(x, y) >> uint(8*b)))
}

func (in *instance) ClassTable(b int) [][]float64 { return target.HWXorTable() }

func (in *instance) TrueKeyByte(b int) byte { return in.trueKey[b] }

// AttackWindow aims the peak search at the execute cycle of the
// round-1 key-mixing eor (region "XK", one cycle past issue), where
// the ALU result buffer asserts HW(AddOut^rk) — the only cycle whose
// leak is a pure function of the attacked intermediate. The wider ARX
// round carries deterministic ghosts: the addition's result and store
// leak HW(AddOut), which ranks hypothesis 0 first. Signed ranking
// breaks the HW(v^k) complement ambiguity (k^0xff predicts the exact
// negation of the true prediction).
func (in *instance) AttackWindow(b int) target.Window {
	return target.Window{Region: "XK", Signed: true, Delay: 1}
}
