package present

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/target"
)

// DefaultAttackKey is the key attacked when none is given.
var DefaultAttackKey = [KeySize]byte{
	0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99,
}

func init() {
	target.Register(registered{})
}

type registered struct{}

func (registered) Info() target.Info {
	return target.Info{
		Name:          "present",
		Desc:          "PRESENT-80, byte-doubled S-box table + register bit-gather pLayer",
		BlockSize:     BlockSize,
		KeySize:       KeySize,
		AttackBytes:   BlockSize,
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
		return nil, fmt.Errorf("present: key must be %d bytes, got %d", KeySize, len(key))
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
		binary.BigEndian.PutUint64(in.rkBytes[BlockSize*i:], v)
	}
	// The attacked effective key is rk[0] spelled in state byte order
	// (byte 0 = bits 63..56) — for PRESENT-80 that is the top 8 bytes of
	// the supplied key, XORed into the state byte-for-byte by round 1.
	binary.BigEndian.PutUint64(in.trueKey[:], rk[0])
	var sbox [256]byte
	for i := range sbox {
		sbox[i] = SboxByte(byte(i))
	}
	in.sbox = sbox
	return in, nil
}

type instance struct {
	prog    *isa.Program
	layout  *Layout
	ref     *Ref
	rounds  int
	rkBytes [BlockSize * (Rounds + 1)]byte
	trueKey [BlockSize]byte
	sbox    [256]byte
}

func (in *instance) Program() *isa.Program { return in.prog }

func (in *instance) Regions() []target.Region { return in.layout.Regions }

func (in *instance) InitCore(core *pipeline.Core, pt []byte) {
	m := core.Mem()
	m.WriteBytes(in.layout.SboxAddr, in.sbox[:])
	m.WriteBytes(in.layout.KeyAddr, in.rkBytes[:])
	m.WriteBytes(in.layout.StateAddr, pt[:BlockSize])
	core.SetReg(regState, in.layout.StateAddr)
	core.SetReg(regKeys, in.layout.KeyAddr)
	core.SetReg(regSbox, in.layout.SboxAddr)
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
		return fmt.Errorf("present: simulator output %x disagrees with reference %x", got, want)
	}
	return nil
}

func (in *instance) Class(b int, pt []byte) int { return int(pt[b]) }

func (in *instance) ClassTable(b int) [][]float64 { return subTable() }

func (in *instance) TrueKeyByte(b int) byte { return in.trueKey[b] }

// AttackWindow aims the peak search at the memory stage of byte b's
// own S-box table lookup (region "XK<b>", three cycles past issue —
// the register-offset byte load spends an extra address-generation
// cycle before the loaded byte reaches the load align buffer and the
// memory data register), where the load-data transition HD(u, S(u))
// with u = p^k
// is a pure function of the attacked intermediate. The wider S-box
// layer and the pLayer's bit gather carry deterministic ghost
// correlations that do not shrink with traces. Signed ranking keeps
// negatively-correlated ghosts out of the top ranks.
func (in *instance) AttackWindow(b int) target.Window {
	return target.Window{Region: "XK" + strconv.Itoa(b), Signed: true, Delay: 3}
}

var (
	subTableOnce sync.Once
	subTableVal  [][]float64
)

// subTable is the first-round HW(u ^ S(u)) model with u = p^k — the
// transition the S-box lookup drives onto the load data path, replacing
// the just-loaded input byte u with the substituted byte S(u). The
// class is the plaintext byte, so one shared table serves every byte
// position.
func subTable() [][]float64 {
	subTableOnce.Do(func() {
		subTableVal = target.ByteTable(func(v, k byte) byte {
			u := v ^ k
			return u ^ SboxByte(u)
		})
	})
	return subTableVal
}
