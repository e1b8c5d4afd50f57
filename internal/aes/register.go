package aes

import (
	"fmt"
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/target"
)

// DefaultAttackKey is the key the attacks default to: the FIPS-197
// Appendix key, also the SP800-38A example key.
var DefaultAttackKey = [KeySize]byte{
	0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6,
	0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C,
}

func init() {
	target.Register(registered{})
}

// registered adapts the AES device-under-attack to the target registry.
type registered struct{}

func (registered) Info() target.Info {
	return target.Info{
		Name:          "aes",
		Desc:          "AES-128, byte-oriented table-lookup implementation (§5 target)",
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
		return nil, fmt.Errorf("aes: key must be %d bytes, got %d", KeySize, len(key))
	}
	in := &instance{rounds: rounds}
	copy(in.key[:], key)
	var err error
	if in.prog, in.layout, err = BuildProgram(ProgramOptions{Rounds: rounds, PadNops: padNops}); err != nil {
		return nil, err
	}
	in.ref = NewRef(in.key)
	in.rk = in.ref.RoundKeys()
	return in, nil
}

// instance is the simulated AES device of §5: the generated program
// for one key, with the per-run setup and the reference that
// cross-checks every simulated or replayed run.
type instance struct {
	prog   *isa.Program
	layout *Layout
	ref    *Ref
	rk     [176]byte
	key    [KeySize]byte
	rounds int
}

func (in *instance) Program() *isa.Program { return in.prog }

func (in *instance) Regions() []target.Region { return in.layout.Regions }

// InitCore writes the S-box, the expanded key and the plaintext state
// into the core's memory and points the argument registers at them.
func (in *instance) InitCore(core *pipeline.Core, pt []byte) {
	m := core.Mem()
	m.WriteBytes(in.layout.SboxAddr, Sbox[:])
	m.WriteBytes(in.layout.KeyAddr, in.rk[:])
	m.WriteBytes(in.layout.StateAddr, pt[:BlockSize])
	core.SetReg(regState, in.layout.StateAddr)
	core.SetReg(regKeys, in.layout.KeyAddr)
	core.SetReg(regSbox, in.layout.SboxAddr)
	core.SetReg(isa.SP, in.layout.StackAddr)
}

// VerifyOutput reads the encrypted state back from m and checks it
// against the reference encryption of pt, truncated to the instance's
// rounds.
func (in *instance) VerifyOutput(m *mem.Memory, pt []byte) error {
	var p, out, want [BlockSize]byte
	copy(p[:], pt)
	m.ReadBytesInto(out[:], in.layout.StateAddr)
	if in.rounds == Rounds {
		want = in.ref.Encrypt(p)
	} else {
		var err error
		if want, err = in.ref.EncryptPartial(p, in.rounds); err != nil {
			return err
		}
	}
	if out != want {
		return fmt.Errorf("aes: simulator output %x disagrees with reference %x", out, want)
	}
	return nil
}

func (in *instance) Class(b int, pt []byte) int { return int(pt[b]) }

func (in *instance) ClassTable(b int) [][]float64 { return SubBytesClassTable() }

func (in *instance) TrueKeyByte(b int) byte { return in.key[b] }

// AttackWindow is the zero window: AES keeps the pre-registry
// whole-trace |r| ranking, so every committed AES artifact stays
// byte-identical.
func (in *instance) AttackWindow(b int) target.Window { return target.Window{} }

var (
	sbTableOnce sync.Once
	sbTable     [][]float64
)

// SubBytesClassTable returns the first-round HW(SubBytes(pt^k)) model
// as a shared class table: entry [p][k] is hypothesis k's predicted
// leakage when the attacked plaintext byte is p. The class is the
// plaintext byte, so one table serves every byte position. The table is
// immutable — callers must not modify it.
func SubBytesClassTable() [][]float64 {
	sbTableOnce.Do(func() {
		sbTable = target.ByteTable(SubBytesOut)
	})
	return sbTable
}
