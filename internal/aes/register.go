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

func (r registered) New(cfg pipeline.Config, key []byte, rounds, padNops int) (target.Instance, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("aes: key must be %d bytes, got %d", KeySize, len(key))
	}
	var k [KeySize]byte
	copy(k[:], key)
	t, err := NewTarget(cfg, k, ProgramOptions{Rounds: rounds, PadNops: padNops})
	if err != nil {
		return nil, err
	}
	return &instance{t: t, key: k}, nil
}

type instance struct {
	t   *Target
	key [KeySize]byte
}

func (in *instance) Program() *isa.Program { return in.t.Program() }

func (in *instance) Regions() []target.Region { return in.t.Layout().Regions }

func (in *instance) InitCore(core *pipeline.Core, pt []byte) {
	var p [BlockSize]byte
	copy(p[:], pt)
	in.t.InitCore(core, p)
}

func (in *instance) VerifyOutput(m *mem.Memory, pt []byte) error {
	var p [BlockSize]byte
	copy(p[:], pt)
	_, err := in.t.VerifyOutput(m, p)
	return err
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
