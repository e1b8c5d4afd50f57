package aes

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

// Target couples the generated AES program with a core configuration and
// a key, and runs encryptions while checking functional correctness
// against the Go reference. It is the device-under-attack of §5.
type Target struct {
	cfg    pipeline.Config
	prog   *isa.Program
	layout *Layout
	ref    *Ref
	rk     [176]byte
	rounds int
	// Verify cross-checks every run against the reference (default on).
	Verify bool
}

// NewTarget builds the simulated AES device for the given key.
func NewTarget(cfg pipeline.Config, key [KeySize]byte, opts ProgramOptions) (*Target, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	prog, layout, err := BuildProgram(opts)
	if err != nil {
		return nil, err
	}
	ref := NewRef(key)
	return &Target{
		cfg:    cfg,
		prog:   prog,
		layout: layout,
		ref:    ref,
		rk:     ref.RoundKeys(),
		rounds: opts.Rounds,
		Verify: true,
	}, nil
}

// Program returns the generated program.
func (t *Target) Program() *isa.Program { return t.prog }

// Layout returns the program's memory layout and primitive regions.
func (t *Target) Layout() *Layout { return t.layout }

// InitCore prepares core for one encryption of pt: it writes the S-box,
// the expanded key and the plaintext state into the core's memory and
// points the argument registers at them — the per-run setup Run
// performs before executing. The core's architectural state must be
// freshly reset (or pooled and wiped); InitCore only adds to it.
func (t *Target) InitCore(core *pipeline.Core, pt [BlockSize]byte) {
	m := core.Mem()
	m.WriteBytes(t.layout.SboxAddr, Sbox[:])
	m.WriteBytes(t.layout.KeyAddr, t.rk[:])
	m.WriteBytes(t.layout.StateAddr, pt[:])
	core.SetReg(regState, t.layout.StateAddr)
	core.SetReg(regKeys, t.layout.KeyAddr)
	core.SetReg(regSbox, t.layout.SboxAddr)
	core.SetReg(isa.SP, t.layout.StackAddr)
}

// VerifyOutput reads the encrypted state back from m after an execution
// prepared by InitCore(_, pt) and, unless Verify is off, checks it
// against the reference implementation. It is the functional oracle of
// every synthesized acquisition — simulated or replayed alike.
func (t *Target) VerifyOutput(m *mem.Memory, pt [BlockSize]byte) ([BlockSize]byte, error) {
	var out [BlockSize]byte
	m.ReadBytesInto(out[:], t.layout.StateAddr)
	if !t.Verify {
		return out, nil
	}
	var want [BlockSize]byte
	var err error
	if t.rounds == Rounds {
		want = t.ref.Encrypt(pt)
	} else {
		want, err = t.ref.EncryptPartial(pt, t.rounds)
		if err != nil {
			return out, err
		}
	}
	if out != want {
		return out, fmt.Errorf("aes: simulator output %x disagrees with reference %x", out, want)
	}
	return out, nil
}

// Run encrypts one block on the simulated core and returns the pipeline
// result (with its leakage timeline) and the output state.
func (t *Target) Run(pt [BlockSize]byte) (*pipeline.Result, [BlockSize]byte, error) {
	core := pipeline.MustNew(t.cfg, mem.NewMemory())
	t.InitCore(core, pt)
	res, err := core.Run(t.prog)
	if err != nil {
		return nil, [BlockSize]byte{}, err
	}
	out, err := t.VerifyOutput(core.Mem(), pt)
	if err != nil {
		return nil, out, err
	}
	return res, out, nil
}
