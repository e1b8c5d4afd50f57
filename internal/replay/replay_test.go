package replay_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/aes"
	"repro/internal/isa"
	"repro/internal/leakscan"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/target"
)

var testKey = [16]byte{0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C}

// newAES builds the registry's AES instance for testKey.
func newAES(t *testing.T, cfg pipeline.Config, rounds, padNops int) target.Instance {
	t.Helper()
	tgt, err := target.Get("aes")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := tgt.New(cfg, testKey[:], rounds, padNops)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// aesBlock returns an AES block that starts with b and is zero after.
func aesBlock(b ...byte) []byte { return append(b, make([]byte, aes.BlockSize-len(b))...) }

// ablationConfig materializes one combination of the six modelling
// toggles over the paper's default core.
func ablationConfig(mask int) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.DualIssue = mask&1 != 0
	cfg.StructuralPolicyOnly = mask&2 != 0
	cfg.AlignedPairs = mask&4 != 0
	cfg.NopZeroesWB = mask&8 != 0
	cfg.AlignBuffer = mask&16 != 0
	cfg.StoreLaneReplication = mask&32 != 0
	return cfg
}

// replayer replays single executions of a compiled program on a
// one-lane batch VM — the form the engine's verification window uses.
type replayer struct {
	vm *replay.BatchVM
	m  power.Model
}

func newReplayer(t *testing.T, p *replay.Program) *replayer {
	t.Helper()
	bp, err := replay.CompileBatch(p)
	if err != nil {
		t.Fatalf("batch compile: %v", err)
	}
	vm, err := replay.NewBatchVM(bp, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := &replayer{vm: vm, m: power.DefaultModel()}
	vm.SetWeights(&r.m.HDWeights, &r.m.HWWeights, r.m.Baseline)
	return r
}

// run replays the execution prepared on core, mutating it.
func (r *replayer) run(core *pipeline.Core) error {
	return r.vm.Run([]*pipeline.Core{core})
}

// matches asserts the last replay is bit-identical to the simulated
// timeline sim: drive for drive (Check) and in its fused cycle powers.
func (r *replayer) matches(t *testing.T, ctx string, sim pipeline.Timeline) {
	t.Helper()
	if err := r.vm.Check(0, sim); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	want := r.m.CyclePowers(nil, sim)
	for i, got := range r.vm.Power(0) {
		if math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Fatalf("%s: cycle %d power %v, simulated %v", ctx, i, got, want[i])
		}
	}
}

// TestReplayMatchesSimulatorTable2Benchmarks sweeps every combination
// of the six ablation toggles across the seven Table 2 micro-benchmarks
// and asserts that replayed timelines are bit-identical to freshly
// simulated ones, for several random operand draws each.
func TestReplayMatchesSimulatorTable2Benchmarks(t *testing.T) {
	for mask := 0; mask < 64; mask++ {
		cfg := ablationConfig(mask)
		for _, b := range leakscan.Benchmarks() {
			prog, err := isa.Assemble(b.Seq)
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			// Compile against one reference draw.
			cc := pipeline.MustNew(cfg, nil)
			b.Setup(rand.New(rand.NewSource(int64(mask))), cc)
			p, err := replay.Compile(cc, prog)
			if err != nil {
				t.Fatalf("cfg %#x %s: compile: %v", mask, b.Name, err)
			}
			vm := newReplayer(t, p)
			for trial := 0; trial < 3; trial++ {
				seed := int64(1000*mask + trial)
				simCore := pipeline.MustNew(cfg, nil)
				repCore := pipeline.MustNew(cfg, nil)
				b.Setup(rand.New(rand.NewSource(seed)), simCore)
				b.Setup(rand.New(rand.NewSource(seed)), repCore)
				simRes, err := simCore.Run(prog)
				if err != nil {
					t.Fatal(err)
				}
				if err := vm.run(repCore); err != nil {
					t.Fatalf("cfg %#x %s trial %d: %v", mask, b.Name, trial, err)
				}
				vm.matches(t, b.Name, simRes.Timeline)
				if simCore.State().Regs != repCore.State().Regs || simCore.State().Flags != repCore.State().Flags {
					t.Fatalf("cfg %#x %s trial %d: final architectural state differs", mask, b.Name, trial)
				}
			}
		}
	}
}

// TestReplayMatchesSimulatorAES sweeps the ablation toggles over the
// AES target. The cipher's conditional xtime reduction makes the
// executed-instruction pattern data-dependent, so this exercises the
// dual-outcome conditional steps: under NopZeroesWB both outcomes
// replay bit-identically; with it ablated the conditional steps are
// pinned and the VM must either reproduce the simulator exactly or
// refuse with ErrDiverged — never return wrong data silently.
func TestReplayMatchesSimulatorAES(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for mask := 0; mask < 64; mask++ {
		cfg := ablationConfig(mask)
		tgt := newAES(t, cfg, 1, 8)
		cc := pipeline.MustNew(cfg, mem.NewMemory())
		tgt.InitCore(cc, aesBlock())
		p, err := replay.Compile(cc, tgt.Program())
		if err != nil {
			t.Fatalf("cfg %#x: compile: %v", mask, err)
		}
		vm := newReplayer(t, p)
		diverged := 0
		for trial := 0; trial < 3; trial++ {
			var pt [16]byte
			rng.Read(pt[:])
			simRes, err := target.Run(tgt, cfg, pt[:])
			if err != nil {
				t.Fatal(err)
			}
			repCore := pipeline.MustNew(cfg, mem.NewMemory())
			tgt.InitCore(repCore, pt[:])
			if err := vm.run(repCore); err != nil {
				if !errors.Is(err, replay.ErrDiverged) {
					t.Fatalf("cfg %#x trial %d: %v", mask, trial, err)
				}
				diverged++
				continue
			}
			vm.matches(t, "aes", simRes.Timeline)
			if err := tgt.VerifyOutput(repCore.Mem(), pt[:]); err != nil {
				t.Fatalf("cfg %#x trial %d: replayed ciphertext wrong: %v", mask, trial, err)
			}
		}
		if cfg.NopZeroesWB && diverged > 0 {
			t.Fatalf("cfg %#x: %d divergences despite dual-outcome conditional support", mask, diverged)
		}
	}
}

// TestReplayMatchesSimulatorFullCipher runs the complete ten-round
// cipher once per interesting config — loops, BL/BX subroutine calls
// and all sixteen MixColumns applications included.
func TestReplayMatchesSimulatorFullCipher(t *testing.T) {
	for _, cfg := range []pipeline.Config{pipeline.DefaultConfig(), pipeline.ScalarConfig()} {
		tgt := newAES(t, cfg, aes.Rounds, 16)
		cc := pipeline.MustNew(cfg, mem.NewMemory())
		tgt.InitCore(cc, aesBlock(0xFF, 1, 2))
		p, err := replay.Compile(cc, tgt.Program())
		if err != nil {
			t.Fatal(err)
		}
		vm := newReplayer(t, p)
		for trial := 0; trial < 2; trial++ {
			pt := [16]byte{byte(trial * 37), 0xA5, byte(0xC0 + trial)}
			simRes, err := target.Run(tgt, cfg, pt[:])
			if err != nil {
				t.Fatal(err)
			}
			repCore := pipeline.MustNew(cfg, mem.NewMemory())
			tgt.InitCore(repCore, pt[:])
			if err := vm.run(repCore); err != nil {
				t.Fatal(err)
			}
			vm.matches(t, "aes-10r", simRes.Timeline)
			if err := tgt.VerifyOutput(repCore.Mem(), pt[:]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestReplayDetectsControlFlowDivergence pins the per-step guard: a
// program whose conditional outcome depends on an input register must
// be refused — not misreplayed — when the input flips the condition.
func TestReplayDetectsControlFlowDivergence(t *testing.T) {
	prog, err := isa.Assemble("cmp r0, #1\nmuleq r3, r1, r2\nadd r4, r3, r1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	cc := pipeline.MustNew(cfg, nil)
	cc.SetReg(isa.R0, 1) // reference: mul executes
	cc.SetReg(isa.R1, 3)
	cc.SetReg(isa.R2, 5)
	p, err := replay.Compile(cc, prog)
	if err != nil {
		t.Fatal(err)
	}
	vm := newReplayer(t, p)

	// Same condition outcome: bit-identical replay.
	simCore := pipeline.MustNew(cfg, nil)
	simCore.SetRegs(1, 7, 9)
	repCore := pipeline.MustNew(cfg, nil)
	repCore.SetRegs(1, 7, 9)
	simRes, err := simCore.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.run(repCore); err != nil {
		t.Fatal(err)
	}
	vm.matches(t, "mulseq-same", simRes.Timeline)

	// Flipped outcome: the multiplier is a multi-cycle unit, so the
	// step is pinned and the VM must report divergence.
	repCore2 := pipeline.MustNew(cfg, nil)
	repCore2.SetRegs(0, 7, 9)
	if err := vm.run(repCore2); !errors.Is(err, replay.ErrDiverged) {
		t.Fatalf("flipped pinned conditional: got %v, want ErrDiverged", err)
	}
}

// TestReplayVMReuseIsClean replays many random inputs through one VM
// and checks each against a fresh simulation — stale values from the
// recycled value, mask and power scratch would show up immediately.
func TestReplayVMReuseIsClean(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	tgt := newAES(t, cfg, 1, 8)
	cc := pipeline.MustNew(cfg, mem.NewMemory())
	tgt.InitCore(cc, aesBlock(9, 9, 9))
	p, err := replay.Compile(cc, tgt.Program())
	if err != nil {
		t.Fatal(err)
	}
	vm := newReplayer(t, p)
	rng := rand.New(rand.NewSource(5))
	repCore := pipeline.MustNew(cfg, mem.NewMemory())
	for trial := 0; trial < 20; trial++ {
		var pt [16]byte
		rng.Read(pt[:])
		simRes, err := target.Run(tgt, cfg, pt[:])
		if err != nil {
			t.Fatal(err)
		}
		repCore.ResetState()
		repCore.Mem().Wipe()
		tgt.InitCore(repCore, pt[:])
		if err := vm.run(repCore); err != nil {
			t.Fatal(err)
		}
		vm.matches(t, "reuse", simRes.Timeline)
	}
}

// TestCompileRejectsOversizedCycles documents the uint32 slot-cycle
// bound indirectly: a plain compile records cycles well under it.
func TestCompileBasicShape(t *testing.T) {
	prog, err := isa.Assemble("add r0, r1, r2\nnop\nldr r3, [r8]")
	if err != nil {
		t.Fatal(err)
	}
	cc := pipeline.MustNew(pipeline.DefaultConfig(), nil)
	cc.SetReg(isa.R8, 0x100)
	p, err := replay.Compile(cc, prog)
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps() != 3 {
		t.Fatalf("steps = %d, want 3", p.Steps())
	}
	if p.Cycles() == 0 || p.Cycles() > math.MaxUint16 {
		t.Fatalf("cycles = %d out of plausible range", p.Cycles())
	}
}
