package replay_test

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/aes"
	"repro/internal/isa"
	"repro/internal/leakscan"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/replay"
)

// lanePowersEqual asserts a lane's fused power row equals the cycle
// powers of the simulated timeline, bit for bit.
func lanePowersEqual(t *testing.T, ctx string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d cycle powers vs %d", ctx, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: cycle %d: %v vs %v", ctx, i, want[i], got[i])
		}
	}
}

// TestBatchVMMatchesSimulatorTable2 sweeps the six ablation toggles
// across the Table 2 micro-benchmarks: every lane of a batch must yield
// the simulator's architectural state and a fused power row
// bit-identical to the power model's cycle powers over the simulated
// timeline — including single-lane batches and batches narrower than
// the VM's capacity.
func TestBatchVMMatchesSimulatorTable2(t *testing.T) {
	m := power.DefaultModel()
	for mask := 0; mask < 64; mask++ {
		cfg := ablationConfig(mask)
		for _, b := range leakscan.Benchmarks() {
			prog, err := isa.Assemble(b.Seq)
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			cc := pipeline.MustNew(cfg, nil)
			b.Setup(rand.New(rand.NewSource(int64(mask))), cc)
			p, err := replay.Compile(cc, prog)
			if err != nil {
				t.Fatalf("cfg %#x %s: compile: %v", mask, b.Name, err)
			}
			bp, err := replay.CompileBatch(p)
			if err != nil {
				t.Fatalf("cfg %#x %s: batch compile: %v", mask, b.Name, err)
			}
			bvm, err := replay.NewBatchVM(bp, 8)
			if err != nil {
				t.Fatal(err)
			}
			bvm.SetWeights(&m.HDWeights, &m.HWWeights, m.Baseline)
			for _, lanes := range []int{1, 3, 8} {
				cores := make([]*pipeline.Core, lanes)
				want := make([][]float64, lanes)
				regs := make([][isa.NumRegs]uint32, lanes)
				for lane := range cores {
					seed := int64(100000*mask + 100*lanes + lane)
					simCore := pipeline.MustNew(cfg, nil)
					b.Setup(rand.New(rand.NewSource(seed)), simCore)
					res, err := simCore.Run(prog)
					if err != nil {
						t.Fatalf("cfg %#x %s: simulate: %v", mask, b.Name, err)
					}
					want[lane] = m.CyclePowers(nil, res.Timeline)
					regs[lane] = simCore.State().Regs

					cores[lane] = pipeline.MustNew(cfg, nil)
					b.Setup(rand.New(rand.NewSource(seed)), cores[lane])
				}
				if err := bvm.Run(cores); err != nil {
					t.Fatalf("cfg %#x %s lanes %d: %v", mask, b.Name, lanes, err)
				}
				for lane := range cores {
					lanePowersEqual(t, b.Name, want[lane], bvm.Power(lane))
					if cores[lane].State().Regs != regs[lane] {
						t.Fatalf("cfg %#x %s lane %d: architectural state differs", mask, b.Name, lane)
					}
				}
			}
		}
	}
}

// TestBatchVMMatchesSimulatorAES covers the conditional xtime
// reduction: under NopZeroesWB the dual-outcome conditionals resolve
// per lane, so lanes with different plaintexts take different branches
// inside one batch — and every lane must still match its simulation bit
// for bit, at the full range of supported widths including the maximum.
func TestBatchVMMatchesSimulatorAES(t *testing.T) {
	m := power.DefaultModel()
	rng := rand.New(rand.NewSource(9))
	cfg := pipeline.DefaultConfig()
	tgt, err := aes.NewTarget(cfg, testKey, aes.ProgramOptions{Rounds: 1, PadNops: 8})
	if err != nil {
		t.Fatal(err)
	}
	cc := pipeline.MustNew(cfg, mem.NewMemory())
	tgt.InitCore(cc, [16]byte{})
	p, err := replay.Compile(cc, tgt.Program())
	if err != nil {
		t.Fatal(err)
	}
	bp, err := replay.CompileBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	bvm, err := replay.NewBatchVM(bp, replay.MaxLanes)
	if err != nil {
		t.Fatal(err)
	}
	bvm.SetWeights(&m.HDWeights, &m.HWWeights, m.Baseline)
	// 33 and 48 put conditional pass masks beyond the old 32-lane word:
	// per-lane branch outcomes above bit 31 must resolve exactly as the
	// simulator's.
	for _, lanes := range []int{1, 8, 16, 33, 48, replay.MaxLanes, 5} {
		cores := make([]*pipeline.Core, lanes)
		want := make([][]float64, lanes)
		var pts [][16]byte
		for lane := range cores {
			var pt [16]byte
			rng.Read(pt[:])
			pts = append(pts, pt)
			simRes, _, err := tgt.Run(pt)
			if err != nil {
				t.Fatalf("simulate: %v", err)
			}
			want[lane] = m.CyclePowers(nil, simRes.Timeline)
			cores[lane] = pipeline.MustNew(cfg, mem.NewMemory())
			tgt.InitCore(cores[lane], pts[lane])
		}
		if err := bvm.Run(cores); err != nil {
			t.Fatalf("lanes %d: %v", lanes, err)
		}
		for lane := range cores {
			lanePowersEqual(t, "aes", want[lane], bvm.Power(lane))
			if _, err := tgt.VerifyOutput(cores[lane].Mem(), pts[lane]); err != nil {
				t.Fatalf("lanes %d lane %d: %v", lanes, lane, err)
			}
		}
	}
}

// TestBatchVMWeightsReshapeEvents changes the installed model between
// runs: a model with most weights zeroed must still match the
// simulated reference under the same model — the active event list
// follows the weights.
func TestBatchVMWeightsReshapeEvents(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	prog := isa.MustAssemble("add r0, r1, r2\nldr r3, [r8]\nstr r0, [r9]\neor r4, r3, r0")
	set := func(core *pipeline.Core, seed uint32) {
		core.SetRegs(0, 0x1111*seed, 0xBEEF)
		core.SetReg(isa.R8, 0x100)
		core.SetReg(isa.R9, 0x200)
		core.Mem().Write32(0x100, 7*seed)
	}
	cc := pipeline.MustNew(cfg, mem.NewMemory())
	set(cc, 1)
	p, err := replay.Compile(cc, prog)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := replay.CompileBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	bvm, err := replay.NewBatchVM(bp, 4)
	if err != nil {
		t.Fatal(err)
	}
	models := []power.Model{power.DefaultModel(), {}, power.DefaultModel()}
	models[1].HDWeights[pipeline.MDR] = 2.5 // a single active component
	models[1].Baseline = 1.0
	for mi := range models {
		m := &models[mi]
		bvm.SetWeights(&m.HDWeights, &m.HWWeights, m.Baseline)
		cores := make([]*pipeline.Core, 4)
		want := make([][]float64, 4)
		for lane := range cores {
			simCore := pipeline.MustNew(cfg, mem.NewMemory())
			set(simCore, uint32(10*mi+lane+2))
			res, err := simCore.Run(prog)
			if err != nil {
				t.Fatal(err)
			}
			want[lane] = m.CyclePowers(nil, res.Timeline)
			cores[lane] = pipeline.MustNew(cfg, mem.NewMemory())
			set(cores[lane], uint32(10*mi+lane+2))
		}
		if err := bvm.Run(cores); err != nil {
			t.Fatalf("model %d: %v", mi, err)
		}
		for lane := range cores {
			lanePowersEqual(t, "model", want[lane], bvm.Power(lane))
		}
	}
}

// TestBatchVMDivergenceParity pins the guard behaviour: when a lane's
// execution leaves the compiled schedule (a pinned conditional
// resolving differently), the batch Run must fail with ErrDiverged
// exactly when that lane's input leaves the schedule, whatever the
// batch width — never return silently wrong data.
func TestBatchVMDivergenceParity(t *testing.T) {
	m := power.DefaultModel()
	// cmp + conditional store: a memory conditional is never
	// replayable, so it is pinned to the reference outcome.
	prog := isa.MustAssemble("cmp r0, #0\nstreq r1, [r8]\nadd r2, r1, r1")
	cfg := pipeline.DefaultConfig()
	set := func(core *pipeline.Core, r0 uint32) {
		core.SetRegs(0, 0)
		core.SetReg(isa.R0, r0)
		core.SetReg(isa.R1, 0xAB)
		core.SetReg(isa.R8, 0x100)
	}
	cc := pipeline.MustNew(cfg, mem.NewMemory())
	set(cc, 0) // reference: condition passes
	p, err := replay.Compile(cc, prog)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := replay.CompileBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	bvm, err := replay.NewBatchVM(bp, 4)
	if err != nil {
		t.Fatal(err)
	}
	bvm.SetWeights(&m.HDWeights, &m.HWWeights, m.Baseline)

	// All lanes conforming: must succeed.
	cores := make([]*pipeline.Core, 4)
	for lane := range cores {
		cores[lane] = pipeline.MustNew(cfg, mem.NewMemory())
		set(cores[lane], 0)
	}
	if err := bvm.Run(cores); err != nil {
		t.Fatalf("conforming batch: %v", err)
	}

	// Lane 2 diverges (condition fails where the reference passed).
	for lane := range cores {
		cores[lane] = pipeline.MustNew(cfg, mem.NewMemory())
		set(cores[lane], 0)
	}
	set(cores[2], 1)
	if err := bvm.Run(cores); !errors.Is(err, replay.ErrDiverged) {
		t.Fatalf("diverging batch returned %v, want ErrDiverged", err)
	}
	// The same input diverges on its own, in a single-lane batch.
	cores[2] = pipeline.MustNew(cfg, mem.NewMemory())
	set(cores[2], 1)
	if err := bvm.Run(cores[2:3]); !errors.Is(err, replay.ErrDiverged) {
		t.Fatalf("diverging single lane returned %v, want ErrDiverged", err)
	}
}

// TestNewBatchVMRejectsBadWidths covers the lane-count bounds and the
// weights-required guard.
func TestNewBatchVMRejectsBadWidths(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	prog := isa.MustAssemble("add r0, r1, r2")
	cc := pipeline.MustNew(cfg, mem.NewMemory())
	p, err := replay.Compile(cc, prog)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := replay.CompileBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay.NewBatchVM(bp, 0); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := replay.NewBatchVM(bp, replay.MaxLanes+1); err == nil {
		t.Error("width beyond MaxLanes accepted")
	}
	vm, err := replay.NewBatchVM(bp, 2)
	if err != nil {
		t.Fatal(err)
	}
	core := pipeline.MustNew(cfg, mem.NewMemory())
	if err := vm.Run([]*pipeline.Core{core}); err == nil {
		t.Error("run without weights accepted")
	}
	m := power.DefaultModel()
	vm.SetWeights(&m.HDWeights, &m.HWWeights, m.Baseline)
	if err := vm.Run([]*pipeline.Core{core, core, core}); err == nil {
		t.Error("batch wider than capacity accepted")
	}
}

// TestCheckIgnoresPowerWeights pins the verification check to the
// drives themselves: a simulated value perturbed on a component the
// installed model weights at zero leaves every cycle power unchanged,
// yet Check must still reject it — as it must a drive the replay never
// made.
func TestCheckIgnoresPowerWeights(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	prog := isa.MustAssemble("add r0, r1, r2\nldr r3, [r8]\nstr r0, [r9]\neor r4, r3, r0")
	set := func(core *pipeline.Core) {
		core.SetRegs(0, 0x1234, 0xBEEF)
		core.SetReg(isa.R8, 0x100)
		core.SetReg(isa.R9, 0x200)
		core.Mem().Write32(0x100, 0x77)
	}
	cc := pipeline.MustNew(cfg, mem.NewMemory())
	set(cc)
	p, err := replay.Compile(cc, prog)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := replay.CompileBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := replay.NewBatchVM(bp, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim := pipeline.MustNew(cfg, mem.NewMemory())
	set(sim)
	res, err := sim.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	tl := append(pipeline.Timeline(nil), res.Timeline...)

	// Zero the weights of the first component the execution drives.
	cyc, comp := -1, pipeline.Component(0)
	for i := range tl {
		if tl[i].Driven != 0 {
			cyc, comp = i, pipeline.Component(bits.TrailingZeros32(tl[i].Driven))
			break
		}
	}
	if cyc < 0 {
		t.Fatal("no driven component")
	}
	m := power.DefaultModel()
	m.HDWeights[comp], m.HWWeights[comp] = 0, 0
	vm.SetWeights(&m.HDWeights, &m.HWWeights, m.Baseline)
	rep := pipeline.MustNew(cfg, mem.NewMemory())
	set(rep)
	if err := vm.Run([]*pipeline.Core{rep}); err != nil {
		t.Fatal(err)
	}
	if err := vm.Check(0, tl); err != nil {
		t.Fatalf("unperturbed execution rejected: %v", err)
	}

	perturbed := append(pipeline.Timeline(nil), tl...)
	perturbed[cyc].Values[comp] ^= 1
	pipeline.FillForward(perturbed)
	lanePowersEqual(t, "zero-weight perturbation", m.CyclePowers(nil, tl), m.CyclePowers(nil, perturbed))
	if err := vm.Check(0, perturbed); err == nil {
		t.Fatalf("value perturbed on zero-weight %s at cycle %d passed the check", comp, cyc)
	}

	// A drive the replay never made.
	extra := append(pipeline.Timeline(nil), tl...)
	for c := pipeline.Component(0); c < pipeline.NumComponents; c++ {
		if !extra[cyc].IsDriven(c) {
			extra[cyc].Driven |= 1 << c
			break
		}
	}
	if err := vm.Check(0, extra); err == nil {
		t.Fatal("an extra simulated drive passed the check")
	}
}
