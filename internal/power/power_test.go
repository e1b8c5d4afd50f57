package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/pipeline"
)

func timelineOf(t *testing.T, src string, setup func(c *pipeline.Core)) pipeline.Timeline {
	t.Helper()
	c := pipeline.MustNew(pipeline.DefaultConfig(), nil)
	if setup != nil {
		setup(c)
	}
	res, err := c.Run(isa.MustAssemble(src))
	if err != nil {
		t.Fatal(err)
	}
	return res.Timeline
}

func TestHWHD(t *testing.T) {
	if HW(0) != 0 || HW(0xFFFFFFFF) != 32 || HW(0xF0) != 4 {
		t.Error("HW broken")
	}
	if HD(0xFF, 0x0F) != 4 || HD(5, 5) != 0 {
		t.Error("HD broken")
	}
}

func TestHDProperties(t *testing.T) {
	f := func(a, b uint32) bool {
		return HD(a, b) == HD(b, a) && HD(a, a) == 0 && HD(a, 0) == HW(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultModelValid(t *testing.T) {
	m := DefaultModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.HDWeights[pipeline.RFRead0] != 0 {
		t.Error("RF read ports must not leak by default (paper §4.1)")
	}
	if m.HWWeights[pipeline.ShiftBuf] >= m.HWWeights[pipeline.ALUOut0] {
		t.Error("shifter leakage must be much smaller than ALU leakage (§4.1)")
	}
	if m.HDWeights[pipeline.MDR] <= m.HDWeights[pipeline.ISBus0] {
		t.Error("MDR/store leakage must be the strongest (§5)")
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	m := DefaultModel()
	m.SamplesPerCycle = 0
	if err := m.Validate(); err == nil {
		t.Error("zero samples per cycle must be rejected")
	}
	m = DefaultModel()
	m.NoiseSigma = -1
	if err := m.Validate(); err == nil {
		t.Error("negative sigma must be rejected")
	}
}

func TestCyclePowerTracksHD(t *testing.T) {
	// Two single-issued movs: bus transition HD(rB, rD) appears at the
	// second issue cycle.
	tl := timelineOf(t, "mov r0, r1\nmov r2, r3", func(c *pipeline.Core) {
		c.SetRegs(0, 0x0F, 0, 0xF0)
	})
	m := DefaultModel()
	m.Baseline = 0
	m.NoiseSigma = 0
	// Sum of noiseless power must include 8 (HD(0x0F,0xF0)) from the bus
	// at the second mov's issue cycle, plus HW terms.
	var total float64
	for i := range tl {
		total += m.CyclePower(tl, i)
	}
	if total <= 0 {
		t.Fatalf("total power = %v, want > 0", total)
	}
	// Disabling all weights yields pure baseline.
	var zero Model
	zero.SamplesPerCycle = 1
	for i := range tl {
		if p := zero.CyclePower(tl, i); p != 0 {
			t.Fatalf("zero-weight model cycle %d power = %v", i, p)
		}
	}
}

func TestCyclePowerFirstCycleComparesAgainstZero(t *testing.T) {
	tl := timelineOf(t, "mov r0, r1", func(c *pipeline.Core) {
		c.SetRegs(0, 0xFF)
	})
	var m Model
	m.HDWeights[pipeline.ISBus0] = 1
	m.SamplesPerCycle = 1
	// The bus drives the EX stage one cycle after issue; its first
	// transition is measured against the all-zero initial state.
	if p := m.CyclePower(tl, 1); p != 8 {
		t.Errorf("first bus-drive cycle HD power = %v, want 8 (against all-zero state)", p)
	}
	if p := m.CyclePower(tl, 0); p != 0 {
		t.Errorf("issue-cycle bus power = %v, want 0 (bus not yet driven)", p)
	}
}

func TestSynthesizeDeterministicWithoutNoise(t *testing.T) {
	tl := timelineOf(t, "add r0, r1, r2\nadd r3, r4, r5", func(c *pipeline.Core) {
		c.SetRegs(0, 1, 2, 0, 3, 4)
	})
	m := DefaultModel()
	m.NoiseSigma = 0
	a := m.Synthesize(tl, nil)
	b := m.Synthesize(tl, rand.New(rand.NewSource(7)))
	if len(a) != len(tl)*m.SamplesPerCycle {
		t.Fatalf("trace length = %d, want %d", len(a), len(tl)*m.SamplesPerCycle)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs without noise: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSynthesizeNoiseAveragesOut(t *testing.T) {
	tl := timelineOf(t, "add r0, r1, r2", func(c *pipeline.Core) {
		c.SetRegs(0, 1, 2)
	})
	m := DefaultModel()
	m.NoiseSigma = 2
	rng := rand.New(rand.NewSource(42))
	clean := func() float64 {
		m2 := m
		m2.NoiseSigma = 0
		tr := m2.Synthesize(tl, nil)
		return tr[0]
	}()
	avg := m.SynthesizeAveraged(tl, rng, 4096)
	if d := math.Abs(avg[0] - clean); d > 0.5 {
		t.Errorf("averaged sample deviates by %v from clean value", d)
	}
}

func TestPulseShapeDecays(t *testing.T) {
	m := DefaultModel()
	m.NoiseSigma = 0
	tl := timelineOf(t, "add r0, r1, r2", func(c *pipeline.Core) {
		c.SetRegs(0, 0xFFFF, 0xFFFF)
	})
	tr := m.Synthesize(tl, nil)
	// Within the cycle that carries power, samples must be non-increasing
	// toward the baseline.
	cyc := -1
	for i := range tl {
		if m.CyclePower(tl, i) > m.Baseline {
			cyc = i
			break
		}
	}
	if cyc < 0 {
		t.Fatal("no active cycle found")
	}
	s0 := cyc * m.SamplesPerCycle
	for k := 1; k < m.SamplesPerCycle; k++ {
		if tr[s0+k] > tr[s0+k-1]+1e-9 {
			t.Fatalf("pulse must decay: sample %d (%v) > sample %d (%v)",
				s0+k, tr[s0+k], s0+k-1, tr[s0+k-1])
		}
	}
}

func TestSynthesizeAveragedSingle(t *testing.T) {
	tl := timelineOf(t, "mov r0, r1", nil)
	m := DefaultModel()
	m.NoiseSigma = 0
	a := m.SynthesizeAveraged(tl, nil, 0) // clamps to 1
	b := m.Synthesize(tl, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("avg=1 must equal a single synthesis")
		}
	}
}
