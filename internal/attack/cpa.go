package attack

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/engine"
	"repro/internal/osnoise"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/sca"
	"repro/internal/target"
	_ "repro/internal/target/all" // register the built-in cipher targets
)

// padNops is the pipeline-flush padding every attacked program uses.
const padNops = 8

// Acquisition is the one path from a registered target to synthesized
// traces: the instance and its synthesizer, the trace length and the
// region windows of one calibration run (timing is input-independent),
// and the generator every attack and trace-set producer draws its
// traces from.
type Acquisition struct {
	// Samples is the trace length: the calibrated cycle count times the
	// model's samples per cycle.
	Samples int
	// Regions are the calibrated primitive windows, without peaks.
	Regions []RegionWindow

	info     target.Info
	inst     target.Instance
	synth    *engine.Synthesizer
	mode     engine.Mode
	model    power.Model
	averages int
	spc      int
	usPerSmp float64
}

// NewAcquisition resolves the named target, builds its instance for key
// at opt.Rounds and its synthesizer in opt.Synth mode on opt.Core, and
// calibrates the trace length and region windows with one run of the
// all-zero block. Only the options' model, averaging, rounds, core and
// mode are read.
func NewAcquisition(name string, key []byte, opt Fig3Options) (*Acquisition, error) {
	tgt, err := target.Get(name)
	if err != nil {
		return nil, err
	}
	if err := opt.Model.Validate(); err != nil {
		return nil, err
	}
	if opt.Averages < 1 {
		return nil, fmt.Errorf("attack: averages must be >= 1, got %d", opt.Averages)
	}
	inst, err := tgt.New(opt.Core, key, opt.Rounds, padNops)
	if err != nil {
		return nil, err
	}
	synth, err := engine.NewSynthesizer(opt.Synth, opt.Core, inst.Program())
	if err != nil {
		return nil, err
	}
	info := tgt.Info()
	calRes, err := target.Run(inst, opt.Core, make([]byte, info.BlockSize))
	if err != nil {
		return nil, err
	}
	spc := opt.Model.SamplesPerCycle
	a := &Acquisition{
		Samples:  len(calRes.Timeline) * spc,
		info:     info,
		inst:     inst,
		synth:    synth,
		mode:     opt.Synth,
		model:    opt.Model,
		averages: opt.Averages,
		spc:      spc,
		usPerSmp: 1.0 / (ClockMHz * float64(spc)),
	}
	for _, reg := range inst.Regions() {
		first, last, ok := target.IssueCycleRange(calRes, reg.Start, reg.End)
		if !ok {
			continue
		}
		a.Regions = append(a.Regions, RegionWindow{
			Name: reg.Name, Round: reg.Round,
			FirstSample: int(first) * spc, LastSample: int(last)*spc + spc,
			StartUs: float64(first) * float64(spc) * a.usPerSmp,
			EndUs:   float64(last+1) * float64(spc) * a.usPerSmp,
		})
	}
	return a, nil
}

// BatchGen returns the acquisition's trace generator under env. Each
// trace draws its plaintext from its private stream into Sample.Aux,
// before the engine draws any noise; predict, when not nil, then fills
// the sample's model inputs from the plaintext; the target runs on it,
// and its output is verified against the reference. Every attack and
// trace set draws in this order, so their bytes agree.
func (a *Acquisition) BatchGen(env osnoise.Environment, predict func(pt []byte, s *engine.Sample)) engine.BatchGen {
	inst, bs := a.inst, a.info.BlockSize
	return engine.BatchGen{
		Variants: []*engine.Synthesizer{a.synth},
		Model:    &a.model,
		Averages: a.averages,
		Env:      env,
		Prepare: func(i int, rng *rand.Rand, core *pipeline.Core, sm *engine.Sample) error {
			sm.Aux = slices.Grow(sm.Aux[:0], bs)[:bs]
			rng.Read(sm.Aux)
			inst.InitCore(core, sm.Aux)
			if predict != nil {
				predict(sm.Aux, sm)
			}
			return nil
		},
		Verify: func(i int, core *pipeline.Core, sm *engine.Sample) error {
			return inst.VerifyOutput(core.Mem(), sm.Aux)
		},
	}
}

// paths reports which synthesis paths produced the traces: replayed is
// false under engine.ModeSimulate or after a fallback, whose reason is
// then given; batched that the lane-parallel path ran.
func (a *Acquisition) paths() (replayed, batched bool, reason string) {
	return a.mode != engine.ModeSimulate && !a.synth.FellBack(), a.synth.BatchRuns() > 0, a.synth.FallbackReason()
}

// rank ranks the key hypotheses of attacked byte b from its
// accumulator, applying the target's attack window: the peak search is
// restricted to the calibrated round-1 region(s) the window names, and
// hypotheses are ordered by signed correlation when the target's model
// is complement-ambiguous. A class bank without a window — AES — ranks
// over the whole trace by magnitude, which is exactly acc.Result(), so
// every committed AES artifact keeps its bytes. A class bank's ranking
// spreads its hypotheses over each (sca.ClassCPA.ResultInEach; nil ranks
// them in one call); its bits do not depend on each.
func (a *Acquisition) rank(b int, acc sca.Accumulator, each func(n int, f func(i int))) *sca.Attack {
	cc, ok := acc.(*sca.ClassCPA)
	if !ok {
		return acc.Result()
	}
	lo, hi, signed := a.window(b)
	return cc.ResultInEach(lo, hi, signed, each)
}

// window returns attacked byte b's sample window [lo,hi) and ranking
// sign; (0, 0, false) — the whole trace by magnitude — when the target
// names no window or no calibrated region matches it.
func (a *Acquisition) window(b int) (lo, hi int, signed bool) {
	w := a.inst.AttackWindow(b)
	if w == (target.Window{}) {
		return 0, 0, false
	}
	lo, hi = -1, -1
	for _, reg := range a.Regions {
		if reg.Round != 1 || !strings.HasPrefix(reg.Name, w.Region) {
			continue
		}
		if lo < 0 || reg.FirstSample < lo {
			lo = reg.FirstSample
		}
		if reg.LastSample > hi {
			hi = reg.LastSample
		}
	}
	if lo < 0 {
		return 0, 0, false
	}
	if w.Delay > 0 {
		// Shift the issue-cycle span Delay cycles downstream, keeping its
		// width: the window lands on the pipeline stage where the attacked
		// component is driven.
		lo += w.Delay * a.spc
		hi += (w.Delay - 1) * a.spc
	}
	return lo, hi, w.Signed
}

// runClasses streams spec's traces, acquired in the quiet environment,
// into one conditional-sum bank per attacked byte in bytes, each with
// the target's class table for that position; it fills in spec's
// Samples and Banks.
func (a *Acquisition) runClasses(cfg engine.Config, spec engine.Spec, bytes []int) ([]sca.Accumulator, error) {
	spec.Samples = a.Samples
	spec.Banks = make([]engine.Bank, len(bytes))
	for i, b := range bytes {
		spec.Banks[i] = engine.Bank{Hyps: 256, Classes: a.inst.ClassTable(b)}
	}
	return engine.RunBatched(cfg, spec, a.BatchGen(osnoise.Quiet(), func(pt []byte, sm *engine.Sample) {
		for i, b := range bytes {
			sm.Class[i] = a.inst.Class(b, pt)
		}
	}))
}

// checkByte refuses an attacked byte index outside the target's range.
func (a *Acquisition) checkByte(b int) error {
	if ab := a.info.AttackBytes; b < 0 || b >= ab {
		return fmt.Errorf("attack: %s key byte must be in [0,%d), got %d", a.info.Name, ab, b)
	}
	return nil
}

// RunCPA performs the §5 bare-metal attack against any registered
// target: streaming CPA with the target's table-driven class model over
// synthesized traces, fanned out across opt.Workers cores; the
// streaming-CPA accumulators keep memory bounded regardless of
// opt.Traces. Against target.Default it is the paper's Figure 3: CPA
// with the non-microarchitecture-aware model HW(SubBytes output byte).
func RunCPA(name string, key []byte, opt Fig3Options) (*Fig3Result, error) {
	if opt.Traces < 8 {
		return nil, fmt.Errorf("attack: need at least 8 traces, got %d", opt.Traces)
	}
	a, err := NewAcquisition(name, key, opt)
	if err != nil {
		return nil, err
	}
	if err := a.checkByte(opt.KeyByte); err != nil {
		return nil, err
	}
	banks, err := a.runClasses(opt.Config, engine.Spec{Traces: opt.Traces, Seed: opt.Seed}, []int{opt.KeyByte})
	if err != nil {
		return nil, err
	}
	cpa := banks[0]

	att := a.rank(opt.KeyByte, cpa, opt.Config.Each)
	trueKey := a.inst.TrueKeyByte(opt.KeyByte)
	out := &Fig3Result{
		Target:         a.info.Name,
		KeyByte:        opt.KeyByte,
		TrueKey:        trueKey,
		Recovered:      byte(att.Ranking[0]),
		Rank:           att.RankOf(int(trueKey)),
		CorrTrace:      cpa.CorrTrace(int(trueKey)),
		SamplePeriodUs: a.usPerSmp,
		Confidence:     att.DistinguishConfidence(),
		Traces:         opt.Traces,
		Regions:        a.Regions,
	}
	out.Replayed, out.Batched, out.FallbackReason = a.paths()
	for i := range out.Regions {
		reg := &out.Regions[i]
		best, bestS := 0.0, reg.FirstSample
		for smp := reg.FirstSample; smp < reg.LastSample && smp < a.Samples; smp++ {
			if r := out.CorrTrace[smp]; abs(r) > abs(best) {
				best, bestS = r, smp
			}
		}
		reg.PeakCorr = best
		reg.PeakSampleUs = float64(bestS) * a.usPerSmp
	}
	return out, nil
}

// KeyRecovery is the outcome of attacking every effective-key byte of a
// registered target from a single shared trace set.
type KeyRecovery struct {
	// Target is the attacked cipher's registry name.
	Target string
	// Key is the true effective key (one byte per attacked position);
	// Recovered the top-ranked hypotheses.
	Key       []byte
	Recovered []byte
	// Ranks holds each byte's true-key rank (0 = recovered).
	Ranks []int
	// Traces is the number of acquisitions used.
	Traces int
}

// Success reports whether every attacked byte was recovered.
func (r *KeyRecovery) Success() bool { return slices.Equal(r.Recovered, r.Key) }

// BytesRecovered counts the correctly recovered bytes.
func (r *KeyRecovery) BytesRecovered() int {
	n := 0
	for _, rk := range r.Ranks {
		if rk == 0 {
			n++
		}
	}
	return n
}

// GuessingEntropy returns the log2 average rank over the attacked bytes.
func (r *KeyRecovery) GuessingEntropy() float64 {
	ge, _ := sca.GuessingEntropy(r.Ranks)
	return ge
}

// RecoverKey runs one CPA instance per attacked byte of the named
// target — each with the target's class model — over one shared stream
// of acquisitions. Every synthesized trace feeds all banks, so the
// trace set is never materialized. The banks are ranked one per
// Config.Each index, each in one ResultInEach call, so every tile is
// packed once. Against target.Default it recovers the complete AES
// first-round key — the practical endgame of the paper's §5 attack.
func RecoverKey(name string, key []byte, opt Fig3Options) (*KeyRecovery, error) {
	if opt.Traces < 8 {
		return nil, fmt.Errorf("attack: need at least 8 traces, got %d", opt.Traces)
	}
	a, err := NewAcquisition(name, key, opt)
	if err != nil {
		return nil, err
	}
	bytes := make([]int, a.info.AttackBytes)
	for b := range bytes {
		bytes[b] = b
	}
	banks, err := a.runClasses(opt.Config, engine.Spec{Traces: opt.Traces, Seed: opt.Seed}, bytes)
	if err != nil {
		return nil, err
	}

	out := &KeyRecovery{
		Target:    a.info.Name,
		Key:       make([]byte, a.info.AttackBytes),
		Recovered: make([]byte, a.info.AttackBytes),
		Ranks:     make([]int, a.info.AttackBytes),
		Traces:    opt.Traces,
	}
	atts := make([]*sca.Attack, len(bytes))
	opt.Config.Each(len(bytes), func(b int) { atts[b] = a.rank(b, banks[b], nil) })
	for b, att := range atts {
		out.Key[b] = a.inst.TrueKeyByte(b)
		out.Recovered[b] = byte(att.Ranking[0])
		out.Ranks[b] = att.RankOf(int(out.Key[b]))
	}
	return out, nil
}

// RankEvolution attacks one key byte of the named target at increasing
// trace counts and returns the rank curve — the attack-efficiency plot
// complementing Figure 3. The counts become checkpoints of a single
// streaming run, so the trace stream is synthesized exactly once.
func RankEvolution(name string, key []byte, opt Fig3Options, counts []int) (*sca.RankCurve, error) {
	if len(counts) == 0 {
		return nil, fmt.Errorf("attack: no trace counts")
	}
	sorted := append([]int(nil), counts...)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	maxN := sorted[len(sorted)-1]
	a, err := NewAcquisition(name, key, opt)
	if err != nil {
		return nil, err
	}
	if err := a.checkByte(opt.KeyByte); err != nil {
		return nil, err
	}
	trueKey := a.inst.TrueKeyByte(opt.KeyByte)
	curve := &sca.RankCurve{}
	_, err = a.runClasses(opt.Config, engine.Spec{
		Traces: maxN, Seed: opt.Seed,
		Checkpoints: sorted,
		OnCheckpoint: func(n int, banks []sca.Accumulator) {
			att := a.rank(opt.KeyByte, banks[0], opt.Config.Each)
			curve.TraceCounts = append(curve.TraceCounts, n)
			curve.Ranks = append(curve.Ranks, att.RankOf(int(trueKey)))
		},
	}, []int{opt.KeyByte})
	if err != nil {
		return nil, err
	}
	return curve, nil
}
