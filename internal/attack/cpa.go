package attack

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/engine"
	"repro/internal/pipeline"
	"repro/internal/sca"
	"repro/internal/target"
	_ "repro/internal/target/all" // register the built-in cipher targets
)

// padNops is the pipeline-flush padding every attacked program uses.
const padNops = 8

// cpaSetup is the shared front half of every class-table CPA: resolve
// the target, build the instance and synthesizer, and calibrate the
// trace length and region windows (timing is input-independent).
type cpaSetup struct {
	info     target.Info
	inst     target.Instance
	synth    *engine.Synthesizer
	nSamples int
	spc      int
	usPerSmp float64
	regions  []RegionWindow
}

func newCPASetup(name string, key []byte, opt Fig3Options) (*cpaSetup, error) {
	tgt, err := target.Get(name)
	if err != nil {
		return nil, err
	}
	info := tgt.Info()
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
	calRes, err := target.Run(inst, opt.Core, make([]byte, info.BlockSize))
	if err != nil {
		return nil, err
	}
	spc := opt.Model.SamplesPerCycle
	s := &cpaSetup{
		info:     info,
		inst:     inst,
		synth:    synth,
		nSamples: len(calRes.Timeline) * spc,
		spc:      spc,
		usPerSmp: 1.0 / (ClockMHz * float64(spc)),
	}
	for _, reg := range inst.Regions() {
		first, last, ok := target.IssueCycleRange(calRes, reg.Start, reg.End)
		if !ok {
			continue
		}
		s.regions = append(s.regions, RegionWindow{
			Name: reg.Name, Round: reg.Round,
			FirstSample: int(first) * spc, LastSample: int(last)*spc + spc,
			StartUs: float64(first) * float64(spc) * s.usPerSmp,
			EndUs:   float64(last+1) * float64(spc) * s.usPerSmp,
		})
	}
	return s, nil
}

// rank ranks the key hypotheses of attacked byte b from its
// accumulator, applying the target's attack window: the peak search is
// restricted to the calibrated round-1 region(s) the window names, and
// hypotheses are ordered by signed correlation when the target's model
// is complement-ambiguous. A class bank without a window — AES — ranks
// over the whole trace by magnitude, which is exactly acc.Result(), so
// every committed AES artifact keeps its bytes. A class bank's ranking
// spreads over cfg's workers; its bits do not depend on them.
func (s *cpaSetup) rank(b int, acc sca.Accumulator, cfg engine.Config) *sca.Attack {
	cc, ok := acc.(*sca.ClassCPA)
	if !ok {
		return acc.Result()
	}
	lo, hi, signed := s.window(b)
	return cc.ResultInEach(lo, hi, signed, cfg.Each)
}

// window returns attacked byte b's sample window [lo,hi) and ranking
// sign; (0, 0, false) — the whole trace by magnitude — when the target
// names no window or no calibrated region matches it.
func (s *cpaSetup) window(b int) (lo, hi int, signed bool) {
	w := s.inst.AttackWindow(b)
	if w == (target.Window{}) {
		return 0, 0, false
	}
	lo, hi = -1, -1
	for _, reg := range s.regions {
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
		lo += w.Delay * s.spc
		hi += (w.Delay - 1) * s.spc
	}
	return lo, hi, w.Signed
}

// classBanks returns one conditional-sum bank per attacked byte in
// bytes, each with the target's class table for that position.
func (s *cpaSetup) classBanks(bytes []int) []engine.Bank {
	banks := make([]engine.Bank, len(bytes))
	for i, b := range bytes {
		banks[i] = engine.Bank{Hyps: 256, Classes: s.inst.ClassTable(b)}
	}
	return banks
}

// batchGen builds the generic acquisition generator: each trace draws
// its plaintext from its private stream into s.Aux, runs the target,
// verifies against the reference oracle, and reports the model-input
// class of every attacked byte. The draw order (plaintext, then noise)
// matches the pre-registry AES generators exactly, so AES results are
// bit-identical to theirs.
func (s *cpaSetup) batchGen(opt Fig3Options, bytes []int) engine.BatchGen {
	inst, bs := s.inst, s.info.BlockSize
	return engine.BatchGen{
		Variants: []*engine.Synthesizer{s.synth},
		Model:    &opt.Model,
		Averages: opt.Averages,
		Prepare: func(i int, rng *rand.Rand, core *pipeline.Core, sm *engine.Sample) error {
			if cap(sm.Aux) < bs {
				sm.Aux = make([]byte, bs)
			}
			sm.Aux = sm.Aux[:bs]
			rng.Read(sm.Aux)
			inst.InitCore(core, sm.Aux)
			for i, b := range bytes {
				sm.Class[i] = inst.Class(b, sm.Aux)
			}
			return nil
		},
		Verify: func(i int, core *pipeline.Core, sm *engine.Sample) error {
			return inst.VerifyOutput(core.Mem(), sm.Aux)
		},
	}
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
	tgt, err := target.Get(name)
	if err != nil {
		return nil, err
	}
	if ab := tgt.Info().AttackBytes; opt.KeyByte < 0 || opt.KeyByte >= ab {
		return nil, fmt.Errorf("attack: %s key byte must be in [0,%d), got %d", tgt.Info().Name, ab, opt.KeyByte)
	}
	s, err := newCPASetup(name, key, opt)
	if err != nil {
		return nil, err
	}
	banks, err := engine.RunBatched(
		opt.Config,
		engine.Spec{Traces: opt.Traces, Samples: s.nSamples, Banks: s.classBanks([]int{opt.KeyByte}), Seed: opt.Seed},
		s.batchGen(opt, []int{opt.KeyByte}))
	if err != nil {
		return nil, err
	}
	cpa := banks[0]

	att := s.rank(opt.KeyByte, cpa, opt.Config)
	trueKey := s.inst.TrueKeyByte(opt.KeyByte)
	out := &Fig3Result{
		Target:         s.info.Name,
		KeyByte:        opt.KeyByte,
		TrueKey:        trueKey,
		Recovered:      byte(att.Ranking[0]),
		Rank:           att.RankOf(int(trueKey)),
		CorrTrace:      cpa.CorrTrace(int(trueKey)),
		SamplePeriodUs: s.usPerSmp,
		Confidence:     att.DistinguishConfidence(),
		Traces:         opt.Traces,
		Replayed:       opt.Synth != engine.ModeSimulate && !s.synth.FellBack(),
		Batched:        s.synth.BatchRuns() > 0,
		FallbackReason: s.synth.FallbackReason(),
	}
	regions := s.regions
	for i := range regions {
		reg := &regions[i]
		best, bestS := 0.0, reg.FirstSample
		for smp := reg.FirstSample; smp < reg.LastSample && smp < s.nSamples; smp++ {
			if r := out.CorrTrace[smp]; abs(r) > abs(best) {
				best, bestS = r, smp
			}
		}
		reg.PeakCorr = best
		reg.PeakSampleUs = float64(bestS) * s.usPerSmp
	}
	out.Regions = regions
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
// trace set is never materialized. Against target.Default it recovers
// the complete AES first-round key — the practical endgame of the
// paper's §5 attack.
func RecoverKey(name string, key []byte, opt Fig3Options) (*KeyRecovery, error) {
	if opt.Traces < 8 {
		return nil, fmt.Errorf("attack: need at least 8 traces, got %d", opt.Traces)
	}
	s, err := newCPASetup(name, key, opt)
	if err != nil {
		return nil, err
	}
	bytes := make([]int, s.info.AttackBytes)
	for b := range bytes {
		bytes[b] = b
	}
	banks, err := engine.RunBatched(
		opt.Config,
		engine.Spec{Traces: opt.Traces, Samples: s.nSamples, Banks: s.classBanks(bytes), Seed: opt.Seed},
		s.batchGen(opt, bytes))
	if err != nil {
		return nil, err
	}

	out := &KeyRecovery{
		Target:    s.info.Name,
		Key:       make([]byte, s.info.AttackBytes),
		Recovered: make([]byte, s.info.AttackBytes),
		Ranks:     make([]int, s.info.AttackBytes),
		Traces:    opt.Traces,
	}
	for b := range bytes {
		att := s.rank(b, banks[b], opt.Config)
		out.Key[b] = s.inst.TrueKeyByte(b)
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
	s, err := newCPASetup(name, key, opt)
	if err != nil {
		return nil, err
	}
	if ab := s.info.AttackBytes; opt.KeyByte < 0 || opt.KeyByte >= ab {
		return nil, fmt.Errorf("attack: %s key byte must be in [0,%d), got %d", s.info.Name, ab, opt.KeyByte)
	}
	trueKey := s.inst.TrueKeyByte(opt.KeyByte)
	curve := &sca.RankCurve{}
	_, err = engine.RunBatched(
		opt.Config,
		engine.Spec{
			Traces: maxN, Samples: s.nSamples, Banks: s.classBanks([]int{opt.KeyByte}), Seed: opt.Seed,
			Checkpoints: sorted,
			OnCheckpoint: func(n int, banks []sca.Accumulator) {
				att := s.rank(opt.KeyByte, banks[0], opt.Config)
				curve.TraceCounts = append(curve.TraceCounts, n)
				curve.Ranks = append(curve.Ranks, att.RankOf(int(trueKey)))
			},
		},
		s.batchGen(opt, []int{opt.KeyByte}))
	if err != nil {
		return nil, err
	}
	return curve, nil
}
