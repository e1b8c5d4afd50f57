package campaign

import (
	"encoding/hex"
	"fmt"

	"repro/internal/aes"
	"repro/internal/attack"
	"repro/internal/cpi"
	"repro/internal/engine"
	"repro/internal/leakscan"
	"repro/internal/masking"
	"repro/internal/target"
)

// Execute runs one scenario to completion under run's scheduling and
// returns its structured result. It is a pure function of (scenario,
// key): the scenario's private seed drives all randomness through
// per-trace streams, so two executions — on any shard, under any
// engine.Config — produce identical results. Cancelling run.Ctx aborts
// the scenario between engine chunks; it never produces a partial
// result. A long-lived service drives concurrent scenarios through it
// with a shared run.Gate.
func Execute(sc *Scenario, key [aes.KeySize]byte, run engine.Config) (*ScenarioResult, error) {
	if err := engine.CheckLanes(run.Lanes); err != nil {
		return nil, err
	}
	out := &ScenarioResult{
		ID:       sc.ID,
		Kind:     sc.Kind,
		Ablation: sc.Ablation.Name,
		Target:   sc.Target,
		Seed:     sc.Seed,
	}
	var err error
	switch sc.Kind {
	case KindTable1:
		err = execTable1(sc, out)
	case KindFigure2:
		err = execFigure2(sc, out)
	case KindTable2:
		err = execTable2(sc, out, run)
	case KindFig3:
		err = execFig3(sc, out, key, run)
	case KindFig4:
		err = execFig4(sc, out, key, run)
	case KindFullKey:
		err = execFullKey(sc, out, key, run)
	case KindRankEvo:
		err = execRankEvo(sc, out, key, run)
	case KindMaskCPA:
		err = execMaskCPA(sc, out, key, run)
	case KindTVLA:
		err = execTVLA(sc, out, run)
	default:
		err = fmt.Errorf("campaign: unknown kind %q", sc.Kind)
	}
	if err == nil && run.Ctx != nil {
		// The cycle-count kinds never observe the context; honor
		// cancellation uniformly so a canceled campaign cannot
		// half-commit.
		err = run.Ctx.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: scenario %s: %w", sc.ID, err)
	}
	return out, nil
}

// sigma resolves the scenario's noise override against the model
// default carried by the ablation.
func (sc *Scenario) sigma() float64 {
	if sc.NoiseSigma == SigmaDefault {
		return sc.Ablation.Model.NoiseSigma
	}
	return sc.NoiseSigma
}

func (sc *Scenario) reps() int {
	if sc.Reps > 0 {
		return sc.Reps
	}
	return cpi.DefaultReps
}

func execTable1(sc *Scenario, out *ScenarioResult) error {
	m, err := cpi.MeasureMatrix(sc.Ablation.Core, sc.reps())
	if err != nil {
		return err
	}
	res := &Table1Result{Reps: sc.reps()}
	for _, cell := range m.Ordered() {
		res.Cells = append(res.Cells, Table1Cell{
			Older:     cell.Older.String(),
			Younger:   cell.Younger.String(),
			CPI:       cell.CPI,
			HazardCPI: cell.HazardCPI,
			Dual:      cell.Dual,
			Paper:     cpi.PaperTable1(cell.Older, cell.Younger),
		})
	}
	res.Match, res.Total = m.Agreement()
	out.Table1 = res
	return nil
}

func execFigure2(sc *Scenario, out *ScenarioResult) error {
	m, err := cpi.MeasureMatrix(sc.Ablation.Core, sc.reps())
	if err != nil {
		return err
	}
	p, err := cpi.MeasureProbes(sc.Ablation.Core, sc.reps())
	if err != nil {
		return err
	}
	inf := cpi.Infer(m, p)
	ok, why := inf.MatchesPaper()
	out.Figure2 = &Figure2Result{
		DualIssue:       inf.DualIssue,
		FetchWidth:      inf.FetchWidth,
		NumALUs:         inf.NumALUs,
		ALUsSymmetric:   inf.ALUsSymmetric,
		ReadPorts:       inf.ReadPorts,
		WritePorts:      inf.WritePorts,
		LSUPipelined:    inf.LSUPipelined,
		MulPipelined:    inf.MulPipelined,
		AGUInIssueStage: inf.AGUInIssueStage,
		NopsDualIssued:  inf.NopsDualIssued,
		MatchesPaper:    ok,
		Disagreement:    why,
	}
	return nil
}

// leakscanOptions builds the scan options shared by the table2 and tvla
// kinds.
func (sc *Scenario) leakscanOptions(run engine.Config) leakscan.Options {
	opt := leakscan.DefaultOptions()
	opt.Core = sc.Ablation.Core
	opt.Model = sc.Ablation.Model
	opt.Model.NoiseSigma = sc.sigma()
	opt.Seed = sc.Seed
	opt.Config = run
	opt.Synth = sc.Synth
	if sc.Traces > 0 {
		opt.Traces = sc.Traces
	}
	if sc.Averages > 0 {
		opt.Averages = sc.Averages
	}
	if sc.Confidence > 0 {
		opt.Confidence = sc.Confidence
	}
	return opt
}

func execTable2(sc *Scenario, out *ScenarioResult, run engine.Config) error {
	opt := sc.leakscanOptions(run)
	bs, err := leakscan.BenchmarksByRow(sc.Rows)
	if err != nil {
		return err
	}
	res := &Table2Result{Traces: opt.Traces, Averages: opt.Averages}
	for _, b := range bs {
		br, err := leakscan.RunBenchmark(&b, opt)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, br.JSON())
		m, t := br.Agreement()
		res.Match += m
		res.Total += t
	}
	out.Table2 = res
	out.Traces, out.Averages, out.NoiseSigma, out.Synth = opt.Traces, opt.Averages, opt.Model.NoiseSigma, sc.Synth.String()
	return nil
}

// overlay applies the scenario's attack settings and run's scheduling
// to opt; the fields the scenario leaves at zero keep opt's defaults.
func (sc *Scenario) overlay(opt *attack.Fig3Options, run engine.Config) {
	opt.Core = sc.Ablation.Core
	opt.Model = sc.Ablation.Model
	opt.Model.NoiseSigma = sc.sigma()
	opt.Seed = sc.Seed
	opt.Config = run
	opt.Synth = sc.Synth
	if sc.Traces > 0 {
		opt.Traces = sc.Traces
	}
	if sc.Averages > 0 {
		opt.Averages = sc.Averages
	}
	if sc.KeyByte > 0 {
		opt.KeyByte = sc.KeyByte
	}
	if sc.Rounds > 0 {
		opt.Rounds = sc.Rounds
	}
}

// fig3Options assembles the attack options shared by the fig3-model
// kinds (fig3, fullkey, rankevo).
func (sc *Scenario) fig3Options(run engine.Config) attack.Fig3Options {
	opt := attack.DefaultFig3Options()
	sc.overlay(&opt, run)
	return opt
}

// attackCipher resolves the fig3-family scenario's cipher target: the
// campaign key for the AES default, the registry default key otherwise
// (Spec.Key is AES-only by contract). For a non-AES target it also
// substitutes the cipher's own default round count when the scenario
// does not pin one, since opt's default is the AES depth.
func (sc *Scenario) attackCipher(key [aes.KeySize]byte, opt *attack.Fig3Options) (string, []byte, error) {
	name := target.Resolve(sc.Target)
	if name == target.Default {
		return name, key[:], nil
	}
	tgt, err := target.Get(name)
	if err != nil {
		return "", nil, err
	}
	info := tgt.Info()
	if sc.Rounds == 0 {
		opt.Rounds = info.DefaultRounds
	}
	return name, info.DefaultKey, nil
}

func execFig3(sc *Scenario, out *ScenarioResult, key [aes.KeySize]byte, run engine.Config) error {
	opt := sc.fig3Options(run)
	name, tkey, err := sc.attackCipher(key, &opt)
	if err != nil {
		return err
	}
	res, err := attack.RunCPA(name, tkey, opt)
	if err != nil {
		return err
	}
	ar := &AttackResult{
		KeyByte:        res.KeyByte,
		TrueKey:        fmt.Sprintf("%#02x", res.TrueKey),
		Recovered:      fmt.Sprintf("%#02x", res.Recovered),
		Rank:           res.Rank,
		Success:        res.Success(),
		Confidence:     res.Confidence,
		Traces:         res.Traces,
		Averages:       opt.Averages,
		Replayed:       res.Replayed,
		FallbackReason: res.FallbackReason,
	}
	for _, reg := range res.Regions {
		ar.Regions = append(ar.Regions, Region{
			Name: reg.Name, Round: reg.Round,
			StartUs: reg.StartUs, EndUs: reg.EndUs,
			PeakCorr: reg.PeakCorr, PeakUs: reg.PeakSampleUs,
		})
	}
	out.Fig3 = ar
	out.Traces, out.Averages, out.NoiseSigma, out.Synth = opt.Traces, opt.Averages, opt.Model.NoiseSigma, sc.Synth.String()
	return nil
}

func execFig4(sc *Scenario, out *ScenarioResult, key [aes.KeySize]byte, run engine.Config) error {
	opt := attack.DefaultFig4Options()
	sc.overlay(&opt.Fig3Options, run)
	res, err := attack.RunFigure4(key, opt)
	if err != nil {
		return err
	}
	out.Fig4 = &AttackResult{
		KeyByte:        res.KeyByte,
		TrueKey:        fmt.Sprintf("%#02x", res.TrueKey),
		Recovered:      fmt.Sprintf("%#02x", res.Recovered),
		Rank:           res.Rank,
		Success:        res.Success(),
		BestCorr:       res.BestCorr,
		SecondCorr:     res.SecondCorr,
		Confidence:     res.Confidence,
		Traces:         res.Traces,
		Averages:       opt.Averages,
		Replayed:       res.Replayed,
		FallbackReason: res.FallbackReason,
	}
	out.Traces, out.Averages, out.NoiseSigma, out.Synth = opt.Traces, opt.Averages, opt.Model.NoiseSigma, sc.Synth.String()
	return nil
}

func execFullKey(sc *Scenario, out *ScenarioResult, key [aes.KeySize]byte, run engine.Config) error {
	opt := sc.fig3Options(run)
	name, tkey, err := sc.attackCipher(key, &opt)
	if err != nil {
		return err
	}
	res, err := attack.RecoverKey(name, tkey, opt)
	if err != nil {
		return err
	}
	out.FullKey = &FullKeyResult{
		Traces:          res.Traces,
		Key:             hex.EncodeToString(res.Key),
		Recovered:       hex.EncodeToString(res.Recovered),
		BytesRecovered:  res.BytesRecovered(),
		Ranks:           append([]int(nil), res.Ranks...),
		GuessingEntropy: res.GuessingEntropy(),
		Success:         res.Success(),
	}
	out.Traces, out.Averages, out.NoiseSigma, out.Synth = opt.Traces, opt.Averages, opt.Model.NoiseSigma, sc.Synth.String()
	return nil
}

func execRankEvo(sc *Scenario, out *ScenarioResult, key [aes.KeySize]byte, run engine.Config) error {
	opt := sc.fig3Options(run)
	name, tkey, err := sc.attackCipher(key, &opt)
	if err != nil {
		return err
	}
	curve, err := attack.RankEvolution(name, tkey, opt, sc.Counts)
	if err != nil {
		return err
	}
	res := &RankEvoResult{
		KeyByte:      opt.KeyByte,
		Counts:       append([]int(nil), curve.TraceCounts...),
		Ranks:        append([]int(nil), curve.Ranks...),
		FirstSuccess: curve.FirstSuccess(),
	}
	out.RankEvo = res
	max := sc.Counts[len(sc.Counts)-1]
	out.Traces, out.Averages, out.NoiseSigma, out.Synth = max, opt.Averages, opt.Model.NoiseSigma, sc.Synth.String()
	return nil
}

// keyedOptions builds the keyed masking evaluation of a maskcpa
// scenario.
func (sc *Scenario) keyedOptions(key [aes.KeySize]byte, run engine.Config) (masking.KeyedOptions, error) {
	ctr, err := masking.ParseCountermeasure(sc.Ctr)
	if err != nil {
		return masking.KeyedOptions{}, err
	}
	opt := masking.DefaultKeyedOptions()
	opt.Schedule = sc.Gadget
	opt.Ctr = ctr
	opt.Order = sc.Order
	opt.Key = key[sc.KeyByte]
	opt.Core = sc.Ablation.Core
	opt.Model = sc.Ablation.Model
	opt.Model.NoiseSigma = sc.sigma()
	opt.Seed = sc.Seed
	opt.Synth = sc.Synth
	opt.Config = run
	if sc.Traces > 0 {
		opt.Traces = sc.Traces
	}
	if sc.Averages > 0 {
		opt.Averages = sc.Averages
	}
	return opt, nil
}

func execMaskCPA(sc *Scenario, out *ScenarioResult, key [aes.KeySize]byte, run engine.Config) error {
	opt, err := sc.keyedOptions(key, run)
	if err != nil {
		return err
	}
	res, err := masking.EvaluateKeyedCPA(opt)
	if err != nil {
		return err
	}
	out.MaskCPA = &MaskCPAResult{
		Gadget:     res.Schedule,
		Ctr:        res.Ctr,
		Order:      res.Order,
		TrueKey:    fmt.Sprintf("%#02x", res.Key),
		Recovered:  fmt.Sprintf("%#02x", res.Recovered),
		Rank:       res.Rank,
		Success:    res.Success,
		BestCorr:   res.BestCorr,
		TrueCorr:   res.TrueCorr,
		Confidence: res.Confidence,
		Traces:     res.Traces,
		Samples:    res.Samples,
		Pairs:      res.Pairs,
	}
	out.Traces, out.Averages, out.NoiseSigma, out.Synth = opt.Traces, opt.Averages, opt.Model.NoiseSigma, sc.Synth.String()
	return nil
}

func execTVLA(sc *Scenario, out *ScenarioResult, run engine.Config) error {
	opt := sc.leakscanOptions(run)
	bs, err := leakscan.BenchmarksByRow(sc.Rows)
	if err != nil {
		return err
	}
	res := &TVLAResult{Traces: opt.Traces, Averages: opt.Averages}
	for _, b := range bs {
		tr, err := leakscan.RunTVLA(&b, opt)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, TVLARow{
			Row: b.Row, Name: b.Name,
			MaxT: tr.MaxT, Sample: tr.Sample,
			Detected:       tr.Detected,
			TracesPerGroup: tr.TracesPerGroup,
		})
		if tr.Detected {
			res.Detected++
		}
	}
	out.TVLA = res
	out.Traces, out.Averages, out.NoiseSigma, out.Synth = opt.Traces, opt.Averages, opt.Model.NoiseSigma, sc.Synth.String()
	return nil
}

// Headline summarizes a result in one line — the headline metric of its
// kind — shared by progress logs, the summary report table and
// cmd/campaign's recap. Non-AES attack targets are named; the AES
// default keeps its pre-registry spelling.
func (sr *ScenarioResult) Headline() string {
	if sr.Target != "" {
		return sr.Target + " " + sr.headline()
	}
	return sr.headline()
}

func (sr *ScenarioResult) headline() string {
	switch {
	case sr.Table1 != nil:
		return fmt.Sprintf("Table 1 agreement %d/%d", sr.Table1.Match, sr.Table1.Total)
	case sr.Figure2 != nil:
		return fmt.Sprintf("Figure 2 matches paper: %v", sr.Figure2.MatchesPaper)
	case sr.Table2 != nil:
		return fmt.Sprintf("Table 2 agreement %d/%d", sr.Table2.Match, sr.Table2.Total)
	case sr.Fig3 != nil:
		return fmt.Sprintf("Fig 3 key byte %d rank %d (conf %.4f)", sr.Fig3.KeyByte, sr.Fig3.Rank, sr.Fig3.Confidence)
	case sr.Fig4 != nil:
		return fmt.Sprintf("Fig 4 key byte %d rank %d (conf %.4f)", sr.Fig4.KeyByte, sr.Fig4.Rank, sr.Fig4.Confidence)
	case sr.FullKey != nil:
		return fmt.Sprintf("full key %d/%d bytes", sr.FullKey.BytesRecovered, len(sr.FullKey.Ranks))
	case sr.RankEvo != nil:
		if sr.RankEvo.FirstSuccess < 0 {
			return "rank evolution: key never recovered"
		}
		return fmt.Sprintf("rank evolution first success @ %d traces", sr.RankEvo.FirstSuccess)
	case sr.MaskCPA != nil:
		m := sr.MaskCPA
		outcome := "key NOT recovered"
		if m.Success {
			outcome = "key recovered"
		}
		return fmt.Sprintf("%s/%s order-%d CPA: %s (rank %d, r=%+.3f)",
			m.Gadget, m.Ctr, m.Order, outcome, m.Rank, m.BestCorr)
	case sr.TVLA != nil:
		return fmt.Sprintf("TVLA: %d/%d rows above |t|=%g", sr.TVLA.Detected, len(sr.TVLA.Rows), leakscan.TVLAThreshold)
	}
	return "done"
}
