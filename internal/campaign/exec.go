package campaign

import (
	"encoding/hex"
	"fmt"
	"slices"

	"repro/internal/aes"
	"repro/internal/attack"
	"repro/internal/cpi"
	"repro/internal/engine"
	"repro/internal/leakscan"
	"repro/internal/masking"
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
		err = execTable1(sc, out, run)
	case KindFigure2:
		err = execFigure2(sc, out, run)
	case KindTable2:
		err = execTable2(sc, out, run)
	case KindFig3, KindFig4, KindFullKey, KindRankEvo:
		err = execAttack(sc, out, key, run)
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

func execTable1(sc *Scenario, out *ScenarioResult, run engine.Config) error {
	m, err := cpi.MeasureMatrix(sc.Ablation.Core, sc.reps(), run.Each)
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

func execFigure2(sc *Scenario, out *ScenarioResult, run engine.Config) error {
	m, err := cpi.MeasureMatrix(sc.Ablation.Core, sc.reps(), run.Each)
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

// leakscanOptions builds the scan options of a tvla scenario.
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

// execTable2 runs a table2 scenario as the leakscan.Request of the same
// scan, under the ablation's core and model.
func execTable2(sc *Scenario, out *ScenarioResult, run engine.Config) error {
	sigma := sc.sigma()
	req := leakscan.Request{
		Traces:     sc.Traces,
		Averages:   sc.Averages,
		Rows:       slices.Clone(sc.Rows), // Normalize sorts in place
		Confidence: sc.Confidence,
		NoiseSigma: &sigma,
		Seed:       sc.Seed,
		Synth:      sc.Synth.String(),
	}
	resp, err := req.Run(engine.RunEnv{Core: sc.Ablation.Core, Model: sc.Ablation.Model, Config: run})
	if err != nil {
		return err
	}
	out.Table2 = &Table2Result{Traces: resp.Traces, Averages: resp.Averages, Rows: resp.Rows, Match: resp.Match, Total: resp.Total}
	out.Traces, out.Averages, out.NoiseSigma, out.Synth = resp.Traces, resp.Averages, sigma, resp.Synth
	return nil
}

// execAttack runs a fig3, fig4, fullkey or rankevo scenario as the
// attack.Request of the same figure, under the ablation's core and
// model. The AES default attacks the campaign key; another target
// attacks its registry default key (Spec.Key is AES-only). Normalize
// reads seed 0 as seed 1; a scenario's seed comes from
// engine.DeriveSeed, and no committed scenario has seed 0.
func execAttack(sc *Scenario, out *ScenarioResult, key [aes.KeySize]byte, run engine.Config) error {
	sigma := sc.sigma()
	req := attack.Request{
		Figure:     string(sc.Kind),
		Target:     sc.Target,
		Traces:     sc.Traces,
		Averages:   sc.Averages,
		KeyByte:    sc.KeyByte,
		Rounds:     sc.Rounds,
		Seed:       sc.Seed,
		NoiseSigma: &sigma,
		Synth:      sc.Synth.String(),
		Counts:     slices.Clone(sc.Counts), // Normalize sorts in place
	}
	if sc.Target == "" {
		req.Key = hex.EncodeToString(key[:])
	}
	resp, err := req.Run(engine.RunEnv{Core: sc.Ablation.Core, Model: sc.Ablation.Model, Config: run})
	if err != nil {
		return err
	}
	switch {
	case resp.Attack != nil:
		a := resp.Attack
		ar := &AttackResult{
			KeyByte:        a.KeyByte,
			TrueKey:        "0x" + a.TrueKey,
			Recovered:      "0x" + a.Recovered,
			Rank:           a.Rank,
			Success:        a.Success,
			BestCorr:       a.BestCorr,
			SecondCorr:     a.SecondCorr,
			Confidence:     a.Confidence,
			Traces:         resp.Traces,
			Averages:       resp.Averages,
			Regions:        a.Regions,
			Replayed:       resp.Replayed,
			FallbackReason: resp.FallbackReason,
		}
		if sc.Kind == KindFig4 {
			out.Fig4 = ar
		} else {
			out.Fig3 = ar
		}
	case resp.FullKey != nil:
		f := resp.FullKey
		out.FullKey = &FullKeyResult{
			Traces:          resp.Traces,
			Key:             f.Key,
			Recovered:       f.Recovered,
			BytesRecovered:  f.BytesRecovered,
			Ranks:           f.Ranks,
			GuessingEntropy: f.GuessingEntropy,
			Success:         f.Success,
		}
	default:
		out.RankEvo = resp.RankEvo
	}
	out.Traces, out.Averages, out.NoiseSigma, out.Synth = resp.Traces, resp.Averages, sigma, resp.Synth
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
