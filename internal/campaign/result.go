package campaign

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/leakscan"
)

// Table1Cell is one serialized cell of the dual-issue matrix.
type Table1Cell struct {
	// Older and Younger name the instruction classes of the ordered pair.
	Older   string `json:"older"`
	Younger string `json:"younger"`
	// CPI and HazardCPI are the hazard-free and RAW-laden measurements.
	CPI       float64 `json:"cpi"`
	HazardCPI float64 `json:"hazard_cpi"`
	// Dual is the measured verdict; Paper the published Table 1 cell.
	Dual  bool `json:"dual"`
	Paper bool `json:"paper"`
}

// Table1Result is the campaign form of one CPI-matrix run.
type Table1Result struct {
	Reps  int          `json:"reps"`
	Cells []Table1Cell `json:"cells"`
	// Match and Total count cells agreeing with the published Table 1.
	Match int `json:"match"`
	Total int `json:"total"`
}

// Figure2Result is the campaign form of one pipeline-structure
// inference.
type Figure2Result struct {
	DualIssue       bool   `json:"dual_issue"`
	FetchWidth      int    `json:"fetch_width"`
	NumALUs         int    `json:"num_alus"`
	ALUsSymmetric   bool   `json:"alus_symmetric"`
	ReadPorts       int    `json:"read_ports"`
	WritePorts      int    `json:"write_ports"`
	LSUPipelined    bool   `json:"lsu_pipelined"`
	MulPipelined    bool   `json:"mul_pipelined"`
	AGUInIssueStage bool   `json:"agu_in_issue_stage"`
	NopsDualIssued  bool   `json:"nops_dual_issued"`
	MatchesPaper    bool   `json:"matches_paper"`
	Disagreement    string `json:"disagreement,omitempty"`
}

// Table2Cell and Table2Row are the serialized verdicts of the leakage
// scan, shared with its request/response form.
type (
	Table2Cell = leakscan.CellJSON
	Table2Row  = leakscan.RowJSON
)

// Table2Result is the campaign form of one leakage characterization.
type Table2Result struct {
	Traces   int         `json:"traces"`
	Averages int         `json:"averages"`
	Rows     []Table2Row `json:"rows"`
	// Match and Total count scored cells (plus dual-issue columns)
	// agreeing with the published Table 2.
	Match int `json:"match"`
	Total int `json:"total"`
}

// Region is one annotated cipher-primitive window of a Figure 3 curve.
type Region struct {
	Name     string  `json:"name"`
	Round    int     `json:"round"`
	StartUs  float64 `json:"start_us"`
	EndUs    float64 `json:"end_us"`
	PeakCorr float64 `json:"peak_corr"`
	PeakUs   float64 `json:"peak_us"`
}

// AttackResult is the campaign form of one single-byte CPA (Figure 3 or
// Figure 4).
type AttackResult struct {
	KeyByte   int    `json:"key_byte"`
	TrueKey   string `json:"true_key"`
	Recovered string `json:"recovered"`
	Rank      int    `json:"rank"`
	Success   bool   `json:"success"`
	// BestCorr and SecondCorr are the top two hypothesis correlations
	// (Figure 4); Confidence distinguishes them.
	BestCorr   float64 `json:"best_corr,omitempty"`
	SecondCorr float64 `json:"second_corr,omitempty"`
	Confidence float64 `json:"confidence"`
	Traces     int     `json:"traces"`
	Averages   int     `json:"averages"`
	// Regions annotate the Figure 3 correlation curve.
	Regions []Region `json:"regions,omitempty"`
	// Replayed reports compiled-replay synthesis; FallbackReason an
	// auto-mode fallback.
	Replayed       bool   `json:"replayed"`
	FallbackReason string `json:"fallback_reason,omitempty"`
}

// FullKeyResult is the campaign form of a sixteen-byte recovery.
type FullKeyResult struct {
	Traces          int     `json:"traces"`
	Key             string  `json:"key"`
	Recovered       string  `json:"recovered"`
	BytesRecovered  int     `json:"bytes_recovered"`
	Ranks           []int   `json:"ranks"`
	GuessingEntropy float64 `json:"guessing_entropy"`
	Success         bool    `json:"success"`
}

// RankEvoResult is the campaign form of a rank-evolution run.
type RankEvoResult struct {
	KeyByte int   `json:"key_byte"`
	Counts  []int `json:"counts"`
	Ranks   []int `json:"ranks"`
	// FirstSuccess is the smallest checkpointed trace count with rank 0
	// (-1 when the key was never recovered).
	FirstSuccess int `json:"first_success"`
}

// MaskCPAResult is the campaign form of one keyed countermeasure
// evaluation (masking.EvaluateKeyedCPA).
type MaskCPAResult struct {
	// Gadget, Ctr and Order echo the scenario's countermeasure axes.
	Gadget string `json:"gadget"`
	Ctr    string `json:"ctr"`
	Order  int    `json:"order"`
	// TrueKey is the attacked key byte, Recovered the best-ranked
	// hypothesis, Rank the true key's 0-based rank.
	TrueKey   string `json:"true_key"`
	Recovered string `json:"recovered"`
	Rank      int    `json:"rank"`
	Success   bool   `json:"success"`
	// BestCorr and TrueCorr are the winning and true-key peak
	// correlations; Confidence distinguishes winner from runner-up.
	BestCorr   float64 `json:"best_corr"`
	TrueCorr   float64 `json:"true_corr"`
	Confidence float64 `json:"confidence"`
	Traces     int     `json:"traces"`
	Samples    int     `json:"samples"`
	// Pairs is the centered-product pair count (0 at first order).
	Pairs int `json:"pairs,omitempty"`
}

// TVLARow is one benchmark row of a fixed-vs-random t-test workload.
type TVLARow struct {
	Row  int    `json:"row"`
	Name string `json:"name"`
	// MaxT is the largest absolute t statistic; Sample its index.
	MaxT   float64 `json:"max_t"`
	Sample int     `json:"sample"`
	// Detected applies the conventional |t| > 4.5 threshold.
	Detected       bool `json:"detected"`
	TracesPerGroup int  `json:"traces_per_group"`
}

// TVLAResult is the campaign form of one TVLA workload.
type TVLAResult struct {
	Traces   int       `json:"traces"`
	Averages int       `json:"averages"`
	Rows     []TVLARow `json:"rows"`
	// Detected counts rows above threshold.
	Detected int `json:"detected"`
}

// ScenarioResult is one executed scenario: its identity axes plus
// exactly one kind-specific payload. Every field is a deterministic
// function of (Spec, scenario ID) — wall-clock time and host identity
// are deliberately absent so artifacts are comparable across machines
// and runs.
type ScenarioResult struct {
	ID       string `json:"id"`
	Kind     Kind   `json:"kind"`
	Ablation string `json:"ablation"`
	// Target is the attacked cipher in canonical spelling — absent for
	// the AES default, so every pre-registry result is byte-unchanged.
	Target string `json:"target,omitempty"`
	Seed   int64  `json:"seed"`
	// Traces/Averages/NoiseSigma/Synth record the resolved acquisition
	// point after defaults were applied (all zero for the cycle-count
	// kinds, which have no acquisition axes).
	Traces     int     `json:"traces"`
	Averages   int     `json:"averages"`
	NoiseSigma float64 `json:"noise_sigma"`
	Synth      string  `json:"synth"`

	Table1  *Table1Result  `json:"table1,omitempty"`
	Figure2 *Figure2Result `json:"figure2,omitempty"`
	Table2  *Table2Result  `json:"table2,omitempty"`
	Fig3    *AttackResult  `json:"fig3,omitempty"`
	Fig4    *AttackResult  `json:"fig4,omitempty"`
	FullKey *FullKeyResult `json:"fullkey,omitempty"`
	RankEvo *RankEvoResult `json:"rankevo,omitempty"`
	MaskCPA *MaskCPAResult `json:"maskcpa,omitempty"`
	TVLA    *TVLAResult    `json:"tvla,omitempty"`
}

// Results is a campaign's complete structured outcome, ordered by
// scenario enumeration order. It is the single source the CSV, the
// Markdown report and the regenerated EXPERIMENTS.md sections derive
// from.
type Results struct {
	// Campaign and Seed echo the spec.
	Campaign string `json:"campaign"`
	Seed     int64  `json:"seed"`
	// SpecFingerprint ties the results to the exact spec that produced
	// them (Spec.Fingerprint).
	SpecFingerprint string `json:"spec_fingerprint"`
	// Scenarios are the executed scenarios in enumeration order.
	Scenarios []ScenarioResult `json:"scenarios"`
}

// fmtFloat renders a float64 in the canonical shortest form shared by
// the CSV and Markdown emitters.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// csvEscape quotes a CSV field when needed.
func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// CSV renders the results as a long-format table — one row per
// (scenario, metric) — with the header
// scenario,kind,ablation,traces,averages,noise_sigma,synth,metric,value.
// The row order follows scenario enumeration order and a fixed
// per-kind metric order, so the output is byte-stable.
func (r *Results) CSV() string {
	var sb strings.Builder
	sb.WriteString("scenario,kind,ablation,traces,averages,noise_sigma,synth,metric,value\n")
	for i := range r.Scenarios {
		sr := &r.Scenarios[i]
		prefix := fmt.Sprintf("%s,%s,%s,%d,%d,%s,%s",
			csvEscape(sr.ID), sr.Kind, csvEscape(sr.Ablation),
			sr.Traces, sr.Averages, fmtFloat(sr.NoiseSigma), sr.Synth)
		row := func(metric, value string) {
			fmt.Fprintf(&sb, "%s,%s,%s\n", prefix, csvEscape(metric), csvEscape(value))
		}
		num := func(metric string, v float64) { row(metric, fmtFloat(v)) }
		count := func(metric string, v int) { row(metric, strconv.Itoa(v)) }
		boolean := func(metric string, v bool) { row(metric, strconv.FormatBool(v)) }
		switch {
		case sr.Table1 != nil:
			count("table1_match", sr.Table1.Match)
			count("table1_total", sr.Table1.Total)
			for _, c := range sr.Table1.Cells {
				num("cpi:"+c.Older+"|"+c.Younger, c.CPI)
			}
		case sr.Figure2 != nil:
			boolean("figure2_matches_paper", sr.Figure2.MatchesPaper)
		case sr.Table2 != nil:
			count("table2_match", sr.Table2.Match)
			count("table2_total", sr.Table2.Total)
			for _, rw := range sr.Table2.Rows {
				for _, c := range rw.Cells {
					if !c.Scored {
						continue
					}
					num(fmt.Sprintf("peak:row%d:%s:%s", rw.Row, c.Column, c.Expr), c.Peak)
				}
			}
		case sr.Fig3 != nil:
			count("rank", sr.Fig3.Rank)
			boolean("success", sr.Fig3.Success)
			num("confidence", sr.Fig3.Confidence)
			for _, reg := range sr.Fig3.Regions {
				num(fmt.Sprintf("region_peak:%s%d", reg.Name, reg.Round), reg.PeakCorr)
			}
			boolean("replayed", sr.Fig3.Replayed)
		case sr.Fig4 != nil:
			count("rank", sr.Fig4.Rank)
			boolean("success", sr.Fig4.Success)
			num("best_corr", sr.Fig4.BestCorr)
			num("second_corr", sr.Fig4.SecondCorr)
			num("confidence", sr.Fig4.Confidence)
			boolean("replayed", sr.Fig4.Replayed)
		case sr.FullKey != nil:
			count("bytes_recovered", sr.FullKey.BytesRecovered)
			num("guessing_entropy", sr.FullKey.GuessingEntropy)
			boolean("success", sr.FullKey.Success)
		case sr.RankEvo != nil:
			for j, c := range sr.RankEvo.Counts {
				count(fmt.Sprintf("rank@%d", c), sr.RankEvo.Ranks[j])
			}
			count("first_success", sr.RankEvo.FirstSuccess)
		case sr.MaskCPA != nil:
			count("rank", sr.MaskCPA.Rank)
			boolean("success", sr.MaskCPA.Success)
			num("best_corr", sr.MaskCPA.BestCorr)
			num("true_corr", sr.MaskCPA.TrueCorr)
			num("confidence", sr.MaskCPA.Confidence)
			count("pairs", sr.MaskCPA.Pairs)
		case sr.TVLA != nil:
			count("tvla_detected", sr.TVLA.Detected)
			for _, rw := range sr.TVLA.Rows {
				num(fmt.Sprintf("max_t:row%d:%s", rw.Row, rw.Name), rw.MaxT)
			}
		}
	}
	return sb.String()
}
