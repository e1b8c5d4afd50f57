package campaign

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/target"
)

// SectionNames lists the report fragments that can be rendered on their
// own and spliced into documentation between campaign markers, in the
// order Report concatenates them.
func SectionNames() []string {
	return []string{"summary", "table1", "figure2", "table2", "fig3", "fig4", "keyrank", "targets", "countermeasures", "tvla", "ablations"}
}

// RenderSection renders one named fragment of the results as Markdown.
// Rendering is a pure function of the results, so a fragment is
// byte-identical however many workers or shards produced them.
func RenderSection(r *Results, name string) (string, error) {
	switch name {
	case "summary":
		return renderSummary(r), nil
	case "table1":
		return renderTable1(r), nil
	case "figure2":
		return renderFigure2(r), nil
	case "table2":
		return renderTable2(r), nil
	case "fig3":
		return renderFig3(r), nil
	case "fig4":
		return renderFig4(r), nil
	case "keyrank":
		return renderKeyRank(r), nil
	case "targets":
		return renderTargets(r), nil
	case "countermeasures":
		return renderCountermeasures(r), nil
	case "tvla":
		return renderTVLA(r), nil
	case "ablations":
		return renderAblations(r), nil
	}
	return "", fmt.Errorf("campaign: unknown report section %q", name)
}

// Report renders the complete Markdown report: every section, in
// SectionNames order, under one campaign header.
func Report(r *Results) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Campaign report — %s\n\n", r.Campaign)
	for _, name := range SectionNames() {
		s, err := RenderSection(r, name)
		if err != nil {
			// All names come from SectionNames.
			panic(err)
		}
		if s == "" {
			continue
		}
		sb.WriteString(s)
		if !strings.HasSuffix(s, "\n\n") {
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// scenariosOf selects scenarios of one kind, preserving order.
func scenariosOf(r *Results, k Kind) []*ScenarioResult {
	var out []*ScenarioResult
	for i := range r.Scenarios {
		if r.Scenarios[i].Kind == k {
			out = append(out, &r.Scenarios[i])
		}
	}
	return out
}

// aesOnly drops the non-AES target scenarios: the AES-titled report
// sections keep their pre-registry content and the targets section owns
// the rest.
func aesOnly(ss []*ScenarioResult) []*ScenarioResult {
	var out []*ScenarioResult
	for _, sr := range ss {
		if sr.Target == "" {
			out = append(out, sr)
		}
	}
	return out
}

// acqDesc renders a scenario's acquisition point compactly.
func (sr *ScenarioResult) acqDesc() string {
	if sr.Kind == KindTable1 || sr.Kind == KindFigure2 {
		return "cycle-accurate (no acquisition)"
	}
	return fmt.Sprintf("%d traces ×%d avg, σ=%s, synth %s", sr.Traces, sr.Averages, fmtFloat(sr.NoiseSigma), sr.Synth)
}

func renderSummary(r *Results) string {
	var sb strings.Builder
	sb.WriteString("## Campaign summary\n\n")
	fmt.Fprintf(&sb, "Campaign `%s`, seed %d, %d scenarios, spec fingerprint `%.12s`.\n",
		r.Campaign, r.Seed, len(r.Scenarios), r.SpecFingerprint)
	sb.WriteString("Every number below is a deterministic function of the spec: per-scenario\n")
	sb.WriteString("seeds derive from (campaign seed, scenario ID), and all artifacts are\n")
	sb.WriteString("byte-identical for any worker or shard count.\n\n")
	sb.WriteString("| # | scenario | headline |\n|---|---|---|\n")
	for i := range r.Scenarios {
		sr := &r.Scenarios[i]
		fmt.Fprintf(&sb, "| %d | `%s` | %s |\n", i, sr.ID, sr.Headline())
	}
	return sb.String()
}

// table1Grid renders the dual-issue matrix of one scenario.
func table1Grid(t *Table1Result) string {
	// Cells are older-class-major over the n Table 1 classes, so the
	// first n Younger entries name the columns (and, symmetrically, the
	// rows).
	n := 1
	for n*n < len(t.Cells) {
		n++
	}
	if len(t.Cells) == 0 || n*n != len(t.Cells) {
		// Hand-edited or truncated results: degrade gracefully — this
		// renderer also runs on files loaded from disk.
		return fmt.Sprintf("_malformed matrix: %d cells_\n", len(t.Cells))
	}
	classes := make([]string, n)
	for j := 0; j < n; j++ {
		classes[j] = t.Cells[j].Younger
	}
	var sb strings.Builder
	sb.WriteString("| older \\ younger |")
	for _, c := range classes {
		fmt.Fprintf(&sb, " %s |", c)
	}
	sb.WriteString("\n|---|")
	sb.WriteString(strings.Repeat("---|", n))
	sb.WriteString("\n")
	for i, older := range classes {
		fmt.Fprintf(&sb, "| **%s** |", older)
		for j := range classes {
			c := t.Cells[i*n+j]
			mark := "✗"
			if c.Dual {
				mark = "✓"
			}
			cell := fmt.Sprintf(" %s %.2f", mark, c.CPI)
			if c.Dual != c.Paper {
				cell += " (≠paper)"
			}
			sb.WriteString(cell + " |")
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func renderTable1(r *Results) string {
	ss := scenariosOf(r, KindTable1)
	if len(ss) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("## Table 1 — dual-issue matrix (§3.2)\n\n")
	for _, sr := range ss {
		t := sr.Table1
		fmt.Fprintf(&sb, "**Ablation `%s`** (%d reps/pair): %d/%d cells match the published Table 1.\n\n",
			sr.Ablation, t.Reps, t.Match, t.Total)
		if sr.Ablation == PaperAblation {
			sb.WriteString(table1Grid(t))
			sb.WriteString("\n")
		} else if t.Match != t.Total {
			var flipped []string
			for _, c := range t.Cells {
				if c.Dual != c.Paper {
					flipped = append(flipped, fmt.Sprintf("(%s, %s)", c.Older, c.Younger))
				}
			}
			fmt.Fprintf(&sb, "Flipped cells: %s.\n\n", strings.Join(flipped, ", "))
		}
	}
	return sb.String()
}

func renderFigure2(r *Results) string {
	ss := scenariosOf(r, KindFigure2)
	if len(ss) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("## Figure 2 — inferred pipeline structure (§3)\n\n")
	for _, sr := range ss {
		f := sr.Figure2
		fmt.Fprintf(&sb, "**Ablation `%s`**: matches the paper's Figure 2: **%v**", sr.Ablation, f.MatchesPaper)
		if !f.MatchesPaper {
			fmt.Fprintf(&sb, " (%s)", f.Disagreement)
		}
		sb.WriteString("\n\n")
		if sr.Ablation == PaperAblation {
			fmt.Fprintf(&sb, "| property | inferred |\n|---|---|\n")
			fmt.Fprintf(&sb, "| dual issue | %v (fetch width %d) |\n", f.DualIssue, f.FetchWidth)
			fmt.Fprintf(&sb, "| ALUs | %d, symmetric: %v |\n", f.NumALUs, f.ALUsSymmetric)
			fmt.Fprintf(&sb, "| RF read / write ports | %d / %d |\n", f.ReadPorts, f.WritePorts)
			fmt.Fprintf(&sb, "| LSU pipelined | %v |\n", f.LSUPipelined)
			fmt.Fprintf(&sb, "| multiplier pipelined | %v |\n", f.MulPipelined)
			fmt.Fprintf(&sb, "| AGU in issue stage | %v |\n", f.AGUInIssueStage)
			fmt.Fprintf(&sb, "| nops dual-issued | %v |\n\n", f.NopsDualIssued)
		}
	}
	return sb.String()
}

// table2Columns is the fixed column order of the Table 2 grid.
var table2Columns = []string{
	"Register File", "Is/Ex Buffer", "Shift Buffer", "ALU Buffer",
	"Ex/Wb Buffer", "MDR", "Align Buffer",
}

// table2Grid renders one scan as the paper's Table 2 shape: benchmark
// rows × component columns, cells listing the detected scored
// expressions († for border effects, (!) for disagreements with the
// paper).
func table2Grid(t *Table2Result) string {
	var sb strings.Builder
	sb.WriteString("| # | benchmark | dual |")
	for _, c := range table2Columns {
		fmt.Fprintf(&sb, " %s |", c)
	}
	sb.WriteString("\n|---|---|---|")
	sb.WriteString(strings.Repeat("---|", len(table2Columns)))
	sb.WriteString("\n")
	for _, row := range t.Rows {
		dual := "✗"
		if row.Dual {
			dual = "✓"
		}
		if row.Dual != row.DualExpected {
			dual += " (!)"
		}
		fmt.Fprintf(&sb, "| %d | `%s` | %s |", row.Row, row.Name, dual)
		for _, col := range table2Columns {
			var parts []string
			for _, c := range row.Cells {
				if c.Column != col || !c.Scored {
					continue
				}
				switch {
				case !c.Match:
					parts = append(parts, "(!"+c.Expr+")")
				case c.Detected && c.Border && !strings.HasSuffix(c.Expr, "†"):
					parts = append(parts, c.Expr+"†")
				case c.Detected:
					parts = append(parts, c.Expr)
				}
			}
			if len(parts) == 0 {
				sb.WriteString(" · |")
			} else {
				fmt.Fprintf(&sb, " %s |", strings.Join(parts, ", "))
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// table2Magnitudes renders, per row, the strongest detected scored
// expression — the representative correlation magnitudes.
func table2Magnitudes(t *Table2Result) string {
	var sb strings.Builder
	sb.WriteString("| row | strongest effect | r | confidence |\n|---|---|---|---|\n")
	for _, row := range t.Rows {
		best := -1
		for i, c := range row.Cells {
			if !c.Scored || !c.Detected {
				continue
			}
			if best < 0 || math.Abs(c.Peak) > math.Abs(row.Cells[best].Peak) {
				best = i
			}
		}
		if best < 0 {
			fmt.Fprintf(&sb, "| %d | _none detected_ | — | — |\n", row.Row)
			continue
		}
		c := row.Cells[best]
		fmt.Fprintf(&sb, "| %d | %s `%s` | %+.3f | %.4f |\n", row.Row, c.Column, c.Expr, c.Peak, c.Confidence)
	}
	return sb.String()
}

func renderTable2(r *Results) string {
	ss := scenariosOf(r, KindTable2)
	if len(ss) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("## Table 2 — leakage characterization (§4)\n\n")
	var compact []*ScenarioResult
	for _, sr := range ss {
		if sr.Ablation != PaperAblation {
			compact = append(compact, sr)
			continue
		}
		t := sr.Table2
		fmt.Fprintf(&sb, "**Ablation `paper`** — %s: scored agreement with Table 2 **%d/%d**.\n\n",
			sr.acqDesc(), t.Match, t.Total)
		sb.WriteString(table2Grid(t))
		sb.WriteString("\nCells list the detected scored model expressions; † marks border\n")
		sb.WriteString("effects of the flushing nops, (!) a disagreement with the paper, · no\n")
		sb.WriteString("detected leak.\n\n")
		sb.WriteString("Representative magnitudes:\n\n")
		sb.WriteString(table2Magnitudes(t))
		sb.WriteString("\n")
	}
	if len(compact) > 0 {
		sb.WriteString("Ablated scans:\n\n")
		sb.WriteString("| ablation | acquisition | agreement vs paper Table 2 |\n|---|---|---|\n")
		for _, sr := range compact {
			fmt.Fprintf(&sb, "| `%s` | %s | %d/%d |\n", sr.Ablation, sr.acqDesc(), sr.Table2.Match, sr.Table2.Total)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func attackLine(sr *ScenarioResult, a *AttackResult) string {
	status := "recovered"
	if !a.Success {
		status = fmt.Sprintf("NOT recovered (rank %d)", a.Rank)
	}
	return fmt.Sprintf("| `%s` | %s | %s | key byte %d %s | %.4f |",
		sr.Ablation, sr.acqDesc(), a.Recovered, a.KeyByte, status, a.Confidence)
}

func renderFig3(r *Results) string {
	ss := aesOnly(scenariosOf(r, KindFig3))
	if len(ss) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("## Figure 3 — bare-metal AES CPA (§5)\n\n")
	sb.WriteString("Model: HW(SubBytes output), micro-architecture-agnostic.\n\n")
	sb.WriteString("| ablation | acquisition | top guess | outcome | confidence |\n|---|---|---|---|---|\n")
	for _, sr := range ss {
		sb.WriteString(attackLine(sr, sr.Fig3) + "\n")
	}
	sb.WriteString("\n")
	for _, sr := range ss {
		if sr.Ablation != PaperAblation || len(sr.Fig3.Regions) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "Primitive regions and peak correlation of the correct key (`%s`, %s):\n\n", sr.Ablation, sr.acqDesc())
		sb.WriteString("| region | round | window (µs) | peak r | at (µs) |\n|---|---|---|---|---|\n")
		for _, reg := range sr.Fig3.Regions {
			fmt.Fprintf(&sb, "| %s | %d | %.2f .. %.2f | %+.3f | %.2f |\n",
				reg.Name, reg.Round, reg.StartUs, reg.EndUs, reg.PeakCorr, reg.PeakUs)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func renderFig4(r *Results) string {
	ss := scenariosOf(r, KindFig4)
	if len(ss) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("## Figure 4 — loaded-Linux AES CPA (§5)\n\n")
	sb.WriteString("Model: HD(consecutive SubBytes stores) under the loaded-Linux\n")
	sb.WriteString("environment (raised noise floor, preemptions, jitter).\n\n")
	sb.WriteString("| ablation | acquisition | top guess | outcome | best r | runner-up r | confidence |\n|---|---|---|---|---|---|---|\n")
	for _, sr := range ss {
		a := sr.Fig4
		status := "recovered"
		if !a.Success {
			status = fmt.Sprintf("NOT recovered (rank %d)", a.Rank)
		}
		fmt.Fprintf(&sb, "| `%s` | %s | %s | key byte %d %s | %.3f | %.3f | %.4f |\n",
			sr.Ablation, sr.acqDesc(), a.Recovered, a.KeyByte, status, a.BestCorr, a.SecondCorr, a.Confidence)
	}
	sb.WriteString("\n")
	return sb.String()
}

func renderKeyRank(r *Results) string {
	fk := aesOnly(scenariosOf(r, KindFullKey))
	re := aesOnly(scenariosOf(r, KindRankEvo))
	if len(fk) == 0 && len(re) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("## Full-key recovery and rank evolution\n\n")
	for _, sr := range fk {
		f := sr.FullKey
		fmt.Fprintf(&sb, "**Full key** (`%s`, %s): **%d/%d** bytes recovered, guessing entropy %.3f bits",
			sr.Ablation, sr.acqDesc(), f.BytesRecovered, len(f.Ranks), f.GuessingEntropy)
		if f.Success {
			fmt.Fprintf(&sb, "; recovered key `%s` matches.\n\n", f.Recovered)
		} else {
			fmt.Fprintf(&sb, "; per-byte ranks %v.\n\n", f.Ranks)
		}
	}
	for _, sr := range re {
		e := sr.RankEvo
		fmt.Fprintf(&sb, "**Rank evolution** (key byte %d, `%s`, %s):\n\n", e.KeyByte, sr.Ablation, sr.acqDesc())
		sb.WriteString("| traces |")
		for _, c := range e.Counts {
			fmt.Fprintf(&sb, " %d |", c)
		}
		sb.WriteString("\n|---|")
		sb.WriteString(strings.Repeat("---|", len(e.Counts)))
		sb.WriteString("\n| rank |")
		for _, rk := range e.Ranks {
			fmt.Fprintf(&sb, " %d |", rk)
		}
		if e.FirstSuccess >= 0 {
			fmt.Fprintf(&sb, "\n\nStable key recovery from **%d** traces on.\n\n", e.FirstSuccess)
		} else {
			sb.WriteString("\n\nThe key was not recovered at any checkpointed count.\n\n")
		}
	}
	return sb.String()
}

// renderTargets renders the multi-cipher attack scenarios — those whose
// target axis names a non-AES cipher — grouped per cipher. Empty (and
// therefore absent from every pre-registry report) when the campaign
// attacks only the AES default.
func renderTargets(r *Results) string {
	var names []string
	byTgt := map[string][]*ScenarioResult{}
	for i := range r.Scenarios {
		sr := &r.Scenarios[i]
		if sr.Target == "" {
			continue
		}
		if _, ok := byTgt[sr.Target]; !ok {
			names = append(names, sr.Target)
		}
		byTgt[sr.Target] = append(byTgt[sr.Target], sr)
	}
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString("## Multi-cipher attacks — target registry sweep\n\n")
	sb.WriteString("CPA against the non-AES registry targets: each cipher runs as its own\n")
	sb.WriteString("code-generated program on the simulated pipeline and is attacked with\n")
	sb.WriteString("its own first-round leakage model (DESIGN.md §15).\n\n")
	for _, name := range names {
		if tgt, err := target.Get(name); err == nil {
			info := tgt.Info()
			fmt.Fprintf(&sb, "**Target `%s`** — %s (%d-byte block, %d-byte key, %d attacked bytes)\n\n",
				name, info.Desc, info.BlockSize, info.KeySize, info.AttackBytes)
		} else {
			fmt.Fprintf(&sb, "**Target `%s`**\n\n", name)
		}
		sb.WriteString("| scenario | acquisition | outcome |\n|---|---|---|\n")
		for _, sr := range byTgt[name] {
			fmt.Fprintf(&sb, "| `%s` | %s | %s |\n", sr.ID, sr.acqDesc(), sr.headline())
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// renderCountermeasures renders the maskcpa scenarios as the
// countermeasure-evaluation tables: per gadget schedule, one row per
// (countermeasure, order, acquisition) point with the attack outcome.
func renderCountermeasures(r *Results) string {
	ss := scenariosOf(r, KindMaskCPA)
	if len(ss) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("## Countermeasure evaluation — masked gadgets under CPA (§4.2)\n\n")
	sb.WriteString("Keyed CPA against two-share masked gadgets: first-order attacks must\n")
	sb.WriteString("fail on leakage-free schedules and succeed when the instruction\n")
	sb.WriteString("schedule recombines shares in a shared micro-architectural buffer;\n")
	sb.WriteString("second-order (centered-product) attacks defeat plain masking\n")
	sb.WriteString("regardless of schedule.\n\n")
	// Group by gadget, preserving enumeration order of first appearance.
	var gadgets []string
	byGadget := map[string][]*ScenarioResult{}
	for _, sr := range ss {
		g := sr.MaskCPA.Gadget
		if _, ok := byGadget[g]; !ok {
			gadgets = append(gadgets, g)
		}
		byGadget[g] = append(byGadget[g], sr)
	}
	for _, g := range gadgets {
		fmt.Fprintf(&sb, "**Gadget `%s`**\n\n", g)
		sb.WriteString("| countermeasures | order | ablation | acquisition | outcome | best r | true-key r | confidence |\n")
		sb.WriteString("|---|---|---|---|---|---|---|---|\n")
		for _, sr := range byGadget[g] {
			m := sr.MaskCPA
			outcome := fmt.Sprintf("key recovered (%s)", m.Recovered)
			if !m.Success {
				outcome = fmt.Sprintf("key NOT recovered (rank %d)", m.Rank)
			}
			fmt.Fprintf(&sb, "| `%s` | %d | `%s` | %s | %s | %+.3f | %+.3f | %.4f |\n",
				m.Ctr, m.Order, sr.Ablation, sr.acqDesc(), outcome, m.BestCorr, m.TrueCorr, m.Confidence)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// renderTVLA renders the fixed-vs-random t-test workloads.
func renderTVLA(r *Results) string {
	ss := scenariosOf(r, KindTVLA)
	if len(ss) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("## TVLA — fixed-vs-random t-test\n\n")
	sb.WriteString("Non-specific Welch t-test over the Table 2 benchmark rows; detection\n")
	sb.WriteString("at the conventional |t| > 4.5 threshold.\n\n")
	for _, sr := range ss {
		t := sr.TVLA
		fmt.Fprintf(&sb, "**Ablation `%s`** — %s: %d/%d rows detected.\n\n",
			sr.Ablation, sr.acqDesc(), t.Detected, len(t.Rows))
		sb.WriteString("| # | benchmark | max \\|t\\| | at sample | detected |\n|---|---|---|---|---|\n")
		for _, rw := range t.Rows {
			det := "✗"
			if rw.Detected {
				det = "✓"
			}
			fmt.Fprintf(&sb, "| %d | `%s` | %.2f | %d | %s |\n", rw.Row, rw.Name, rw.MaxT, rw.Sample, det)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func renderAblations(r *Results) string {
	var ss []*ScenarioResult
	for i := range r.Scenarios {
		if r.Scenarios[i].Ablation != PaperAblation {
			ss = append(ss, &r.Scenarios[i])
		}
	}
	if len(ss) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("## Ablation sweep\n\n")
	sb.WriteString("Scenarios run under modified micro-architectures (DESIGN.md §5/§8):\n\n")
	sb.WriteString("| scenario | headline |\n|---|---|\n")
	for _, sr := range ss {
		fmt.Fprintf(&sb, "| `%s` | %s |\n", sr.ID, sr.Headline())
	}
	sb.WriteString("\n")
	return sb.String()
}

// Doc markers: a generated region of a documentation file is delimited
// by beginMarker(name) and endMarker(name) lines; UpdateDocSections
// replaces everything between them with the freshly rendered section.
const (
	markerBegin = "<!-- campaign:begin "
	markerEnd   = "<!-- campaign:end "
	markerClose = " -->"
)

// UpdateDocSections replaces the marked regions of doc with the
// corresponding rendered sections of r and returns the new document.
// Markers look like
//
//	<!-- campaign:begin table2 -->
//	…generated content…
//	<!-- campaign:end table2 -->
//
// Only regions whose name is in only are regenerated (a nil list
// selects every region); the rest stay byte-for-byte verbatim, still
// validated for well-formed markers, so one document can interleave
// regions owned by different campaigns — each regenerated from its own
// results file without clobbering the others. Unknown section names,
// unterminated regions and mismatched end markers are errors. Applying
// it twice with the same results is a no-op, which is what lets CI fail
// on documentation drift.
func UpdateDocSections(doc string, r *Results, only []string) (string, error) {
	selected := func(name string) bool {
		if only == nil {
			return true
		}
		for _, n := range only {
			if n == name {
				return true
			}
		}
		return false
	}
	lines := strings.Split(doc, "\n")
	var out []string
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, markerBegin) || !strings.HasSuffix(trimmed, markerClose) {
			if strings.HasPrefix(trimmed, markerEnd) {
				return "", fmt.Errorf("campaign: stray end marker %q", trimmed)
			}
			out = append(out, line)
			continue
		}
		name := strings.TrimSuffix(strings.TrimPrefix(trimmed, markerBegin), markerClose)
		end := -1
		for j := i + 1; j < len(lines); j++ {
			t := strings.TrimSpace(lines[j])
			if t == markerEnd+name+markerClose {
				end = j
				break
			}
			if strings.HasPrefix(t, markerBegin) || strings.HasPrefix(t, markerEnd) {
				return "", fmt.Errorf("campaign: marker %q inside open region %q", t, name)
			}
		}
		if end < 0 {
			return "", fmt.Errorf("campaign: unterminated region %q", name)
		}
		if !selected(name) {
			out = append(out, lines[i:end+1]...)
			i = end
			continue
		}
		section, err := RenderSection(r, name)
		if err != nil {
			return "", err
		}
		out = append(out, line)
		if section != "" {
			out = append(out, "", strings.TrimRight(section, "\n"), "")
		}
		out = append(out, lines[end])
		i = end
	}
	return strings.Join(out, "\n"), nil
}
