package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/masking"
	"repro/internal/target"
)

// Point is the set of result-affecting axes that distinguish one
// scenario: the one declaration both Scenario and its wire form,
// ScenarioRequest, embed. Field order and JSON tags are the wire
// format, so scenario IDs, derived seeds and worker cache keys hang off
// them; zero values mean "workload default".
type Point struct {
	// ID is the canonical scenario identifier (see scenarioID), unique
	// within a campaign and stable across spec edits that do not touch
	// this scenario's own axes — the key checkpoints and seeds are
	// derived from.
	ID string `json:"id"`
	// Kind is the workload family.
	Kind Kind `json:"kind"`
	// Ablation is the canonical name of the micro-architectural variant.
	Ablation string `json:"ablation"`
	// Traces is the acquisition count and Averages the per-acquisition
	// averaging factor.
	Traces   int `json:"traces,omitempty"`
	Averages int `json:"averages,omitempty"`
	// NoiseSigma is the measurement-noise override; SigmaDefault (-1)
	// keeps the power model's value, so it is never omitted.
	NoiseSigma float64 `json:"noise_sigma"`
	// Synth is the trace-synthesis mode's canonical spelling.
	Synth string `json:"synth"`
	// Target is the attacked cipher in canonical spelling: absent for
	// the AES default (kept absent so pre-registry scenario IDs, seeds
	// and checkpoints are unchanged, and never "aes", so one scenario
	// cannot exist under two digests), the registry name otherwise.
	// Fig3/fullkey/rankevo only.
	Target string `json:"target,omitempty"`
	// KeyByte, Rounds, Reps, Rows, Counts, Confidence carry the
	// remaining workload knobs (see Workload); Rows and Counts are
	// sorted.
	KeyByte    int     `json:"key_byte,omitempty"`
	Rounds     int     `json:"rounds,omitempty"`
	Reps       int     `json:"reps,omitempty"`
	Rows       []int   `json:"rows,omitempty"`
	Counts     []int   `json:"counts,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	// Gadget, Ctr and Order are the maskcpa countermeasure axes: the
	// gadget schedule, the canonical countermeasure spelling, and the
	// CPA combining order (empty/zero outside maskcpa).
	Gadget string `json:"gadget,omitempty"`
	Ctr    string `json:"ctr,omitempty"`
	Order  int    `json:"order,omitempty"`
}

// Scenario is one fully resolved experiment: a workload kind under one
// ablation with one acquisition-parameter point, plus the private seed
// it runs under. Scenarios are value objects — executing the same
// Scenario twice produces bit-identical results.
type Scenario struct {
	Point
	// Index is the position in enumeration order (reports preserve it).
	Index int
	// Variant is the resolved ablation Point.Ablation names.
	Variant Ablation
	// Seed is the scenario's private seed, derived from the campaign
	// seed and ID — never from Index, so sibling scenarios keep their
	// seeds when the spec grows.
	Seed int64
}

func parseSynth(s string) (engine.Mode, error) {
	if s == "" {
		return engine.ModeAuto, nil
	}
	return engine.ParseMode(s)
}

// unspelledAxis returns the wire name of the first axis p sets that its
// kind's scenarioID does not spell, "" when there is none. Such an axis
// leaves the ID, and so the derived seed, unchanged while changing the
// request's fingerprint, so one scenario would exist under several
// worker cache keys. p's Synth must be canonical.
func unspelledAxis(p *Point) string {
	k := p.Kind
	cycles := k == KindTable1 || k == KindFigure2
	attack := k == KindFig3 || k == KindFig4 || k == KindFullKey || k == KindRankEvo
	scan := k == KindTVLA || k == KindTable2
	for _, ax := range []struct {
		name         string
		set, spelled bool
	}{
		{"traces", p.Traces != 0, !cycles},
		{"averages", p.Averages != 0, !cycles},
		{"noise_sigma", p.NoiseSigma != SigmaDefault, !cycles},
		{"synth", p.Synth != engine.ModeAuto.String(), !cycles},
		{"target", p.Target != "", attack},
		{"key_byte", p.KeyByte != 0, attack || k == KindMaskCPA},
		{"rounds", p.Rounds != 0, attack},
		{"reps", p.Reps != 0, cycles},
		{"rows", len(p.Rows) > 0, scan},
		{"counts", len(p.Counts) > 0, k == KindRankEvo},
		{"confidence", p.Confidence != 0, k == KindTable2},
		{"gadget", p.Gadget != "", k == KindMaskCPA},
		{"ctr", p.Ctr != "", k == KindMaskCPA},
		{"order", p.Order != 0, k == KindMaskCPA},
	} {
		if ax.set && !ax.spelled {
			return ax.name
		}
	}
	return ""
}

// scenarioID renders the canonical identifier from the axes that
// distinguish the scenario. Axis order and spellings are frozen: IDs
// feed checkpoint matching and seed derivation.
func scenarioID(p *Point) string {
	var sb strings.Builder
	k := p.Kind
	fmt.Fprintf(&sb, "%s/ablation=%s", k, p.Ablation)
	if k != KindTable1 && k != KindFigure2 {
		if p.Traces > 0 {
			fmt.Fprintf(&sb, "/traces=%d", p.Traces)
		}
		if p.Averages > 0 {
			fmt.Fprintf(&sb, "/avg=%d", p.Averages)
		}
		if p.NoiseSigma != SigmaDefault {
			fmt.Fprintf(&sb, "/sigma=%s", strconv.FormatFloat(p.NoiseSigma, 'g', -1, 64))
		}
		if p.Synth != engine.ModeAuto.String() {
			fmt.Fprintf(&sb, "/synth=%s", p.Synth)
		}
	}
	switch k {
	case KindTable1, KindFigure2:
		if p.Reps > 0 {
			fmt.Fprintf(&sb, "/reps=%d", p.Reps)
		}
	case KindMaskCPA:
		fmt.Fprintf(&sb, "/gadget=%s/ctr=%s/order=%d", p.Gadget, p.Ctr, p.Order)
		if p.KeyByte > 0 {
			fmt.Fprintf(&sb, "/keybyte=%d", p.KeyByte)
		}
	case KindTVLA, KindTable2:
		if len(p.Rows) > 0 {
			parts := make([]string, len(p.Rows))
			for i, r := range p.Rows {
				parts[i] = strconv.Itoa(r)
			}
			fmt.Fprintf(&sb, "/rows=%s", strings.Join(parts, ","))
		}
		if k == KindTable2 && p.Confidence > 0 {
			fmt.Fprintf(&sb, "/conf=%s", strconv.FormatFloat(p.Confidence, 'g', -1, 64))
		}
	case KindFig3, KindFig4, KindFullKey, KindRankEvo:
		// The AES default is spelled absent, so every pre-registry ID —
		// and therefore every derived seed — is byte-unchanged.
		if p.Target != "" {
			fmt.Fprintf(&sb, "/target=%s", p.Target)
		}
		if p.KeyByte > 0 {
			fmt.Fprintf(&sb, "/keybyte=%d", p.KeyByte)
		}
		if p.Rounds > 0 {
			fmt.Fprintf(&sb, "/rounds=%d", p.Rounds)
		}
		if k == KindRankEvo {
			parts := make([]string, len(p.Counts))
			for i, c := range p.Counts {
				parts[i] = strconv.Itoa(c)
			}
			fmt.Fprintf(&sb, "/counts=%s", strings.Join(parts, ","))
		}
	}
	return sb.String()
}

// Enumerate expands the spec into its ordered scenario list: workloads
// in spec order, and within each workload the cross product
// ablations x traces x noise sigmas x synthesis modes, iterated in that
// nesting order. Duplicate scenario IDs are an error — two identical
// scenarios would be pure waste, and the ID is the checkpoint key — and
// so is a targets or masking axis on a kind that does not sweep it.
// Enumerate does not apply the scenario rule; Spec.Validate does.
func (s *Spec) Enumerate() ([]Scenario, error) {
	return s.enumerate(nil)
}

// enumerate is Enumerate calling visit, when non-nil, on each scenario
// with its workload's index; visit's first error ends the enumeration.
func (s *Spec) enumerate(visit func(wi int, sc *Scenario) error) ([]Scenario, error) {
	var out []Scenario
	seen := map[string]bool{}
	for wi := range s.Workloads {
		w := &s.Workloads[wi]
		abs, err := expandAblations(w.Ablations)
		if err != nil {
			return nil, fmt.Errorf("campaign: workload %d (%s): %w", wi, w.Kind, err)
		}
		// The targets and masking axes collapse to one default point on
		// the kinds that do not sweep them; refuse them there rather
		// than drop them.
		if len(w.Targets) > 0 && w.Kind != KindFig3 && w.Kind != KindFullKey && w.Kind != KindRankEvo {
			return nil, fmt.Errorf("campaign: workload %d (%s): targets apply to fig3/fullkey/rankevo only", wi, w.Kind)
		}
		if w.Kind != KindMaskCPA && len(w.Gadgets)+len(w.Countermeasures)+len(w.Orders) > 0 {
			return nil, fmt.Errorf("campaign: workload %d (%s): gadgets/countermeasures/orders apply to maskcpa only", wi, w.Kind)
		}
		traces := w.Traces
		if len(traces) == 0 {
			traces = []int{0}
		}
		sigmas := w.NoiseSigmas
		if len(sigmas) == 0 {
			sigmas = []float64{SigmaDefault}
		}
		// Synthesis modes parse, and canonicalize, for every kind, even
		// the cycle-count kinds that ignore them.
		synths := []string{engine.ModeAuto.String()}
		if len(w.Synth) > 0 {
			synths = synths[:0]
			for _, sm := range w.Synth {
				mode, err := parseSynth(sm)
				if err != nil {
					return nil, fmt.Errorf("campaign: workload %d (%s): %w", wi, w.Kind, err)
				}
				synths = append(synths, mode.String())
			}
		}
		if w.Kind == KindTable1 || w.Kind == KindFigure2 {
			// Cycle-count workloads have no acquisition axes.
			traces, sigmas, synths = []int{0}, []float64{SigmaDefault}, []string{engine.ModeAuto.String()}
		}
		rows := append([]int(nil), w.Rows...)
		sort.Ints(rows)
		counts := append([]int(nil), w.Counts...)
		sort.Ints(counts)
		// The target axis applies to the fig3-model attack kinds and
		// collapses to the single AES default elsewhere. Spellings
		// canonicalize here ("aes" and absent are the same point), so the
		// ID — and thus the derived seed — never depends on how the spec
		// spelled the default cipher.
		targets := []string{""}
		if len(w.Targets) > 0 {
			targets = targets[:0]
			for _, tn := range w.Targets {
				targets = append(targets, target.Canon(target.Resolve(tn)))
			}
		}
		// The maskcpa countermeasure axes collapse to one empty point for
		// every other kind. Countermeasure spellings canonicalize here so
		// the ID (and thus the derived seed) never depends on how the
		// spec spelled the combination.
		masks := []Point{{}}
		if w.Kind == KindMaskCPA {
			masks = masks[:0]
			gadgets, ctrs, orders := w.maskAxes()
			for _, g := range gadgets {
				for _, c := range ctrs {
					ctr, err := masking.ParseCountermeasure(c)
					if err != nil {
						return nil, fmt.Errorf("campaign: workload %d (maskcpa): %w", wi, err)
					}
					for _, o := range orders {
						masks = append(masks, Point{Gadget: g, Ctr: ctr.String(), Order: o})
					}
				}
			}
		}
		for _, ab := range abs {
			for _, n := range traces {
				for _, sg := range sigmas {
					for _, sm := range synths {
						for _, m := range masks {
							for _, tg := range targets {
								p := Point{
									Kind:       w.Kind,
									Ablation:   ab.Name,
									Traces:     n,
									Averages:   w.Averages,
									NoiseSigma: sg,
									Synth:      sm,
									Target:     tg,
									KeyByte:    w.KeyByte,
									Rounds:     w.Rounds,
									Reps:       w.Reps,
									Rows:       rows,
									Counts:     counts,
									Confidence: w.Confidence,
									Gadget:     m.Gadget,
									Ctr:        m.Ctr,
									Order:      m.Order,
								}
								p.ID = scenarioID(&p)
								if seen[p.ID] {
									return nil, fmt.Errorf("campaign: duplicate scenario %q", p.ID)
								}
								seen[p.ID] = true
								out = append(out, Scenario{Point: p, Index: len(out), Variant: ab, Seed: engine.DeriveSeed(s.Seed, p.ID)})
								if visit != nil {
									if err := visit(wi, &out[len(out)-1]); err != nil {
										return nil, err
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("campaign: spec enumerates no scenarios")
	}
	return out, nil
}

// FilterTarget restricts the spec to one cipher target's scenarios:
// each workload that enumerates the named target keeps exactly that
// point of its targets axis, and workloads that never run it are
// dropped. Workloads without a targets axis run under the AES default,
// so they survive a filter for "aes" only. The surviving scenarios
// keep their IDs and derived seeds bit-for-bit — filtering selects
// scenarios, it never re-keys them.
func (s *Spec) FilterTarget(name string) error {
	if _, err := target.Get(name); err != nil {
		return err
	}
	want := target.Canon(target.Resolve(name))
	var kept []Workload
	for _, w := range s.Workloads {
		tgts := w.Targets
		if len(tgts) == 0 {
			tgts = []string{""}
		}
		for _, tn := range tgts {
			if target.Canon(target.Resolve(tn)) == want {
				wc := w
				if want == "" {
					wc.Targets = nil
				} else {
					wc.Targets = []string{want}
				}
				kept = append(kept, wc)
				break
			}
		}
	}
	if len(kept) == 0 {
		return fmt.Errorf("campaign: no workload runs target %s", target.Resolve(name))
	}
	s.Workloads = kept
	return nil
}

// CanonicalDigest returns the hex SHA-256 of v's canonical JSON
// encoding. encoding/json emits struct fields in declaration order and
// map keys sorted, so the digest is stable for a given value — the
// fingerprinting primitive shared by Spec.Fingerprint and the serving
// layer's request cache keys.
func CanonicalDigest(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		// Spec and result types marshal by construction.
		panic(fmt.Sprintf("campaign: canonical encoding: %v", err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
