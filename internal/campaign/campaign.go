// Package campaign turns the paper's evaluation — leakage verdicts and
// attack outcomes across micro-architectural feature combinations — into
// one declarative, sharded, resumable run whose structured output is the
// source the experiment documentation is generated from.
//
// A Spec enumerates scenarios as the cross product of three axes per
// workload: the pipeline ablation (named feature-toggle combinations of
// pipeline.Config and power.Model, up to the full 64-combination toggle
// space), the workload itself (Table 1 CPI matrix, Figure 2 inference,
// the seven Table 2 leakage benchmarks, the Figure 3/4 AES attacks,
// full-key recovery, rank evolution), and the acquisition parameters
// (trace count, averaging, noise sigma, trace-synthesis mode). The
// fig3-model attack kinds additionally sweep a cipher-target axis over
// the internal/target registry (AES, PRESENT, Speck64/128, ChaCha20),
// spelled absent for the AES default so pre-registry scenario IDs and
// seeds are unchanged. Run
// executes the enumeration over the existing engine worker pool,
// checkpointing each finished scenario; Results serialize to canonical
// JSON/CSV and render to Markdown.
//
// Determinism contract. Scenario enumeration order is a pure function of
// the Spec. Each scenario derives a private seed from (Spec.Seed,
// scenario ID) via engine.DeriveSeed, so its result is independent of
// which shard runs it, of every other scenario, and of resume points.
// Since every underlying experiment is itself bit-identical for any
// engine worker count, the campaign's JSON, CSV and Markdown artifacts
// are byte-identical for any (Workers, Shards) combination and for
// interrupted-and-resumed runs.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/aes"
	"repro/internal/attack"
	"repro/internal/masking"
)

// Kind names one workload family a scenario can execute.
type Kind string

// The workload kinds. Each maps to one of the repository's experiment
// entry points.
const (
	// KindTable1 measures the dual-issue CPI matrix of the paper's
	// Table 1 (internal/cpi.MeasureMatrix).
	KindTable1 Kind = "table1"
	// KindFigure2 rederives the pipeline structure of the paper's
	// Figure 2 from the CPI matrix plus targeted probes.
	KindFigure2 Kind = "figure2"
	// KindTable2 runs the §4 leakage characterization: the seven Table 2
	// micro-benchmarks (or a Rows subset) with per-component verdicts.
	KindTable2 Kind = "table2"
	// KindFig3 runs the §5 bare-metal AES CPA (HW of SubBytes output).
	KindFig3 Kind = "fig3"
	// KindFig4 runs the §5 loaded-Linux AES CPA (HD between consecutive
	// SubBytes stores).
	KindFig4 Kind = "fig4"
	// KindFullKey recovers all sixteen first-round key bytes from one
	// shared trace stream.
	KindFullKey Kind = "fullkey"
	// KindRankEvo records the true key's rank at increasing trace counts
	// from a single checkpointed streaming run.
	KindRankEvo Kind = "rankevo"
	// KindMaskCPA runs a keyed CPA against one masked-gadget schedule
	// under a countermeasure combination, at first or second order
	// (internal/masking.EvaluateKeyedCPA) — the §4.2 secure-vs-broken
	// scheduling evaluation.
	KindMaskCPA Kind = "maskcpa"
	// KindTVLA runs the fixed-vs-random Welch t-test on Table 2
	// benchmark rows (internal/leakscan.RunTVLA).
	KindTVLA Kind = "tvla"
)

// Kinds lists every workload kind in canonical order.
func Kinds() []Kind {
	return []Kind{KindTable1, KindFigure2, KindTable2, KindFig3, KindFig4, KindFullKey, KindRankEvo, KindMaskCPA, KindTVLA}
}

func validKind(k Kind) bool {
	for _, v := range Kinds() {
		if v == k {
			return true
		}
	}
	return false
}

// SigmaDefault is the sentinel for "use the power model's default noise
// sigma" on the noise axis (spelled as an absent noise_sigmas entry in
// the JSON spec).
const SigmaDefault = -1

// Workload is one experiment family of a Spec, expanded into scenarios
// as the cross product Ablations x Traces x NoiseSigmas x Synth.
//
// Scenario identity follows the spec's spelling: a knob spelled out
// explicitly — even at its default value — appears in the scenario ID
// and therefore derives a different seed than the omitted form. Two
// such scenarios run the same experiment as independent replications
// on independent data, not as a duplicate (the ablation axis, by
// contrast, canonicalizes spellings so true duplicates are rejected).
type Workload struct {
	// Kind selects the experiment family.
	Kind Kind `json:"kind"`
	// Ablations names the micro-architectural variants to sweep: entries
	// from the toggle registry ("paper", "scalar", combinations joined
	// with "+", or "all64" for the full 2^6 toggle space). Empty means
	// ["paper"].
	Ablations []string `json:"ablations,omitempty"`
	// Traces lists acquisition counts to sweep; empty means the
	// workload's paper-scale default. Ignored by table1/figure2.
	Traces []int `json:"traces,omitempty"`
	// NoiseSigmas lists measurement-noise standard deviations to sweep;
	// empty means the power model's default.
	NoiseSigmas []float64 `json:"noise_sigmas,omitempty"`
	// Synth lists trace-synthesis modes to sweep ("auto" or
	// "simulate"); empty means ["auto"]. Ignored by table1/figure2,
	// which measure cycle counts, not traces.
	Synth []string `json:"synth,omitempty"`
	// Targets lists cipher registry names to sweep for the fig3-model
	// attack kinds (fig3/fullkey/rankevo); empty means the AES paper
	// target. "aes" canonicalizes to the absent spelling, so listing it
	// explicitly reproduces the pre-registry scenario byte-for-byte.
	// Non-AES targets attack the cipher's registry default key — the
	// spec-level Key field is AES-only.
	Targets []string `json:"targets,omitempty"`
	// Averages is the per-acquisition averaging factor (0: workload
	// default — 16 for table2/fig4, 4 for fig3-family).
	Averages int `json:"averages,omitempty"`
	// KeyByte is the attacked key byte for fig3/fig4/rankevo. 0 selects
	// the workload default: byte 0 for the fig3 family, byte 1 for fig4
	// — fig4's model needs the preceding store, so byte 0 is not
	// attackable there and cannot be requested.
	KeyByte int `json:"key_byte,omitempty"`
	// Rounds truncates the simulated cipher for the attack kinds (0:
	// workload default).
	Rounds int `json:"rounds,omitempty"`
	// Reps is the pair-repetition count for table1/figure2 (0:
	// cpi.DefaultReps).
	Reps int `json:"reps,omitempty"`
	// Rows restricts table2 to a subset of the seven benchmark rows
	// (1-based); empty means all seven.
	Rows []int `json:"rows,omitempty"`
	// Counts are the rankevo checkpoint trace counts (required for
	// rankevo, ignored elsewhere).
	Counts []int `json:"counts,omitempty"`
	// Confidence is the table2 detection criterion (0: 0.995).
	Confidence float64 `json:"confidence,omitempty"`
	// Gadgets lists maskcpa gadget schedules to sweep
	// (masking.Schedules()); empty means ["sbox"]. Maskcpa only.
	Gadgets []string `json:"gadgets,omitempty"`
	// Countermeasures lists maskcpa countermeasure combinations to sweep
	// ("none" or "+"-joined subsets of mask|shuffle|jitter); empty means
	// ["mask"]. Maskcpa only.
	Countermeasures []string `json:"countermeasures,omitempty"`
	// Orders lists maskcpa CPA combining orders to sweep (1 and/or 2);
	// empty means [1]. Maskcpa only.
	Orders []int `json:"orders,omitempty"`
}

// maskAxes resolves the maskcpa sweep axes with their defaults: the
// masked S-box gadget, plain masking, first-order CPA.
func (w *Workload) maskAxes() (gadgets, ctrs []string, orders []int) {
	gadgets = w.Gadgets
	if len(gadgets) == 0 {
		gadgets = []string{masking.ScheduleSbox}
	}
	ctrs = w.Countermeasures
	if len(ctrs) == 0 {
		ctrs = []string{"mask"}
	}
	orders = w.Orders
	if len(orders) == 0 {
		orders = []int{1}
	}
	return gadgets, ctrs, orders
}

// Spec is a declarative campaign: a seeded, ordered set of workload
// sweeps. The zero values of the tuning knobs select the documented
// defaults, so a minimal spec is just a name, a seed and workload kinds.
type Spec struct {
	// Name identifies the campaign in reports and checkpoints.
	Name string `json:"name"`
	// Seed is the campaign master seed; every scenario derives its
	// private seed from (Seed, scenario ID), never from enumeration
	// position, so edits to the spec do not shift sibling scenarios.
	Seed int64 `json:"seed"`
	// Workers sizes each scenario's engine worker pool (0: one per
	// core). Results are bit-identical for any value.
	Workers int `json:"workers,omitempty"`
	// Shards is the number of scenarios executed concurrently (0: 1).
	// Results are bit-identical for any value.
	Shards int `json:"shards,omitempty"`
	// Key is the AES-128 key of the attack workloads as 32 hex digits
	// (empty: the FIPS SP800-38A example key).
	Key string `json:"key,omitempty"`
	// Workloads are the sweeps to enumerate, in order.
	Workloads []Workload `json:"workloads"`
}

// AttackKey returns the spec's AES key; a Spec naming none attacks
// attack.DefaultKey, matching cmd/scacpa.
func (s *Spec) AttackKey() ([aes.KeySize]byte, error) {
	k, err := attack.ParseKey(s.Key)
	if err != nil {
		return attack.DefaultKey, fmt.Errorf("campaign: key must be %d hex digits", 2*aes.KeySize)
	}
	return k, nil
}

// Validate reports the first specification error. Beyond the
// spec-level fields and the workload kinds, it enumerates the spec and
// applies the scenario rule (Scenario.validate) to every scenario, so
// a spec validates exactly when each scenario it names would be
// accepted by Resolve.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("campaign: spec needs a name")
	}
	if s.Workers < 0 {
		return fmt.Errorf("campaign: workers must be >= 0, got %d", s.Workers)
	}
	if s.Shards < 0 {
		return fmt.Errorf("campaign: shards must be >= 0, got %d", s.Shards)
	}
	key, err := s.AttackKey()
	if err != nil {
		return err
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("campaign: spec needs at least one workload")
	}
	for wi := range s.Workloads {
		if k := s.Workloads[wi].Kind; !validKind(k) {
			return fmt.Errorf("campaign: workload %d: unknown kind %q", wi, k)
		}
	}
	_, err = s.enumerate(func(wi int, sc *Scenario) error {
		if err := sc.validate(key); err != nil {
			return fmt.Errorf("campaign: workload %d (%s): %w", wi, sc.Kind, err)
		}
		return nil
	})
	return err
}

// LoadSpec reads and validates a JSON campaign spec from path. Unknown
// fields are rejected so a typo cannot silently drop an axis.
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseSpec(raw)
}

// ParseSpec parses and validates a JSON campaign spec.
func ParseSpec(raw []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("campaign: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Fingerprint returns a stable hex digest of the spec's
// result-affecting fields, recorded in checkpoints and results so
// artifacts can be matched to the exact spec that produced them.
// Workers and Shards are excluded: they are documented as
// result-invariant, so retuning them must not invalidate a checkpoint.
func (s *Spec) Fingerprint() string {
	c := *s
	c.Workers, c.Shards = 0, 0
	return CanonicalDigest(&c)
}
