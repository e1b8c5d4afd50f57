package campaign

import (
	"strings"
	"testing"
)

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec([]byte(`{"name":"x","seed":1,"workloads":[{"kind":"table1","tracez":[10]}]}`))
	if err == nil || !strings.Contains(err.Error(), "tracez") {
		t.Fatalf("want unknown-field error, got %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"no name", Spec{Workloads: []Workload{{Kind: KindTable1}}}, "needs a name"},
		{"no workloads", Spec{Name: "x"}, "at least one workload"},
		{"bad kind", Spec{Name: "x", Workloads: []Workload{{Kind: "tableX"}}}, "unknown kind"},
		{"bad ablation", Spec{Name: "x", Workloads: []Workload{{Kind: KindTable2, Ablations: []string{"warp-drive"}}}}, "unknown ablation"},
		{"tiny traces", Spec{Name: "x", Workloads: []Workload{{Kind: KindFig3, Traces: []int{3}}}}, "at least 8 traces"},
		{"negative sigma", Spec{Name: "x", Workloads: []Workload{{Kind: KindFig3, NoiseSigmas: []float64{-2}}}}, "noise sigma"},
		{"bad synth", Spec{Name: "x", Workloads: []Workload{{Kind: KindFig3, Synth: []string{"psychic"}}}}, "unknown synthesis mode"},
		{"replay synth", Spec{Name: "x", Workloads: []Workload{{Kind: KindFig3, Synth: []string{"replay"}}}}, "unknown synthesis mode"},
		{"rankevo no counts", Spec{Name: "x", Workloads: []Workload{{Kind: KindRankEvo}}}, "needs counts"},
		{"rankevo with traces", Spec{Name: "x", Workloads: []Workload{{Kind: KindRankEvo, Counts: []int{50}, Traces: []int{100}}}}, "remove traces"},
		{"bad row", Spec{Name: "x", Workloads: []Workload{{Kind: KindTable2, Rows: []int{9}}}}, "out of [1,7]"},
		{"dup row", Spec{Name: "x", Workloads: []Workload{{Kind: KindTable2, Rows: []int{1, 1}}}}, "listed twice"},
		{"dup count", Spec{Name: "x", Workloads: []Workload{{Kind: KindRankEvo, Counts: []int{50, 50}}}}, "listed twice"},
		{"bad key", Spec{Name: "x", Key: "zz", Workloads: []Workload{{Kind: KindTable1}}}, "hex digits"},
		{"dup scenario", Spec{Name: "x", Workloads: []Workload{{Kind: KindTable1}, {Kind: KindTable1}}}, "duplicate scenario"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

func TestAblationExpansion(t *testing.T) {
	abs, err := expandAblations([]string{AllTogglesName})
	if err != nil {
		t.Fatal(err)
	}
	if len(abs) != 64 {
		t.Fatalf("all64 expanded to %d ablations", len(abs))
	}
	if abs[0].Name != PaperAblation {
		t.Fatalf("combination 0 is %q, want paper", abs[0].Name)
	}
	seen := map[string]bool{}
	for _, ab := range abs {
		if seen[ab.Name] {
			t.Fatalf("duplicate ablation %q", ab.Name)
		}
		seen[ab.Name] = true
	}
	// The paper config must be untouched; the full combination must flip
	// every toggle.
	if !abs[0].Core.DualIssue || !abs[0].Core.NopZeroesWB {
		t.Fatal("combination 0 does not match the default config")
	}
	last := abs[63]
	if last.Core.DualIssue || !last.Core.StructuralPolicyOnly || last.Core.AlignedPairs ||
		last.Core.NopZeroesWB || last.Core.AlignBuffer || last.Core.StoreLaneReplication {
		t.Fatalf("combination 63 (%q) did not flip every toggle", last.Name)
	}
}

func TestAblationCanonicalName(t *testing.T) {
	a, err := ParseAblation("no-align-buffer+scalar")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseAblation("scalar+no-align-buffer")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != b.Name {
		t.Fatalf("spellings canonicalize differently: %q vs %q", a.Name, b.Name)
	}
	if a.Name != "scalar+no-align-buffer" {
		t.Fatalf("canonical name %q not in registry order", a.Name)
	}
	if _, err := ParseAblation("scalar+scalar"); err == nil {
		t.Fatal("duplicate toggle accepted")
	}
}

func TestEnumerationCrossProduct(t *testing.T) {
	spec := Spec{
		Name: "x", Seed: 5,
		Workloads: []Workload{{
			Kind:        KindFig3,
			Ablations:   []string{"paper", "scalar"},
			Traces:      []int{100, 200},
			NoiseSigmas: []float64{0.5, 2},
			Synth:       []string{"auto", "simulate"},
			Rounds:      1,
		}},
	}
	scs, err := spec.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 16 {
		t.Fatalf("enumerated %d scenarios, want 2*2*2*2 = 16", len(scs))
	}
	ids := map[string]bool{}
	for _, sc := range scs {
		if ids[sc.ID] {
			t.Fatalf("duplicate ID %q", sc.ID)
		}
		ids[sc.ID] = true
	}
}

// Scenario seeds must be a function of (campaign seed, scenario ID)
// only: removing an unrelated workload from the spec must not shift the
// seeds of the survivors.
func TestScenarioSeedsStableAcrossSpecEdits(t *testing.T) {
	full := Spec{
		Name: "x", Seed: 9,
		Workloads: []Workload{
			{Kind: KindTable1},
			{Kind: KindFig3, Traces: []int{100}, Rounds: 1},
		},
	}
	trimmed := Spec{
		Name: "x", Seed: 9,
		Workloads: []Workload{
			{Kind: KindFig3, Traces: []int{100}, Rounds: 1},
		},
	}
	a, err := full.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := trimmed.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	seedOf := map[string]int64{}
	for _, sc := range a {
		seedOf[sc.ID] = sc.Seed
	}
	for _, sc := range b {
		if want, ok := seedOf[sc.ID]; ok && want != sc.Seed {
			t.Fatalf("scenario %q seed changed %d -> %d after a spec edit", sc.ID, want, sc.Seed)
		}
	}
	// And a different campaign seed must change every scenario seed.
	other := full
	other.Seed = 10
	c, err := other.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range c {
		if c[i].Seed == a[i].Seed {
			t.Fatalf("scenario %q seed survived a campaign-seed change", c[i].ID)
		}
	}
}

func TestSpecFingerprintDistinguishesSpecs(t *testing.T) {
	a := Spec{Name: "x", Seed: 1, Workloads: []Workload{{Kind: KindTable1}}}
	b := a
	b.Seed = 2
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different specs share a fingerprint")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not stable")
	}
}
