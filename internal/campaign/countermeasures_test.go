package campaign

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/masking"
)

// The maskcpa countermeasure axes expand as a cross product inside each
// acquisition point, with canonical countermeasure spellings in the ID.
func TestMaskCPAEnumeration(t *testing.T) {
	spec := Spec{
		Name: "x", Seed: 3,
		Workloads: []Workload{{
			Kind:            KindMaskCPA,
			Gadgets:         []string{"naive", "sbox"},
			Countermeasures: []string{"none", "shuffle+mask"},
			Orders:          []int{1, 2},
			Traces:          []int{100},
		}},
	}
	// shuffle applies to the eor schedules only, so validation must
	// reject the sbox x shuffle+mask combination...
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "shuffle") {
		t.Fatalf("sbox+shuffle combination accepted: %v", err)
	}
	// ...while the eor-only sweep enumerates the full cross product.
	spec.Workloads[0].Gadgets = []string{"naive", "separated"}
	scs, err := spec.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 8 {
		t.Fatalf("enumerated %d scenarios, want 2*2*2 = 8", len(scs))
	}
	wantID := "maskcpa/ablation=paper/traces=100/gadget=naive/ctr=none/order=1"
	if scs[0].ID != wantID {
		t.Fatalf("first scenario ID %q, want %q", scs[0].ID, wantID)
	}
	// The spec spelled "shuffle+mask"; the ID must carry the canonical
	// "mask+shuffle" so the derived seed is spelling-independent.
	found := false
	for _, sc := range scs {
		if strings.Contains(sc.ID, "ctr=mask+shuffle") {
			found = true
		}
		if strings.Contains(sc.ID, "ctr=shuffle+mask") {
			t.Fatalf("non-canonical countermeasure spelling in ID %q", sc.ID)
		}
	}
	if !found {
		t.Fatal("canonical mask+shuffle scenario missing")
	}
}

func TestMaskCPAAndTVLAValidation(t *testing.T) {
	mk := func(w Workload) Spec {
		return Spec{Name: "x", Workloads: []Workload{w}}
	}
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown gadget", mk(Workload{Kind: KindMaskCPA, Gadgets: []string{"warp"}}), "unknown gadget"},
		{"bad ctr", mk(Workload{Kind: KindMaskCPA, Countermeasures: []string{"cloak"}}), "unknown countermeasure"},
		{"dup ctr spelling", mk(Workload{Kind: KindMaskCPA, Countermeasures: []string{"mask+jitter", "jitter+mask"}}), "duplicate scenario"},
		{"bad order", mk(Workload{Kind: KindMaskCPA, Orders: []int{3}}), "order 3 not supported"},
		{"dup order", mk(Workload{Kind: KindMaskCPA, Orders: []int{1, 1}}), "duplicate scenario"},
		{"gadgets on fig3", mk(Workload{Kind: KindFig3, Gadgets: []string{"sbox"}}), "maskcpa only"},
		{"orders on table2", mk(Workload{Kind: KindTable2, Orders: []int{2}}), "maskcpa only"},
		{"tvla confidence", mk(Workload{Kind: KindTVLA, Confidence: 0.99}), "confidence does not apply to tvla"},
		{"tvla odd traces", mk(Workload{Kind: KindTVLA, Traces: []int{600, 501}}), "got 501"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
	// The default axes (sbox, mask, order 1) must validate as-is.
	ok := mk(Workload{Kind: KindMaskCPA})
	ok.Seed = 1
	if err := ok.Validate(); err != nil {
		t.Fatalf("minimal maskcpa spec rejected: %v", err)
	}
	okT := mk(Workload{Kind: KindTVLA, Rows: []int{2}})
	if err := okT.Validate(); err != nil {
		t.Fatalf("minimal tvla spec rejected: %v", err)
	}
}

// Countermeasure and TVLA payloads survive the JSON round trip and
// render into their report sections.
func TestCountermeasureReportAndDecode(t *testing.T) {
	res := &Results{
		Campaign: "ctr", Seed: 1, SpecFingerprint: "0123456789abcdef",
		Scenarios: []ScenarioResult{
			{
				ID: "maskcpa/ablation=paper/traces=100/gadget=sbox/ctr=mask/order=1", Kind: KindMaskCPA,
				Ablation: PaperAblation, Traces: 100, Averages: 2, NoiseSigma: 1, Synth: "auto",
				MaskCPA: &MaskCPAResult{
					Gadget: "sbox", Ctr: "mask", Order: 1,
					TrueKey: "0x2b", Recovered: "0x91", Rank: 105, Success: false,
					BestCorr: 0.08, TrueCorr: 0.01, Confidence: 0.2, Traces: 100, Samples: 200,
				},
			},
			{
				ID: "maskcpa/ablation=paper/traces=100/gadget=sbox/ctr=mask/order=2", Kind: KindMaskCPA,
				Ablation: PaperAblation, Traces: 100, Averages: 2, NoiseSigma: 1, Synth: "auto",
				MaskCPA: &MaskCPAResult{
					Gadget: "sbox", Ctr: "mask", Order: 2,
					TrueKey: "0x2b", Recovered: "0x2b", Rank: 0, Success: true,
					BestCorr: -0.34, TrueCorr: -0.34, Confidence: 0.999, Traces: 100, Samples: 200, Pairs: 300,
				},
			},
			{
				ID: "tvla/ablation=paper/traces=120/rows=2", Kind: KindTVLA,
				Ablation: PaperAblation, Traces: 120, Averages: 2, NoiseSigma: 1, Synth: "auto",
				TVLA: &TVLAResult{
					Traces: 120, Averages: 2, Detected: 1,
					Rows: []TVLARow{{Row: 2, Name: "adds", MaxT: 12.3, Sample: 64, Detected: true, TracesPerGroup: 60}},
				},
			},
		},
	}
	if _, err := DecodeResults(res.EncodeJSON()); err != nil {
		t.Fatalf("round trip rejected: %v", err)
	}
	md := Report(res)
	for _, want := range []string{
		"## Countermeasure evaluation",
		"**Gadget `sbox`**",
		"key NOT recovered (rank 105)",
		"key recovered (0x2b)",
		"## TVLA — fixed-vs-random t-test",
		"`adds`",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Malformed payloads must be rejected.
	for _, raw := range []string{
		`{"campaign":"x","scenarios":[{"id":"a","kind":"maskcpa"}]}`,
		`{"campaign":"x","scenarios":[{"id":"a","kind":"tvla","tvla":{"rows":[]}}]}`,
	} {
		if _, err := DecodeResults([]byte(raw)); err == nil {
			t.Errorf("malformed results accepted: %s", raw)
		}
	}
}

// UpdateDocSections must leave regions owned by other campaigns
// byte-for-byte verbatim while regenerating its own — the mechanism that
// lets the paper campaign and the countermeasure campaign share
// EXPERIMENTS.md.
func TestUpdateDocSectionsRewritesOwnCampaign(t *testing.T) {
	doc := strings.Join([]string{
		"# Doc",
		"<!-- campaign:begin fake/table2 -->",
		"stale table2 content",
		"<!-- campaign:end fake/table2 -->",
		"<!-- campaign:begin other/countermeasures -->",
		"stale ctr content",
		"<!-- campaign:end other/countermeasures -->",
		"",
	}, "\n")
	res := fakeResults() // campaign "fake": has table2, no maskcpa
	out, err := UpdateDocSections(doc, res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "stale table2 content") {
		t.Error("own region not regenerated")
	}
	if !strings.Contains(out, "<!-- campaign:begin other/countermeasures -->\nstale ctr content\n<!-- campaign:end other/countermeasures -->") {
		t.Error("another campaign's region was touched")
	}
	// The other campaign's results regenerate its region (to empty —
	// fakeResults has no maskcpa scenarios) and keep the first.
	other := fakeResults()
	other.Campaign = "other"
	out2, err := UpdateDocSections(out, other)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out2, "stale ctr content") {
		t.Error("countermeasures region not regenerated")
	}
	if !strings.Contains(out2, "## Table 2") {
		t.Error("table2 region lost its generated content")
	}
	// Regions of other campaigns are still validated.
	for _, bad := range []string{
		"<!-- campaign:begin other/tablez -->\n<!-- campaign:end other/tablez -->",
		"<!-- campaign:begin table2 -->\n<!-- campaign:end table2 -->",
		"<!-- campaign:begin other/table2 -->\nno end",
	} {
		if _, err := UpdateDocSections(bad, res); err == nil {
			t.Errorf("malformed region accepted: %q", bad)
		}
	}
}

// Every maskcpa scenario of the committed countermeasure campaign must
// run on the batch VM once each program variant's verification window
// passed, with no fallback to simulation: the guard that keeps a silent
// slide onto the simulator from passing unnoticed.
func TestCountermeasureCampaignBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every maskcpa scenario of the committed campaign")
	}
	spec, err := LoadSpec("../../campaigns/countermeasures.json")
	if err != nil {
		t.Fatal(err)
	}
	key, err := spec.AttackKey()
	if err != nil {
		t.Fatal(err)
	}
	scs, err := spec.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := range scs {
		sc := &scs[i]
		if sc.Kind != KindMaskCPA {
			continue
		}
		n++
		opt, err := sc.keyedOptions(key, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := masking.EvaluateKeyedCPA(opt)
		if err != nil {
			t.Fatalf("%s: %v", sc.ID, err)
		}
		if res.FallbackReason != "" {
			t.Errorf("%s: fell back to simulation: %s", sc.ID, res.FallbackReason)
		}
		for v, runs := range res.BatchRuns {
			if runs == 0 {
				t.Errorf("%s: variant %d of %d never ran on the batch VM", sc.ID, v, len(res.BatchRuns))
			}
		}
	}
	if n == 0 {
		t.Fatal("no maskcpa scenarios in the committed campaign")
	}
}
