package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
)

// wireTestSpec enumerates at least one scenario of every axis shape the
// wire form has to carry: default axes, explicit acquisition points,
// rows/counts lists, and the maskcpa countermeasure point.
func wireTestSpec(t testing.TB) *Spec {
	t.Helper()
	spec, err := ParseSpec([]byte(`{
	  "name": "wire",
	  "seed": 7,
	  "workloads": [
	    {"kind": "table1", "reps": 10},
	    {"kind": "table2", "traces": [120], "averages": 2, "rows": [5, 1], "confidence": 0.9},
	    {"kind": "fig3", "traces": [64], "rounds": 1, "noise_sigmas": [2], "synth": ["simulate"]},
	    {"kind": "rankevo", "counts": [16, 32], "rounds": 1},
	    {"kind": "maskcpa", "gadgets": ["sbox"], "countermeasures": ["mask"], "orders": [2], "traces": [64]},
	    {"kind": "tvla", "rows": [2], "traces": [64]}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestScenarioWireRoundTrip proves the wire form is lossless and
// self-validating: every enumerated scenario survives
// WireRequest -> JSON -> Resolve with identical axes and an identical
// derived seed, and the fingerprint is stable across the round trip.
func TestScenarioWireRoundTrip(t *testing.T) {
	spec := wireTestSpec(t)
	scenarios, err := spec.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range scenarios {
		sc := &scenarios[i]
		req := sc.WireRequest(spec.Name, spec.Seed, spec.Key)
		raw, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		var back ScenarioRequest
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if back.Fingerprint() != req.Fingerprint() {
			t.Fatalf("%s: fingerprint changed across JSON round trip", sc.ID)
		}
		got, key, err := back.Resolve()
		if err != nil {
			t.Fatalf("%s: resolve: %v", sc.ID, err)
		}
		wantKey, err := spec.AttackKey()
		if err != nil {
			t.Fatal(err)
		}
		if key != wantKey {
			t.Fatalf("%s: key did not survive the round trip", sc.ID)
		}
		if !reflect.DeepEqual(got.Point, sc.Point) || got.Seed != sc.Seed || got.Variant.Name != sc.Variant.Name {
			t.Fatalf("%s: scenario did not survive the round trip:\n got %+v\nwant %+v", sc.ID, got, sc)
		}
	}
}

// TestScenarioRequestRejectsTamperedID proves Resolve is
// self-validating: changing a result-affecting axis without respelling
// the ID (or vice versa) is refused, so a corrupted request cannot
// execute under the wrong seed.
func TestScenarioRequestRejectsTamperedID(t *testing.T) {
	spec := wireTestSpec(t)
	scenarios, err := spec.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	req := scenarios[2].WireRequest(spec.Name, spec.Seed, spec.Key) // fig3 with explicit axes
	req.Traces *= 2
	if _, _, err := req.Resolve(); err == nil {
		t.Fatal("tampered traces with a stale ID must be refused")
	}
	req = scenarios[2].WireRequest(spec.Name, spec.Seed, spec.Key)
	req.ID = scenarios[3].ID
	if _, _, err := req.Resolve(); err == nil {
		t.Fatal("an ID belonging to different axes must be refused")
	}
	req = scenarios[2].WireRequest(spec.Name, spec.Seed, spec.Key)
	req.Ablation = "definitely-not-a-toggle"
	if _, _, err := req.Resolve(); err == nil {
		t.Fatal("an unknown ablation must be refused")
	}
}

// TestScenarioRequestBlankDefaults proves an empty ablation or synth on
// the wire resolves to, and executes under, the canonical "paper" and
// "auto" spellings.
func TestScenarioRequestBlankDefaults(t *testing.T) {
	spec := wireTestSpec(t)
	scenarios, err := spec.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	req := scenarios[3].WireRequest(spec.Name, spec.Seed, spec.Key) // rankevo: paper, auto
	req.Ablation, req.Synth = "", ""
	got, _, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if got.Ablation != PaperAblation || got.Variant.Name != PaperAblation || got.Synth != "auto" || got.Seed != scenarios[3].Seed {
		t.Fatalf("blank axes resolved to ablation %q (%q), synth %q", got.Ablation, got.Variant.Name, got.Synth)
	}
}

// TestMergeResultsIsCompletionOrderIndependent proves the driver's
// merge orders by enumeration, not completion: with one slot per
// scenario, every scenario is in flight at once and completes only after
// its successor, so completions arrive in reverse. A result that comes
// back under another scenario's ID fails the run.
func TestMergeResultsIsCompletionOrderIndependent(t *testing.T) {
	spec := wireTestSpec(t)
	scenarios, err := spec.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	n := len(scenarios)
	completed := make([]chan struct{}, n+1)
	for i := range completed {
		completed[i] = make(chan struct{})
	}
	close(completed[n])
	reverse := func(_ context.Context, sc *Scenario) (*ScenarioResult, bool, error) {
		<-completed[sc.Index+1]
		return &ScenarioResult{ID: sc.ID, Kind: sc.Kind, Seed: sc.Seed}, false, nil
	}
	slots := make([]Runner, n)
	for i := range slots {
		slots[i] = reverse
	}
	var order []string
	res, err := Drive(spec, RunOptions{OnScenario: func(sr *ScenarioResult, _ bool) {
		order = append(order, sr.ID)
		for i := range scenarios {
			if scenarios[i].ID == sr.ID {
				close(completed[i])
			}
		}
	}}, slots)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Scenarios {
		if res.Scenarios[i].ID != scenarios[i].ID {
			t.Fatalf("merge order slot %d: got %q want %q", i, res.Scenarios[i].ID, scenarios[i].ID)
		}
		if order[n-1-i] != scenarios[i].ID {
			t.Fatalf("completion %d was %q, want %q (reverse enumeration)", n-1-i, order[n-1-i], scenarios[i].ID)
		}
	}
	if res.SpecFingerprint != spec.Fingerprint() {
		t.Fatal("merge must stamp the spec fingerprint")
	}

	stray := func(_ context.Context, sc *Scenario) (*ScenarioResult, bool, error) {
		return &ScenarioResult{ID: "stray"}, false, nil
	}
	if _, err := Drive(spec, RunOptions{}, []Runner{stray}); err == nil {
		t.Fatal("a result for another scenario must fail the run")
	}
}

// committedWireDigest is the SHA-256 over the wire bytes and
// fingerprints of every scenario the four committed specs enumerate,
// followed by allAxesRequest re-encoded. Scenario IDs, derived seeds and
// worker cache keys all hang off these bytes, so reordering, retagging
// or dropping an axis of the shared point fails here before it can
// re-key a cluster's cache.
const committedWireDigest = "5d874fc19815b3e7e6a52bf84db3f7f4bc84ef159d5eda2e95bbaecbd84c5309"

// allAxesRequest sets every wire field, including those no committed
// scenario sets (key, key_byte, confidence).
const allAxesRequest = `{"campaign":"pin","campaign_seed":7,"key":"000102030405060708090a0b0c0d0e0f",` +
	`"id":"pin","kind":"maskcpa","ablation":"scalar","traces":64,"averages":2,"noise_sigma":1.5,` +
	`"synth":"simulate","target":"present","key_byte":3,"rounds":2,"reps":5,"rows":[1,2],` +
	`"counts":[8,16],"confidence":0.9,"gadget":"sbox","ctr":"mask","order":2}`

// TestCommittedScenarioWireBytes pins the wire form: every committed
// scenario's ScenarioRequest JSON and Fingerprint, and the re-encoding
// of allAxesRequest, must hash to committedWireDigest.
func TestCommittedScenarioWireBytes(t *testing.T) {
	h := sha256.New()
	pin := func(req *ScenarioRequest) {
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n%s\n", raw, req.Fingerprint())
	}
	for _, name := range []string{"smoke", "paper", "multicipher", "countermeasures"} {
		spec, err := LoadSpec(filepath.Join("..", "..", "campaigns", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		scenarios, err := spec.Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		for i := range scenarios {
			req := scenarios[i].WireRequest(spec.Name, spec.Seed, spec.Key)
			pin(&req)
		}
	}
	dec := json.NewDecoder(strings.NewReader(allAxesRequest))
	dec.DisallowUnknownFields()
	var all ScenarioRequest
	if err := dec.Decode(&all); err != nil {
		t.Fatalf("a wire field lost its tag: %v", err)
	}
	pin(&all)
	if got := hex.EncodeToString(h.Sum(nil)); got != committedWireDigest {
		t.Fatalf("committed scenario wire bytes changed: digest %s, want %s", got, committedWireDigest)
	}
}

// TestScenarioRequestRefusesUnspelledAxes proves a request cannot carry
// an axis its kind ignores: for every scenario shape and every axis, a
// value that leaves the canonical ID unchanged — so it could only change
// the fingerprint, never the seed — is refused, while every scenario the
// committed specs enumerate still resolves.
func TestScenarioRequestRefusesUnspelledAxes(t *testing.T) {
	spec := wireTestSpec(t)
	scenarios, err := spec.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	// The table1 probe: traces and a gadget under the unchanged ID.
	req := scenarios[0].WireRequest(spec.Name, spec.Seed, spec.Key)
	req.Traces, req.Gadget = 500, "sbox"
	if _, _, err := req.Resolve(); err == nil {
		t.Fatalf("%s with traces and gadget resolved", req.ID)
	}

	axes := map[string]func(p *Point){
		"traces":      func(p *Point) { p.Traces = 500 },
		"averages":    func(p *Point) { p.Averages = 3 },
		"noise_sigma": func(p *Point) { p.NoiseSigma = 2.5 },
		"synth":       func(p *Point) { p.Synth = "simulate" },
		"target":      func(p *Point) { p.Target = "present" },
		"key_byte":    func(p *Point) { p.KeyByte = 3 },
		"rounds":      func(p *Point) { p.Rounds = 2 },
		"reps":        func(p *Point) { p.Reps = 5 },
		"rows":        func(p *Point) { p.Rows = []int{3} },
		"counts":      func(p *Point) { p.Counts = []int{8} },
		"confidence":  func(p *Point) { p.Confidence = 0.5 },
		"gadget":      func(p *Point) { p.Gadget = "xor" },
		"ctr":         func(p *Point) { p.Ctr = "shuffle" },
		"order":       func(p *Point) { p.Order = 1 },
	}
	refused := 0
	for i := range scenarios {
		for name, set := range axes {
			req := scenarios[i].WireRequest(spec.Name, spec.Seed, spec.Key)
			req.Rows = append([]int(nil), req.Rows...)
			req.Counts = append([]int(nil), req.Counts...)
			before := req.Point
			set(&req.Point)
			if reflect.DeepEqual(before, req.Point) || scenarioID(&req.Point) != req.ID {
				continue // already this value, or the ID spells the axis
			}
			if _, _, err := req.Resolve(); err == nil {
				t.Errorf("%s: %s set without changing the ID resolved", req.ID, name)
			}
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("no axis was left unspelled by any scenario")
	}

	for _, name := range []string{"smoke", "paper", "multicipher", "countermeasures"} {
		spec, err := LoadSpec(filepath.Join("..", "..", "campaigns", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		scenarios, err := spec.Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		for i := range scenarios {
			req := scenarios[i].WireRequest(spec.Name, spec.Seed, spec.Key)
			if _, _, err := req.Resolve(); err != nil {
				t.Errorf("%s: committed scenario %s: %v", name, req.ID, err)
			}
		}
	}

	// A spec cannot enumerate such a scenario either.
	if _, err := ParseSpec([]byte(`{"name":"x","seed":1,"workloads":[{"kind":"table2","traces":[64],"rounds":1}]}`)); err == nil {
		t.Fatal("a table2 workload with rounds was accepted")
	}
}

// probeScenarios enumerates one small scenario of each kind the
// scenario-rule probes mutate, keyed by kind.
func probeScenarios(t testing.TB) (*Spec, map[Kind]Scenario) {
	t.Helper()
	spec := &Spec{Name: "probe", Seed: 1, Workloads: []Workload{
		{Kind: KindFig3, Traces: []int{64}},
		{Kind: KindTable2, Traces: []int{64}},
		{Kind: KindMaskCPA, Traces: []int{64}},
		{Kind: KindTVLA, Traces: []int{64}},
		{Kind: KindRankEvo, Counts: []int{50}},
	}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	scenarios, err := spec.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[Kind]Scenario{}
	for _, sc := range scenarios {
		byKind[sc.Kind] = sc
	}
	return spec, byKind
}

// TestResolveAppliesScenarioRule sends Resolve scenarios whose ID
// matches their axes but which their experiment refuses, or which
// spell one scenario twice. Each must be refused with an error naming
// the axis, so /v1/scenario answers 400 where Execute would fail (or,
// for a maskcpa key byte outside the key, panic).
func TestResolveAppliesScenarioRule(t *testing.T) {
	spec, byKind := probeScenarios(t)
	cases := []struct {
		name string
		kind Kind
		set  func(p *Point)
		want string
	}{
		{"fig3 traces 3", KindFig3, func(p *Point) { p.Traces = 3 }, "traces"},
		{"fig3 rounds 99", KindFig3, func(p *Point) { p.Rounds = 99 }, "rounds"},
		{"fig3 averages -2", KindFig3, func(p *Point) { p.Averages = -2 }, "averages"},
		{"maskcpa averages -2", KindMaskCPA, func(p *Point) { p.Averages = -2 }, "averages"},
		{"table2 confidence 1.5", KindTable2, func(p *Point) { p.Confidence = 1.5 }, "confidence"},
		{"maskcpa order 3", KindMaskCPA, func(p *Point) { p.Order = 3 }, "order"},
		{"tvla traces 9", KindTVLA, func(p *Point) { p.Traces = 9 }, "trace count"},
		{"tvla confidence", KindTVLA, func(p *Point) { p.Confidence = 0.9 }, "confidence"},
		{"table2 rows 1,1", KindTable2, func(p *Point) { p.Rows = []int{1, 1} }, "rows"},
		{"rankevo counts 50,50", KindRankEvo, func(p *Point) { p.Counts = []int{50, 50} }, "counts"},
		{"maskcpa key byte 16", KindMaskCPA, func(p *Point) { p.KeyByte = 16 }, "key byte"},
		{"maskcpa key byte -1", KindMaskCPA, func(p *Point) { p.KeyByte = -1 }, "key byte"},
	}
	for _, tc := range cases {
		sc := byKind[tc.kind]
		req := sc.WireRequest(spec.Name, spec.Seed, spec.Key)
		if _, _, err := req.Resolve(); err != nil {
			t.Fatalf("%s: unmutated %s refused: %v", tc.name, req.ID, err)
		}
		tc.set(&req.Point)
		req.ID = scenarioID(&req.Point)
		_, _, err := req.Resolve()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want an error naming %q, got %v", tc.name, tc.want, err)
		}
	}
}

// FuzzScenarioRequestResolve draws arbitrary scenario axes under their
// own canonical ID and runs nothing. Either Resolve refuses the draw, or
// the scenario's builder succeeds without a panic and the spec-level
// rule agrees: the one-workload spec spelling the same point validates
// and enumerates exactly that scenario.
func FuzzScenarioRequestResolve(f *testing.F) {
	add := func(p Point) {
		f.Add(uint8(slices.Index(Kinds(), p.Kind)), p.Ablation, p.Traces, p.Averages, p.NoiseSigma, p.Synth,
			p.Target, p.KeyByte, p.Rounds, p.Reps, intBytes(p.Rows, 1), intBytes(p.Counts, 8),
			p.Confidence, p.Gadget, p.Ctr, p.Order)
	}
	scenarios, err := wireTestSpec(f).Enumerate()
	if err != nil {
		f.Fatal(err)
	}
	for _, sc := range scenarios {
		add(sc.Point)
	}
	_, byKind := probeScenarios(f)
	for _, sc := range byKind {
		add(sc.Point)
	}
	add(Point{Kind: KindFig4, Ablation: "scalar", Traces: 64, NoiseSigma: SigmaDefault, Synth: "auto", KeyByte: 3})
	add(Point{Kind: KindFullKey, Ablation: "paper", NoiseSigma: SigmaDefault, Synth: "auto", Target: "present", Rounds: 2})
	add(Point{Kind: KindMaskCPA, Ablation: "paper", NoiseSigma: SigmaDefault, Synth: "auto", Gadget: "naive", Ctr: "mask+shuffle", Order: 2, KeyByte: 16})

	f.Fuzz(func(t *testing.T, kind uint8, ablation string, traces, averages int, sigma float64, synth, tgt string,
		keyByte, rounds, reps int, rows, counts []byte, conf float64, gadget, ctr string, order int) {
		if math.IsNaN(sigma) || math.IsInf(sigma, 0) || math.IsNaN(conf) || math.IsInf(conf, 0) {
			t.Skip("JSON, the wire form, carries no NaN or infinity")
		}
		p := Point{
			Kind: Kinds()[int(kind)%len(Kinds())], Ablation: ablation,
			Traces: traces, Averages: averages, NoiseSigma: sigma, Synth: synth, Target: tgt,
			KeyByte: keyByte, Rounds: rounds, Reps: reps,
			Rows: bytesInt(rows, 1), Counts: bytesInt(counts, 8), Confidence: conf,
			Gadget: gadget, Ctr: ctr, Order: order,
		}
		// Spell the ID as Resolve will recompute it, so the draw reaches
		// the rule rather than the ID check.
		canon := p
		if canon.Ablation == "" {
			canon.Ablation = PaperAblation
		}
		if canon.Synth == "" {
			canon.Synth = engine.ModeAuto.String()
		}
		p.ID = scenarioID(&canon)
		req := ScenarioRequest{Campaign: "fuzz", CampaignSeed: 5, Point: p}
		sc, key, err := req.Resolve()
		if err != nil {
			return
		}
		switch sc.Kind {
		case KindTable1, KindFigure2:
			if sc.reps() < 1 {
				t.Fatalf("%s resolved with reps %d", sc.ID, sc.reps())
			}
		case KindTable2:
			r := sc.table2Request()
			if err := r.Normalize(); err != nil {
				t.Fatalf("%s resolved, but its request fails: %v", sc.ID, err)
			}
		case KindFig3, KindFig4, KindFullKey, KindRankEvo:
			r := sc.attackRequest(key)
			if err := r.Normalize(); err != nil {
				t.Fatalf("%s resolved, but its request fails: %v", sc.ID, err)
			}
			if sc.Kind == KindFig4 {
				r.Fig4Options(engine.DefaultRunEnv())
			} else {
				r.Fig3Options(engine.DefaultRunEnv())
			}
		case KindMaskCPA:
			opt, err := sc.keyedOptions(key, engine.Config{})
			if err == nil {
				err = opt.Validate()
			}
			if err != nil {
				t.Fatalf("%s resolved, but its options fail: %v", sc.ID, err)
			}
		case KindTVLA:
			opt := sc.leakscanOptions(engine.Config{})
			if err := opt.ValidateTVLA(); err != nil {
				t.Fatalf("%s resolved, but its options fail: %v", sc.ID, err)
			}
		}

		w := Workload{
			Kind: sc.Kind, Ablations: []string{sc.Ablation}, Synth: []string{sc.Synth},
			Averages: sc.Averages, KeyByte: sc.KeyByte, Rounds: sc.Rounds, Reps: sc.Reps,
			Rows: sc.Rows, Counts: sc.Counts, Confidence: sc.Confidence,
		}
		if sc.Traces != 0 {
			w.Traces = []int{sc.Traces}
		}
		if sc.NoiseSigma != SigmaDefault {
			w.NoiseSigmas = []float64{sc.NoiseSigma}
		}
		if sc.Target != "" {
			w.Targets = []string{sc.Target}
		}
		if sc.Kind == KindMaskCPA {
			w.Gadgets, w.Countermeasures, w.Orders = []string{sc.Gadget}, []string{sc.Ctr}, []int{sc.Order}
		}
		spec := Spec{Name: req.Campaign, Seed: req.CampaignSeed, Workloads: []Workload{w}}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s resolved, but the spec spelling it is refused: %v", sc.ID, err)
		}
		got, err := spec.Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !reflect.DeepEqual(got[0].Point, sc.Point) || got[0].Seed != sc.Seed {
			t.Fatalf("the spec spelling %s enumerates %+v", sc.ID, got)
		}
	})
}

// intBytes and bytesInt carry a rows or counts list through the
// fuzzer's []byte arguments in steps of unit, signed, so negative and
// zero entries stay reachable.
func intBytes(vs []int, unit int) []byte {
	var out []byte
	for _, v := range vs {
		out = append(out, byte(int8(v/unit)))
	}
	return out
}

func bytesInt(bs []byte, unit int) []int {
	var out []int
	for _, b := range bs {
		out = append(out, int(int8(b))*unit)
	}
	return out
}
