package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// wireTestSpec enumerates at least one scenario of every axis shape the
// wire form has to carry: default axes, explicit acquisition points,
// rows/counts lists, and the maskcpa countermeasure point.
func wireTestSpec(t *testing.T) *Spec {
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

// TestMergeResultsIsCompletionOrderIndependent proves the merge seam
// orders by enumeration, not completion, and refuses holes and
// strays.
func TestMergeResultsIsCompletionOrderIndependent(t *testing.T) {
	spec := wireTestSpec(t)
	scenarios, err := spec.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*ScenarioResult{}
	// Fill in reverse completion order with distinguishable stubs.
	for i := len(scenarios) - 1; i >= 0; i-- {
		byID[scenarios[i].ID] = &ScenarioResult{ID: scenarios[i].ID, Kind: scenarios[i].Kind, Seed: scenarios[i].Seed}
	}
	res, err := MergeResults(spec, scenarios, byID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Scenarios {
		if res.Scenarios[i].ID != scenarios[i].ID {
			t.Fatalf("merge order slot %d: got %q want %q", i, res.Scenarios[i].ID, scenarios[i].ID)
		}
	}
	if res.SpecFingerprint != spec.Fingerprint() {
		t.Fatal("merge must stamp the spec fingerprint")
	}

	delete(byID, scenarios[0].ID)
	if _, err := MergeResults(spec, scenarios, byID); err == nil {
		t.Fatal("a missing scenario must fail the merge")
	}
	byID[scenarios[0].ID] = &ScenarioResult{ID: scenarios[0].ID}
	byID["stray"] = &ScenarioResult{ID: "stray"}
	if _, err := MergeResults(spec, scenarios, byID); err == nil {
		t.Fatal("a stray result must fail the merge")
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
