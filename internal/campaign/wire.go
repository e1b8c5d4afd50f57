package campaign

import (
	"fmt"
	"strings"

	"repro/internal/aes"
	"repro/internal/attack"
	"repro/internal/engine"
)

// ScenarioRequest is the wire form of one fully resolved scenario — the
// body of the scad worker's POST /v1/scenario endpoint and the unit the
// cluster coordinator dispatches. It carries exactly the
// result-affecting axes of a Scenario plus the campaign identity the
// scenario's private seed derives from; scheduling (workers, lanes,
// which worker executes it) never appears, so its canonical digest is a
// sound content-address for the response bytes.
//
// The request is self-validating: Resolve recomputes the canonical
// scenario ID from the axes and refuses a request whose spelled ID
// disagrees, so a corrupted or hand-edited request cannot silently
// execute under the wrong seed, and refuses a set axis its kind's ID
// does not spell, so one scenario cannot exist under two fingerprints.
type ScenarioRequest struct {
	// Campaign and CampaignSeed identify the campaign the scenario
	// belongs to; the scenario's private seed is DeriveSeed(CampaignSeed,
	// ID), recomputed on the worker rather than trusted from the wire.
	Campaign     string `json:"campaign"`
	CampaignSeed int64  `json:"campaign_seed"`
	// Key is the AES-128 key of the attack kinds as 32 hex digits
	// (empty: attack.DefaultKey), normalized to lower case.
	Key string `json:"key,omitempty"`
	// Point carries the scenario's axes, flattened into the request
	// object. An empty Ablation or Synth reads as "paper" or "auto".
	Point
}

// WireRequest renders the scenario in its wire form for a campaign with
// the given identity. The result is canonical by construction: the
// scenario came out of Enumerate, whose axes are already sorted and
// canonically spelled. It shares the scenario's Rows and Counts.
func (sc *Scenario) WireRequest(campaignName string, campaignSeed int64, key string) ScenarioRequest {
	return ScenarioRequest{Campaign: campaignName, CampaignSeed: campaignSeed, Key: strings.ToLower(key), Point: sc.Point}
}

// Resolve validates the request and reconstructs the executable
// Scenario plus the attack key. The scenario must pass the rule
// Spec.Validate applies to every scenario it enumerates
// (Scenario.validate), so a resolved scenario passes every input check
// its experiment makes before running; the canonical scenario ID is recomputed from the axes and must equal the
// spelled one, and the private seed is rederived from (CampaignSeed,
// ID) — the wire carries no seed to trust.
func (r *ScenarioRequest) Resolve() (*Scenario, [aes.KeySize]byte, error) {
	var key [aes.KeySize]byte
	if r.Campaign == "" {
		return nil, key, fmt.Errorf("campaign: scenario request needs a campaign name")
	}
	if r.ID == "" {
		return nil, key, fmt.Errorf("campaign: scenario request needs an id")
	}
	if !validKind(r.Kind) {
		return nil, key, fmt.Errorf("campaign: scenario request: unknown kind %q", r.Kind)
	}
	key, err := attack.ParseKey(strings.ToLower(r.Key))
	if err != nil {
		return nil, key, err
	}
	ab, err := ParseAblation(r.Ablation)
	if err != nil {
		return nil, key, err
	}
	if ab.Name != r.Ablation && !(r.Ablation == "" && ab.Name == PaperAblation) {
		return nil, key, fmt.Errorf("campaign: scenario request: ablation %q is not canonical (want %q)", r.Ablation, ab.Name)
	}
	mode, err := parseSynth(r.Synth)
	if err != nil {
		return nil, key, err
	}
	sc := &Scenario{Point: r.Point, Variant: ab, Seed: engine.DeriveSeed(r.CampaignSeed, r.ID)}
	sc.Ablation, sc.Synth = ab.Name, mode.String()
	if err := sc.validate(key); err != nil {
		return nil, key, fmt.Errorf("campaign: scenario request: %w", err)
	}
	// Recompute the canonical ID from the axes; a mismatch means the
	// request was corrupted in flight or assembled against a different
	// ID-spelling convention, and executing it would derive the wrong
	// seed.
	if id := scenarioID(&sc.Point); id != r.ID {
		return nil, key, fmt.Errorf("campaign: scenario request id %q does not match its axes (canonical %q)", r.ID, id)
	}
	return sc, key, nil
}

// Fingerprint is the content address of the request's response bytes:
// the canonical digest of (endpoint, request). It is the key the worker
// caches the scenario result under and the one the coordinator uses for
// read-through and peer cache fill — computed identically on both
// sides.
func (r *ScenarioRequest) Fingerprint() string {
	return CanonicalDigest(struct {
		Endpoint string           `json:"endpoint"`
		Request  *ScenarioRequest `json:"request"`
	}{Endpoint: "scenario", Request: r})
}
