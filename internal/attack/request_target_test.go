package attack

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/target"
)

// requestDigest is the serving layer's cache-key recipe: SHA-256 of the
// normalized request's canonical JSON (campaign.CanonicalDigest,
// inlined here to keep the dependency arrow pointing campaign→attack).
func requestDigest(t *testing.T, r *Request) string {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestRequestDigestStability pins the canonical digest of every
// pre-target-registry request shape. These digests are cache keys in
// the serving layer: if adding the target axis (or any later change)
// shifted one, every cached AES result would silently miss. A request
// spelling "aes" explicitly must land on the same digest as the absent
// form, and the normalized JSON must not mention the target at all.
func TestRequestDigestStability(t *testing.T) {
	cases := []struct {
		req  Request
		want string
	}{
		{Request{Figure: FigureFig3}, "758e299d3ce7ebdb9ab1d868493d1c665f85cd8be3b43a4ef9dd8269b11a8336"},
		{Request{Figure: FigureFig3, Traces: 120, Rounds: 1, Averages: 1, Seed: 7}, "44ce52110d91bbdbbf35055b7d96f82306f3bdf7f0c4efb38bca0026cd11a3a9"},
		{Request{Figure: FigureFig4}, "c98f786c46479a77dd2d4540706793bfffb87fc5c16e0183ce888f423801c8da"},
		{Request{Figure: FigureFullKey, Traces: 120}, "2d438036386781c5e84980a69807ecdf38d60f38d450f2283d4611448675be18"},
		{Request{Figure: FigureRankEvo, Counts: []int{60, 120}}, "dfb6094c233116cd9260ad2fcf1ac70fcd6f26c79198853aec1a5ba0037801d1"},
		{Request{Figure: FigureFig3, Key: "000102030405060708090A0B0C0D0E0F", Synth: "simulate"}, "b2609b74fb6a96a7416f30c4a107e88e50c83d7d8440c6d4d81082d3d00ff472"},
	}
	for i, c := range cases {
		plain := c.req
		spelled := c.req
		spelled.Target = "aes"
		if err := plain.Normalize(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := spelled.Normalize(); err != nil {
			t.Fatalf("case %d (spelled): %v", i, err)
		}
		if plain.Target != "" || spelled.Target != "" {
			t.Fatalf("case %d: AES target must normalize to the absent spelling, got %q / %q", i, plain.Target, spelled.Target)
		}
		raw, _ := json.Marshal(&plain)
		if strings.Contains(string(raw), "target") {
			t.Fatalf("case %d: normalized AES request mentions target: %s", i, raw)
		}
		got := requestDigest(t, &plain)
		if got != c.want {
			t.Errorf("case %d: digest %s, want %s (request %s)", i, got, c.want, raw)
		}
		if sp := requestDigest(t, &spelled); sp != got {
			t.Errorf("case %d: explicit \"aes\" digests apart: %s vs %s", i, sp, got)
		}
	}
	// "replay" names no synthesis mode: it is refused, not digested.
	if err := (&Request{Figure: FigureFig3, Synth: "replay"}).Normalize(); err == nil {
		t.Error(`synth "replay" accepted`)
	}
}

// TestRequestNormalizeTargets pins the non-AES normalization rules:
// registry spelling, per-cipher defaults, per-cipher bounds, fig4
// refusal, idempotency.
func TestRequestNormalizeTargets(t *testing.T) {
	for _, name := range target.Names() {
		if name == target.Default {
			continue
		}
		tgt, err := target.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		info := tgt.Info()
		r := Request{Figure: FigureFig3, Target: name}
		if err := r.Normalize(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Target != name {
			t.Fatalf("%s: normalized target %q", name, r.Target)
		}
		if r.Rounds != info.DefaultRounds {
			t.Errorf("%s: default rounds %d, want %d", name, r.Rounds, info.DefaultRounds)
		}
		if r.Key != hex.EncodeToString(info.DefaultKey) {
			t.Errorf("%s: default key %s", name, r.Key)
		}
		before, _ := json.Marshal(&r)
		if err := r.Normalize(); err != nil {
			t.Fatalf("%s re-normalize: %v", name, err)
		}
		after, _ := json.Marshal(&r)
		if string(before) != string(after) {
			t.Errorf("%s: normalize not idempotent:\n%s\n%s", name, before, after)
		}

		bad := []Request{
			{Figure: FigureFig4, Target: name},
			{Figure: FigureFig3, Target: name, KeyByte: info.AttackBytes},
			{Figure: FigureFig3, Target: name, Rounds: info.MaxRounds + 1},
			{Figure: FigureFig3, Target: name, Key: "zz"},
		}
		for i := range bad {
			if err := bad[i].Normalize(); err == nil {
				t.Errorf("%s: bad request %d accepted: %+v", name, i, bad[i])
			}
		}
	}
	if err := (&Request{Figure: FigureFig3, Target: "des"}).Normalize(); err == nil {
		t.Error("unknown target accepted")
	}
}
