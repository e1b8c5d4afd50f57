package attack

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestRequestNormalizeDefaults(t *testing.T) {
	r := Request{Figure: FigureFig3}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	def := DefaultFig3Options()
	if r.Traces != def.Traces || r.Averages != def.Averages || r.Rounds != def.Rounds {
		t.Fatalf("normalized %+v does not carry the fig3 defaults", r)
	}
	if r.Seed != 1 || r.Synth != "auto" || r.Key == "" {
		t.Fatalf("normalized %+v lacks seed/synth/key defaults", r)
	}
	// Normalization must be idempotent: the canonical form of a
	// canonical form is itself (the property fingerprinting rests on).
	before, _ := json.Marshal(&r)
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	after, _ := json.Marshal(&r)
	if string(before) != string(after) {
		t.Fatalf("normalize not idempotent:\n%s\n%s", before, after)
	}
}

func TestRequestNormalizeRankEvo(t *testing.T) {
	r := Request{Figure: FigureRankEvo, Counts: []int{400, 100, 100, 200}}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	if len(r.Counts) != 3 || r.Counts[0] != 100 || r.Counts[2] != 400 {
		t.Fatalf("counts not sorted/deduplicated: %v", r.Counts)
	}
	if r.Traces != 0 {
		t.Fatalf("normalized rankevo must keep traces 0, got %d", r.Traces)
	}
	if err := r.Normalize(); err != nil {
		t.Fatalf("re-normalize: %v", err)
	}
}

func TestRequestNormalizeRejects(t *testing.T) {
	sigma := -1.0
	bad := []Request{
		{Figure: "fig9"},
		{Figure: FigureFig3, Traces: 4},
		{Figure: FigureFig3, Key: "zz"},
		{Figure: FigureFig3, Synth: "warp"},
		{Figure: FigureFig3, Counts: []int{100}},
		{Figure: FigureFig3, NoiseSigma: &sigma},
		{Figure: FigureFig4, KeyByte: 0, Traces: 0, Averages: 0, Rounds: 0, Counts: []int{3}},
		{Figure: FigureRankEvo},
		{Figure: FigureRankEvo, Counts: []int{4}},
		{Figure: FigureRankEvo, Counts: []int{100}, Traces: 100},
	}
	for i := range bad {
		if err := bad[i].Normalize(); err == nil {
			t.Errorf("request %d must be rejected: %+v", i, bad[i])
		}
	}
	// KeyByte 0 for fig4 normalizes to the default byte 1, so reject
	// only an explicit impossible spelling via a fresh request.
	r := Request{Figure: FigureFig4}
	if err := r.Normalize(); err != nil || r.KeyByte != 1 {
		t.Fatalf("fig4 default key byte: %d, err %v", r.KeyByte, err)
	}
}

func TestRequestRunRejectsNegativeLanes(t *testing.T) {
	req := Request{Figure: FigureFig3, Traces: 120, Rounds: 1, Averages: 1, Seed: 7}
	env := engine.DefaultRunEnv()
	env.Lanes = -1
	if _, err := req.Run(env); err == nil {
		t.Fatal("negative lane width accepted")
	}
}

func TestRequestRunFig3Deterministic(t *testing.T) {
	req := Request{Figure: FigureFig3, Traces: 120, Rounds: 1, Averages: 1, Seed: 7}
	env := engine.DefaultRunEnv()
	a, err := req.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	if a.Attack == nil || a.FullKey != nil || a.RankEvo != nil {
		t.Fatalf("fig3 response carries the wrong payload: %+v", a)
	}
	env.Workers, env.Lanes = 3, 8
	b, err := req.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("responses differ across scheduling:\n%s\n%s", ja, jb)
	}
	if !strings.Contains(string(ja), `"figure":"fig3"`) {
		t.Fatalf("response JSON missing figure: %s", ja)
	}
}

func TestRequestRunRankEvo(t *testing.T) {
	req := Request{Figure: FigureRankEvo, Counts: []int{60, 120}, Rounds: 1, Averages: 1, Seed: 3}
	res, err := req.Run(engine.DefaultRunEnv())
	if err != nil {
		t.Fatal(err)
	}
	if res.RankEvo == nil || len(res.RankEvo.Ranks) != 2 || res.Traces != 120 {
		t.Fatalf("rankevo response malformed: %+v", res)
	}
}

func TestParseKey(t *testing.T) {
	if k, err := ParseKey(""); err != nil || k != DefaultKey {
		t.Fatalf("empty key must select the FIPS default, got %x err %v", k, err)
	}
	if _, err := ParseKey("abc"); err == nil {
		t.Fatal("short key must be rejected")
	}
	k, err := ParseKey("000102030405060708090a0b0c0d0e0f")
	if err != nil || k[15] != 0x0f {
		t.Fatalf("round-trip failed: %x err %v", k, err)
	}
}
