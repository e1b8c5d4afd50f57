package leakscan

import (
	"encoding/json"
	"testing"

	"repro/internal/engine"
)

func TestLeakscanRequestNormalize(t *testing.T) {
	r := Request{Rows: []int{5, 1, 5}}
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	def := DefaultOptions()
	if r.Traces != def.Traces || r.Averages != def.Averages || r.Confidence != def.Confidence || r.Seed != def.Seed {
		t.Fatalf("normalized %+v does not carry the defaults", r)
	}
	if len(r.Rows) != 2 || r.Rows[0] != 1 || r.Rows[1] != 5 {
		t.Fatalf("rows not sorted/deduplicated: %v", r.Rows)
	}
	before, _ := json.Marshal(&r)
	if err := r.Normalize(); err != nil {
		t.Fatal(err)
	}
	after, _ := json.Marshal(&r)
	if string(before) != string(after) {
		t.Fatal("normalize not idempotent")
	}

	bad := []Request{
		{Traces: 4},
		{Rows: []int{8}},
		{Rows: []int{0}},
		{Confidence: 1.5},
		{Synth: "warp"},
	}
	for i := range bad {
		if err := bad[i].Normalize(); err == nil {
			t.Errorf("request %d must be rejected: %+v", i, bad[i])
		}
	}
}

func TestLeakscanRequestRunRejectsNegativeLanes(t *testing.T) {
	req := Request{Traces: 600, Averages: 2, Rows: []int{1}, Seed: 5}
	env := engine.DefaultRunEnv()
	env.Lanes = -1
	if _, err := req.Run(env); err == nil {
		t.Fatal("negative lane width accepted")
	}
}

func TestLeakscanRequestRunDeterministic(t *testing.T) {
	req := Request{Traces: 600, Averages: 2, Rows: []int{1}, Seed: 5}
	env := engine.DefaultRunEnv()
	a, err := req.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 1 || a.Rows[0].Row != 1 || len(a.Rows[0].Cells) == 0 {
		t.Fatalf("response malformed: %+v", a)
	}
	if a.Total == 0 {
		t.Fatal("agreement total must count the dual-issue column at least")
	}
	env.Workers, env.Lanes = 2, 4
	b, err := req.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("responses differ across scheduling")
	}
}
