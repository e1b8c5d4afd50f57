package campaign

import (
	"strings"
	"testing"
)

// fakeResults builds a small synthetic Results for renderer tests — no
// experiment execution involved.
func fakeResults() *Results {
	return &Results{
		Campaign: "fake", Seed: 1, SpecFingerprint: "abcdef0123456789",
		Scenarios: []ScenarioResult{
			{
				ID: "table2/ablation=paper", Kind: KindTable2, Ablation: PaperAblation,
				Traces: 100, Averages: 2, NoiseSigma: 1, Synth: "auto",
				Table2: &Table2Result{
					Traces: 100, Averages: 2, Match: 3, Total: 4,
					Rows: []Table2Row{{
						Row: 1, Name: "mov rA,rB", Dual: false, DualExpected: false,
						Cells: []Table2Cell{
							{Column: "Is/Ex Buffer", Expr: "rB", Scored: true, Expected: true, Detected: true, Match: true, Peak: 0.9, Confidence: 1},
							{Column: "Ex/Wb Buffer", Expr: "rB", Scored: true, Expected: true, Border: true, Detected: true, Match: true, Peak: 0.5, Confidence: 1},
							{Column: "Register File", Expr: "rB", Scored: true, Expected: false, Detected: true, Match: false, Peak: 0.2, Confidence: 1},
						},
					}},
				},
			},
			{
				ID: "fig4/ablation=scalar/traces=60", Kind: KindFig4, Ablation: "scalar",
				Traces: 60, Averages: 16, NoiseSigma: 1, Synth: "auto",
				Fig4: &AttackResult{KeyByte: 1, TrueKey: "0x7e", Recovered: "0x7e", Rank: 0, Success: true,
					BestCorr: 0.8, SecondCorr: 0.4, Confidence: 0.999, Traces: 60, Averages: 16},
			},
		},
	}
}

func TestReportRendersAllSections(t *testing.T) {
	md := Report(fakeResults())
	for _, want := range []string{
		"## Campaign summary",
		"## Table 2 — leakage characterization",
		"rB†",         // border rendering
		"(!rB)",       // mismatch rendering
		"## Figure 4", // fig4 section present
		"## Ablation sweep",
		"`scalar`",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Kinds with no scenarios must not leave empty section headers.
	if strings.Contains(md, "## Table 1") || strings.Contains(md, "## Figure 3") {
		t.Error("report renders sections for absent kinds")
	}
}

func TestRenderSectionUnknown(t *testing.T) {
	if _, err := RenderSection(fakeResults(), "tablez"); err == nil {
		t.Fatal("unknown section accepted")
	}
}

func TestUpdateDocSplicesAndIsIdempotent(t *testing.T) {
	doc := strings.Join([]string{
		"# Doc",
		"prose kept verbatim",
		"<!-- campaign:begin table2 -->",
		"stale generated content",
		"<!-- campaign:end table2 -->",
		"more prose",
		"<!-- campaign:begin fig4 -->",
		"<!-- campaign:end fig4 -->",
		"",
	}, "\n")
	res := fakeResults()
	once, err := UpdateDocSections(doc, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(once, "stale generated content") {
		t.Error("stale content survived")
	}
	for _, want := range []string{"prose kept verbatim", "more prose", "## Table 2", "## Figure 4"} {
		if !strings.Contains(once, want) {
			t.Errorf("updated doc missing %q", want)
		}
	}
	twice, err := UpdateDocSections(once, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if twice != once {
		t.Error("UpdateDocSections is not idempotent")
	}
}

func TestUpdateDocErrors(t *testing.T) {
	res := fakeResults()
	if _, err := UpdateDocSections("<!-- campaign:begin nope -->\n<!-- campaign:end nope -->", res, nil); err == nil {
		t.Error("unknown section name accepted")
	}
	if _, err := UpdateDocSections("<!-- campaign:begin table2 -->\nno end", res, nil); err == nil {
		t.Error("unterminated region accepted")
	}
	if _, err := UpdateDocSections("<!-- campaign:end table2 -->", res, nil); err == nil {
		t.Error("stray end marker accepted")
	}
	if _, err := UpdateDocSections("<!-- campaign:begin table2 -->\n<!-- campaign:begin fig4 -->\n<!-- campaign:end table2 -->", res, nil); err == nil {
		t.Error("nested begin accepted")
	}
}

// TestDecodeResultsRejectsMalformedPayloads: the render-from-disk path
// must error on results whose scenarios lack their kind's payload
// rather than panic a renderer.
func TestDecodeResultsRejectsMalformedPayloads(t *testing.T) {
	cases := []string{
		`{"campaign":"x","scenarios":[{"id":"a","kind":"table1"}]}`,
		`{"campaign":"x","scenarios":[{"id":"a","kind":"rankevo","rankevo":{"counts":[10,20],"ranks":[0]}}]}`,
	}
	for _, raw := range cases {
		if _, err := DecodeResults([]byte(raw)); err == nil {
			t.Errorf("malformed results accepted: %s", raw)
		}
	}
	// The round trip of real results must still decode.
	res := fakeResults()
	if _, err := DecodeResults(res.EncodeJSON()); err != nil {
		t.Errorf("well-formed results rejected: %v", err)
	}
}

func TestCSVShape(t *testing.T) {
	res := fakeResults()
	csv := res.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if lines[0] != "scenario,kind,ablation,traces,averages,noise_sigma,synth,metric,value" {
		t.Fatalf("unexpected header %q", lines[0])
	}
	if len(lines) < 5 {
		t.Fatalf("CSV suspiciously short:\n%s", csv)
	}
	for _, l := range lines[1:] {
		if got := strings.Count(l, ","); got != 8 {
			t.Errorf("row %q has %d commas, want 8", l, got)
		}
	}
}
