package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// runCLI runs the command line and returns its exit code and output.
func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestSmokeSpecWritesCommittedArtifacts runs the committed smoke spec
// into a fresh directory: results.json must equal the committed bytes,
// and the CSV and report must be the renderings of those results.
func TestSmokeSpecWritesCommittedArtifacts(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runCLI("-spec", "../../campaigns/smoke.json", "-out", dir, "-quiet")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if stderr != "" {
		t.Errorf("-quiet run wrote to stderr: %q", stderr)
	}
	want, err := os.ReadFile("../../campaigns/smoke.results.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("results.json differs from campaigns/smoke.results.json")
	}
	res, err := campaign.DecodeResults(want)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{"results.csv": res.CSV(), "report.md": campaign.Report(res)} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != body {
			t.Errorf("%s is not the rendering of the committed results", name)
		}
	}
	if !strings.HasPrefix(stdout, `campaign "smoke": `) || !strings.Contains(stdout, "wrote "+filepath.Join(dir, "results.json")) {
		t.Errorf("unexpected transcript:\n%s", stdout)
	}
}

// TestResultsReportRendersCommittedResults: -results FILE -report
// prints the Markdown report of the file to stdout.
func TestResultsReportRendersCommittedResults(t *testing.T) {
	path := "../../campaigns/smoke.results.json"
	code, stdout, stderr := runCLI("-results", path, "-report")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	res, err := campaign.LoadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != campaign.Report(res) {
		t.Fatal("-report output differs from campaign.Report of the committed results")
	}
}

// TestBadFlagExitsTwo: a flag the command does not define is a usage
// error, exit 2, with the diagnostic on stderr.
func TestBadFlagExitsTwo(t *testing.T) {
	code, stdout, stderr := runCLI("-sections", "table2")
	if code != 2 {
		t.Fatalf("exit %d, want 2 (stdout %q)", code, stdout)
	}
	if !strings.Contains(stderr, "-sections") {
		t.Errorf("no diagnostic naming the flag: %q", stderr)
	}
}
