package main

import (
	"bytes"
	"strings"
	"testing"
)

// runCLI runs the command line and returns its exit code and output.
func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestTranscriptIndependentOfScheduling pins the determinism contract
// at the command line: every workload's transcript is byte-identical
// for one worker at the default lane width and for three workers on
// 8-lane groups.
func TestTranscriptIndependentOfScheduling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads twice")
	}
	args := []string{"-figure", "fig3,fig4,fullkey,rankevo", "-traces", "400"}
	code, want, stderr := runCLI(append(args, "-workers", "1")...)
	if code != 0 {
		t.Fatalf("-workers 1: exit %d: %s", code, stderr)
	}
	for _, section := range []string{"Figure 3", "Figure 4", "Full effective-key recovery", "Rank evolution"} {
		if !strings.Contains(want, section) {
			t.Fatalf("transcript lacks the %q section:\n%s", section, want)
		}
	}
	code, got, stderr := runCLI(append(args, "-workers", "3", "-lanes", "8")...)
	if code != 0 {
		t.Fatalf("-workers 3 -lanes 8: exit %d: %s", code, stderr)
	}
	if got != want {
		t.Fatalf("transcripts differ:\n--- -workers 1\n%s\n--- -workers 3 -lanes 8\n%s", want, got)
	}
}

// TestRejectsBadArguments pins the exit code of invalid runs: a lane
// width past the maximum, key byte 0 under the Figure 4 model, which
// needs the preceding store, and seed 0, which a request would run as
// seed 1.
func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-lanes", "65"},
		{"-figure", "fig4", "-keybyte", "0"},
		{"-seed", "0", "-figure", "fig3", "-traces", "64"},
	} {
		code, stdout, stderr := runCLI(args...)
		if code != 1 {
			t.Errorf("%v: exit %d, want 1 (stdout %q, stderr %q)", args, code, stdout, stderr)
		}
		if stderr == "" {
			t.Errorf("%v: no diagnostic on stderr", args)
		}
	}
}
