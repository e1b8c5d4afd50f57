package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTranscriptIndependentOfScheduling pins the determinism contract
// at the command line: the order-2 masking CPA transcript is
// byte-identical for one worker at the default lane width and for
// three workers on 8-lane groups. Exit code 3 means the countermeasure
// held; it is a verdict, not a failure, and the transcript carries it
// either way.
func TestTranscriptIndependentOfScheduling(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"order-2", []string{"-order", "2", "-traces", "2000"}},
		{"order-1 naive", []string{"-figure", "naive", "-traces", "800"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var transcripts []string
			var codes []int
			for _, sched := range [][]string{{"-workers", "1"}, {"-workers", "3", "-lanes", "8"}} {
				var stdout, stderr bytes.Buffer
				code := run(append(append([]string{}, c.args...), sched...), &stdout, &stderr)
				if code != 0 && code != 3 {
					t.Fatalf("%v: exit %d: %s", sched, code, stderr.String())
				}
				transcripts = append(transcripts, stdout.String())
				codes = append(codes, code)
			}
			if !strings.Contains(transcripts[0], "true key") {
				t.Fatalf("transcript lacks the verdict:\n%s", transcripts[0])
			}
			if transcripts[0] != transcripts[1] || codes[0] != codes[1] {
				t.Fatalf("transcripts differ:\n--- -workers 1 (exit %d)\n%s\n--- -workers 3 -lanes 8 (exit %d)\n%s",
					codes[0], transcripts[0], codes[1], transcripts[1])
			}
		})
	}
}

// TestRejectsBadArguments pins the exit code of invalid runs.
func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-key", "256"},
		{"-ctr", "mask+rowhammer"},
		{"-order", "3"},
		{"-traces", "7"},
		{"-lanes", "65"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1 (stdout %q, stderr %q)", args, code, stdout.String(), stderr.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("%v: no diagnostic on stderr", args)
		}
	}
}
