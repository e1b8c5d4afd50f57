package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTranscriptIndependentOfScheduling pins the determinism contract
// at the command line: each scan's transcript is byte-identical for
// one worker at the default lane width and for three workers on 8-lane
// groups. The order-2 leg folds the raw traces the reducer keeps,
// centered on the run's own mean trace, after the last chunk.
func TestTranscriptIndependentOfScheduling(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string // a line the transcript must contain
	}{
		{"order-2 scan", []string{"-row", "2", "-traces", "300", "-order", "2"}, "Table 2"},
		{"tvla", []string{"-figure", "tvla", "-row", "2", "-traces", "300"}, "Welch t-test"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var transcripts []string
			for _, sched := range [][]string{{"-workers", "1"}, {"-workers", "3", "-lanes", "8"}} {
				var stdout, stderr bytes.Buffer
				if code := run(append(append([]string{}, c.args...), sched...), &stdout, &stderr); code != 0 {
					t.Fatalf("%v: exit %d: %s", sched, code, stderr.String())
				}
				transcripts = append(transcripts, stdout.String())
			}
			if !strings.Contains(transcripts[0], c.want) {
				t.Fatalf("transcript lacks %q:\n%s", c.want, transcripts[0])
			}
			if transcripts[0] != transcripts[1] {
				t.Fatalf("transcripts differ:\n--- -workers 1\n%s\n--- -workers 3 -lanes 8\n%s", transcripts[0], transcripts[1])
			}
		})
	}
}

// TestRejectsBadArguments pins the exit code of invalid runs.
func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-traces", "7"},
		{"-order", "3"},
		{"-row", "8"},
		{"-figure", "fig3"},
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
