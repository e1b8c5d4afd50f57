package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestDualIssueVerdictDependsOnCore pins the §4.2 punchline: the
// dual-issued share pair is SECURE on the Cortex-A7-class core and
// LEAKS once the same binary runs on the scalar core.
func TestDualIssueVerdictDependsOnCore(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	var verdicts []string
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "dual-issued share pair"); ok {
			verdicts = append(verdicts, strings.Fields(rest)[0])
		}
	}
	if want := []string{"SECURE", "LEAKS"}; !slices.Equal(verdicts, want) {
		t.Fatalf("dual-issued share pair verdicts %v, want %v:\n%s", verdicts, want, out.String())
	}
}
