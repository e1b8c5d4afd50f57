package replay

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

// TestCompileBatchRefusesMiscountedSteps pins the static drive-count
// guard: a step whose recorded slots disagree with the drive count of
// its plan — for its reference outcome when pinned, for either outcome
// when it is a replayable conditional — must be refused at compile
// time, since the batch VM does not count drives at run time.
func TestCompileBatchRefusesMiscountedSteps(t *testing.T) {
	// Steps: pinned executed, pinned annulled (Z is clear), replayable
	// conditional.
	prog := isa.MustAssemble("add r0, r1, r2\ncmpeq r1, r2\neorne r3, r3, #27")
	p, err := Compile(pipeline.MustNew(pipeline.DefaultConfig(), mem.NewMemory()), prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.steps) != 3 || !p.steps[0].executed || p.steps[1].executed || p.steps[1].cond || !p.steps[2].cond {
		t.Fatalf("unexpected schedule shape: %+v", p.steps)
	}
	if _, err := CompileBatch(p); err != nil {
		t.Fatalf("consistent program refused: %v", err)
	}
	for si := range p.steps {
		bad := *p
		bad.steps = append([]step(nil), p.steps...)
		bad.steps[si].nRF-- // the plan loses a read port the schedule kept
		_, err := CompileBatch(&bad)
		if err == nil || !strings.Contains(err.Error(), "schedule has") {
			t.Errorf("step %d with one slot more than drives: got %v, want the count refusal", si, err)
		}
	}
}
