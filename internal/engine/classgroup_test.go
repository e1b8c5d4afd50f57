package engine

import (
	"fmt"
	"testing"

	"repro/internal/sca"
)

// TestClassGroupCheckpointsEqualSerialPrefix pins the shared-moment
// class banks at every checkpoint: three first-order class banks of
// different tables and class counts, observed after 3, 64 and 97
// traces at Workers 1–4 and chunk sizes 16 and 64, each equal the
// per-trace reference over that prefix, fed to a bank of its own.
func TestClassGroupCheckpointsEqualSerialPrefix(t *testing.T) {
	checkpoints := []int{3, 64, 97}
	f := newVariantFixture(t, 97)
	f.spec.Banks = threeClassBanks(false)
	want := map[int][]sca.Accumulator{}
	for _, n := range checkpoints {
		sub := f.spec
		sub.Traces = n
		want[n] = serialReference(t, sub, f.scalar(t))
	}
	for workers := 1; workers <= 4; workers++ {
		for _, chunk := range []int{16, 64} {
			spec := f.spec
			spec.Checkpoints = checkpoints
			var seen []int
			spec.OnCheckpoint = func(n int, banks []sca.Accumulator) {
				seen = append(seen, n)
				for b := range banks {
					if !accEqual(banks[b], want[n][b]) {
						t.Errorf("workers=%d chunk=%d checkpoint %d: bank %d differs from the serial prefix", workers, chunk, n, b)
					}
				}
			}
			bg, _ := f.gen(t, ModeAuto)
			banks, err := RunBatched(Config{Workers: workers, chunkSize: chunk}, spec, bg)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(seen) != fmt.Sprint(checkpoints) {
				t.Fatalf("workers=%d chunk=%d: checkpoints fired at %v", workers, chunk, seen)
			}
			for b := range banks {
				if !accEqual(banks[b], want[97][b]) {
					t.Errorf("workers=%d chunk=%d: returned bank %d differs from the serial run", workers, chunk, b)
				}
			}
		}
	}
}
