package engine

import (
	"fmt"
	"math/rand"

	"repro/internal/sca"
)

// Generate synthesizes trace i into s using the trace's private rng.
// It is called concurrently from multiple workers with distinct i and
// distinct s, and must not retain s or rng across calls.
type Generate func(i int, rng *rand.Rand, s *Sample) error

// Run is the per-trace reference driver the tests compare RunBatched
// against: gen synthesizes each trace with one plain call on some
// worker, and the shared scheduler folds finished chunks into the
// global accumulator banks in chunk order. It returns the banks after
// all traces.
func Run(cfg Config, spec Spec, gen Generate) ([]sca.Accumulator, error) {
	fill := func(c chunk, bb *batchBuf) error {
		for j := 0; j < c.end-c.start; j++ {
			i := c.start + j
			s := &bb.samples[j]
			s.Trace = s.Trace[:0]
			reseedTraceRNG(bb.rngs[j], spec.Seed, i)
			if err := gen(i, bb.rngs[j], s); err != nil {
				return fmt.Errorf("engine: trace %d: %w", i, err)
			}
			if err := bb.record(&spec, j, i); err != nil {
				return err
			}
		}
		return nil
	}
	return runChunked(cfg, spec, nil, fill)
}
