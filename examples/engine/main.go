// Engine tour: drive the parallel trace-synthesis and streaming-CPA
// subsystem directly — fan acquisitions of the simulated AES target out
// across every core, stream them through per-hypothesis Pearson
// accumulators, and watch the determinism contract hold: one worker and
// many produce bit-identical attack results.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/aes"
	"repro/internal/engine"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/sca"
)

func main() {
	key := [16]byte{0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6,
		0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C}
	const keyByte = 0
	const traces = 600

	// 1. The device under attack: the paper's byte-oriented AES on the
	//    simulated Cortex-A7-class core, truncated to one round.
	tgt, err := aes.NewTarget(pipeline.DefaultConfig(), key, aes.ProgramOptions{Rounds: 1, PadNops: 8})
	if err != nil {
		log.Fatal(err)
	}
	model := power.DefaultModel()

	// 2. One calibration run fixes the trace length (timing is
	//    input-independent).
	cal, _, err := tgt.Run([16]byte{})
	if err != nil {
		log.Fatal(err)
	}
	samples := len(cal.Timeline) * model.SamplesPerCycle

	// 3. One Synthesizer turns lane groups of executions into per-cycle
	//    power: its first executions run on both the lane-parallel batch
	//    VM and the full simulator and must agree, later groups run on
	//    the batch VM alone.
	synth, err := engine.NewSynthesizer(engine.ModeAuto, pipeline.DefaultConfig(), tgt.Program())
	if err != nil {
		log.Fatal(err)
	}

	// 4. The batch generator prepares acquisition i: the plaintext comes
	//    from the trace's private stream (kept in Sample.Aux for the
	//    output check), and so does the measurement noise the engine
	//    draws when it expands the cycle powers with 4-fold averaging —
	//    the acquisition is the same no matter which worker runs it.
	gen := engine.BatchGen{
		Variants: []*engine.Synthesizer{synth},
		Model:    &model,
		Averages: 4,
		Prepare: func(i int, rng *rand.Rand, core *pipeline.Core, s *engine.Sample) error {
			var pt [16]byte
			rng.Read(pt[:])
			s.Aux = append(s.Aux[:0], pt[:]...)
			tgt.InitCore(core, pt)
			for k := 0; k < 256; k++ {
				s.Hyps[0][k] = float64(sca.HW8(aes.SubBytesOut(pt[keyByte], byte(k))))
			}
			return nil
		},
		Verify: func(i int, core *pipeline.Core, s *engine.Sample) error {
			_, err := tgt.VerifyOutput(core.Mem(), [16]byte(s.Aux))
			return err
		},
	}

	// 5. Run the streaming CPA once per pool size. Memory stays bounded:
	//    no trace outlives its chunk.
	attack := func(workers int) (*sca.Attack, time.Duration) {
		start := time.Now()
		banks, err := engine.RunBatched(
			engine.Config{Workers: workers},
			engine.Spec{Traces: traces, Samples: samples, Banks: engine.HypothesisBanks(256), Seed: 1},
			gen)
		if err != nil {
			log.Fatal(err)
		}
		return banks[0].Result(), time.Since(start)
	}

	serial, dtSerial := attack(1)
	parallel, dtParallel := attack(runtime.GOMAXPROCS(0))

	best, corr := parallel.Best()
	fmt.Printf("streaming CPA over %d traces x %d samples, 256 hypotheses\n", traces, samples)
	fmt.Printf("recovered key byte %#02x (true %#02x), peak |r| = %.3f\n", best, key[keyByte], math.Abs(corr))
	fmt.Printf("1 worker: %v; %d workers: %v\n", dtSerial.Round(time.Millisecond),
		runtime.GOMAXPROCS(0), dtParallel.Round(time.Millisecond))

	// 6. The determinism contract: identical rankings and bit-identical
	//    peak correlations for any worker count.
	identical := true
	for k := range serial.Ranking {
		if serial.Ranking[k] != parallel.Ranking[k] ||
			math.Float64bits(serial.Peaks[k]) != math.Float64bits(parallel.Peaks[k]) {
			identical = false
		}
	}
	fmt.Printf("serial and parallel results bit-identical: %v\n", identical)
}
