// Package attack implements the experimental validation of the paper's
// §5: correlation power analysis against the simulated AES-128 target,
// bare-metal with the Hamming-weight-of-SubBytes-output model (Figure 3)
// and under a loaded Linux system with the Hamming-distance-between-
// consecutive-SubBytes-stores model (Figure 4).
package attack

import (
	"fmt"

	"repro/internal/aes"
	"repro/internal/engine"
	"repro/internal/osnoise"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/sca"
	"repro/internal/target"
)

// ClockMHz is the target clock of the paper's setup: the Allwinner A20
// locked to 120 MHz for measurement.
const ClockMHz = 120.0

// RegionWindow maps one cipher-primitive region onto the trace, with the
// peak correlation observed inside it — the annotations of Figure 3.
type RegionWindow struct {
	Name         string
	Round        int
	StartUs      float64
	EndUs        float64
	FirstSample  int
	LastSample   int
	PeakCorr     float64
	PeakSampleUs float64
}

// String renders the region as the Figure 3 annotation line used by
// cmd/scacpa and the campaign reports.
func (r RegionWindow) String() string {
	return fmt.Sprintf("%-4s round %2d  [%6.2f .. %6.2f us]  peak %+0.3f at %.2f us",
		r.Name, r.Round, r.StartUs, r.EndUs, r.PeakCorr, r.PeakSampleUs)
}

// Fig3Options configures the bare-metal CPA.
type Fig3Options struct {
	// Traces is the number of acquisitions (the paper uses 100k on
	// hardware; the simulator's SNR resolves the key far sooner).
	Traces int
	// Averages is the per-acquisition averaging (paper: 16; at least
	// 1).
	Averages int
	// KeyByte selects the attacked first-round key byte.
	KeyByte int
	// Rounds truncates the simulated cipher (1 suffices for a
	// first-round attack and keeps runs fast; 10 is the full cipher).
	Rounds int
	// Seed drives plaintexts and noise: trace i draws everything from a
	// private stream derived from (Seed, i), so results are identical
	// for any worker count.
	Seed  int64
	Model power.Model
	Core  pipeline.Config
	// Synth selects the trace-synthesis strategy. The zero value,
	// engine.ModeAuto, compiles the AES schedule once and replays it in
	// lane groups, checked against full simulation on the first
	// engine.VerifyRuns traces.
	Synth engine.Mode
	// Config is the run's scheduling; results are bit-identical for
	// every value.
	engine.Config
}

// DefaultFig3Options returns a configuration resolving the key in
// seconds: 1500 traces of 4 averaged executions over a 2-round cipher.
func DefaultFig3Options() Fig3Options {
	m := power.DefaultModel()
	return Fig3Options{
		Traces:   1500,
		Averages: 4,
		KeyByte:  0,
		Rounds:   2,
		Seed:     1,
		Model:    m,
		Core:     pipeline.DefaultConfig(),
	}
}

// Fig3Result is the outcome of the bare-metal CPA.
type Fig3Result struct {
	// Target is the attacked cipher's registry name ("aes" for the
	// paper's own workload).
	Target string
	// KeyByte is the attacked byte index; TrueKey its true value;
	// Recovered the top-ranked hypothesis.
	KeyByte   int
	TrueKey   byte
	Recovered byte
	// Rank is the true key's rank (0 = recovered).
	Rank int
	// CorrTrace is the correct hypothesis's correlation over time — the
	// curve of Figure 3.
	CorrTrace []float64
	// SamplePeriodUs converts sample indices to microseconds.
	SamplePeriodUs float64
	// Regions annotate the cipher primitives on the time axis.
	Regions []RegionWindow
	// Confidence distinguishes the best from the second hypothesis.
	Confidence float64
	// Traces is the number of acquisitions used.
	Traces int
	// Replayed reports that compiled replay synthesized the traces (it
	// is false under engine.ModeSimulate or after an auto-mode fallback,
	// whose reason is then in FallbackReason).
	Replayed bool
	// Batched reports that the lane-parallel replay path synthesized at
	// least one batch — the expected steady state of an auto-mode run on
	// a replayable schedule.
	Batched bool
	// FallbackReason explains an auto-mode fallback, "" otherwise.
	FallbackReason string
}

// Success reports whether the attack recovered the true key byte.
func (r *Fig3Result) Success() bool { return r.Recovered == r.TrueKey }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Fig4Options configures the loaded-Linux CPA. Its KeyByte is the
// second byte of the attacked consecutive store pair: the model is
// HD(S[pt[b-1]^k[b-1]], S[pt[b]^k[b]]) with k[b-1] already recovered,
// e.g. by a Figure 3 attack on byte b-1.
type Fig4Options struct {
	Fig3Options
	// Env is the acquisition environment the traces are measured in.
	Env osnoise.Environment
}

// DefaultFig4Options mirrors the paper's Figure 4 acquisition: 100
// averaged-16 traces under the loaded-Linux environment.
func DefaultFig4Options() Fig4Options {
	return Fig4Options{
		Fig3Options: Fig3Options{
			Traces:   100,
			Averages: 16,
			KeyByte:  1,
			Rounds:   1,
			Seed:     1,
			Model:    power.DefaultModel(),
			Core:     pipeline.DefaultConfig(),
		},
		Env: osnoise.LoadedLinux(),
	}
}

// Fig4Result is the outcome of the loaded-Linux CPA.
type Fig4Result struct {
	KeyByte    int
	TrueKey    byte
	Recovered  byte
	Rank       int
	BestCorr   float64
	SecondCorr float64
	// Confidence is the Fisher-z confidence distinguishing the correct
	// key from the best wrong guess (the paper reports > 99%).
	Confidence float64
	// CorrTrace is the correct hypothesis's correlation curve.
	CorrTrace []float64
	Traces    int
	// Replayed reports that compiled replay synthesized the traces;
	// Batched that the lane-parallel path ran; FallbackReason explains
	// an auto-mode fallback, "" otherwise.
	Replayed       bool
	Batched        bool
	FallbackReason string
}

// Success reports whether the correct key byte ranked first.
func (r *Fig4Result) Success() bool { return r.Recovered == r.TrueKey }

// RunFigure4 performs the §5 Figure 4 attack: CPA under the loaded-Linux
// environment with the micro-architecture-aware model — the Hamming
// distance between two consecutively stored SubBytes output bytes, the
// leakage the MDR byte-lane replication exposes.
func RunFigure4(key [aes.KeySize]byte, opt Fig4Options) (*Fig4Result, error) {
	if opt.Traces < 8 {
		return nil, fmt.Errorf("attack: need at least 8 traces, got %d", opt.Traces)
	}
	if opt.KeyByte < 1 || opt.KeyByte >= aes.BlockSize {
		return nil, fmt.Errorf("attack: key byte must be in [1,15], got %d", opt.KeyByte)
	}
	if err := opt.Env.Validate(); err != nil {
		return nil, err
	}
	a, err := NewAcquisition(target.Default, key[:], opt.Fig3Options)
	if err != nil {
		return nil, err
	}

	// The Figure 4 model depends on two plaintext bytes, so it stays on
	// the classic per-trace hypothesis bank.
	b, kPrev := opt.KeyByte, key[opt.KeyByte-1]
	hd := func(pt []byte, s *engine.Sample) {
		sPrev := aes.SubBytesOut(pt[b-1], kPrev)
		for k := range 256 {
			s.Hyps[0][k] = float64(sca.HD8(sPrev, aes.SubBytesOut(pt[b], byte(k))))
		}
	}
	banks, err := engine.RunBatched(
		opt.Config,
		engine.Spec{Traces: opt.Traces, Samples: a.Samples, Banks: engine.HypothesisBanks(256), Seed: opt.Seed},
		a.BatchGen(opt.Env, hd))
	if err != nil {
		return nil, err
	}
	cpa := banks[0]

	att := cpa.Result()
	trueKey := key[opt.KeyByte]
	best, second := att.Margin()
	out := &Fig4Result{
		KeyByte:    opt.KeyByte,
		TrueKey:    trueKey,
		Recovered:  byte(att.Ranking[0]),
		Rank:       att.RankOf(int(trueKey)),
		BestCorr:   best,
		SecondCorr: second,
		Confidence: att.DistinguishConfidence(),
		CorrTrace:  cpa.CorrTrace(int(trueKey)),
		Traces:     opt.Traces,
	}
	out.Replayed, out.Batched, out.FallbackReason = a.paths()
	return out, nil
}
