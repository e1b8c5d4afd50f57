package attack

import (
	"encoding/hex"
	"fmt"
	"slices"

	"repro/internal/aes"
	"repro/internal/engine"
	"repro/internal/target"
)

// DefaultKey is the AES-128 key attacked when a request names none:
// aes.DefaultAttackKey.
var DefaultKey = aes.DefaultAttackKey

// ParseKey parses an AES-128 key spelled as 32 hex digits; the empty
// string selects DefaultKey. It is the single key-parsing rule shared
// by the command-line tools, the campaign specs and the request API.
func ParseKey(s string) ([aes.KeySize]byte, error) {
	if s == "" {
		return DefaultKey, nil
	}
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != aes.KeySize {
		return DefaultKey, fmt.Errorf("attack: key must be %d hex digits", 2*aes.KeySize)
	}
	var k [aes.KeySize]byte
	copy(k[:], raw)
	return k, nil
}

// The request figures: the two single-byte CPAs of the paper's §5 plus
// the full-key and rank-evolution workloads built on the Figure 3 model.
const (
	FigureFig3    = "fig3"
	FigureFig4    = "fig4"
	FigureFullKey = "fullkey"
	FigureRankEvo = "rankevo"
)

// Request is the JSON request shape of one attack experiment — the
// package's entry point for request/response services. Every field is
// result-affecting: two normalized requests marshal equal exactly when
// they compute the same result, so a canonical digest of the normalized
// request is a sound cache key. Scheduling knobs (workers, lanes,
// cancellation) deliberately live in engine.RunEnv instead.
type Request struct {
	// Figure selects the workload: fig3, fig4, fullkey or rankevo.
	Figure string `json:"figure"`
	// Target is the attacked cipher's registry name. Normalization
	// canonicalizes the AES default to the absent spelling — "aes",
	// "" and a pre-registry request all digest identically — and any
	// other name to the registry spelling. Fig4's model is AES-specific;
	// the other figures accept every registered target.
	Target string `json:"target,omitempty"`
	// Traces is the acquisition count (0: per-figure default; must stay
	// 0 for rankevo, which derives it from Counts).
	Traces int `json:"traces,omitempty"`
	// Averages is the per-acquisition averaging factor (0: default).
	Averages int `json:"averages,omitempty"`
	// KeyByte is the attacked key byte (0: per-figure default — byte 0
	// for the fig3 family, byte 1 for fig4, whose model needs the
	// preceding store).
	KeyByte int `json:"key_byte,omitempty"`
	// Rounds truncates the simulated cipher (0: per-figure default).
	Rounds int `json:"rounds,omitempty"`
	// Seed drives plaintexts and noise (0: seed 1, the tools' default).
	Seed int64 `json:"seed,omitempty"`
	// Key is the AES-128 key as 32 hex digits ("": the FIPS SP800-38A
	// key). Normalization spells it out in lowercase hex.
	Key string `json:"key,omitempty"`
	// NoiseSigma overrides the power model's measurement-noise standard
	// deviation; nil keeps the model default. Like a campaign spec, the
	// spelling is part of request identity: an explicit value — even the
	// default — is a different request than the omitted form.
	NoiseSigma *float64 `json:"noise_sigma,omitempty"`
	// Synth is the trace-synthesis mode: auto or simulate ("": auto).
	Synth string `json:"synth,omitempty"`
	// Counts are the rankevo checkpoint trace counts (required there,
	// forbidden elsewhere). Normalization sorts and deduplicates.
	Counts []int `json:"counts,omitempty"`
}

// Normalize validates the request and rewrites it into its canonical
// form: defaults filled in, the key spelled in lowercase hex, counts
// sorted. Two requests that normalize equal compute bit-identical
// results; the normalized form is what services digest for caching.
func (r *Request) Normalize() error {
	name := target.Resolve(r.Target)
	tgt, err := target.Get(name)
	if err != nil {
		return err
	}
	info := tgt.Info()
	r.Target = target.Canon(name)
	if r.Target != "" && r.Figure == FigureFig4 {
		return fmt.Errorf("attack: figure fig4's model is AES-specific; target %s supports fig3, fullkey and rankevo", name)
	}
	switch r.Figure {
	case FigureFig3, FigureFullKey, FigureRankEvo:
		def := DefaultFig3Options()
		if r.Traces == 0 && r.Figure != FigureRankEvo {
			r.Traces = def.Traces
		}
		if r.Averages == 0 {
			r.Averages = def.Averages
		}
		if r.Rounds == 0 {
			// The AES default round count is the Fig3Options default; a
			// non-AES target truncates at its own registry depth.
			if r.Target == "" {
				r.Rounds = def.Rounds
			} else {
				r.Rounds = info.DefaultRounds
			}
		}
	case FigureFig4:
		def := DefaultFig4Options()
		if r.Traces == 0 {
			r.Traces = def.Traces
		}
		if r.Averages == 0 {
			r.Averages = def.Averages
		}
		if r.Rounds == 0 {
			r.Rounds = def.Rounds
		}
		if r.KeyByte == 0 {
			r.KeyByte = def.KeyByte
		}
	default:
		return fmt.Errorf("attack: unknown figure %q (want fig3, fig4, fullkey or rankevo)", r.Figure)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Target == "" {
		key, err := ParseKey(r.Key)
		if err != nil {
			return err
		}
		r.Key = hex.EncodeToString(key[:])
	} else {
		k, err := info.ParseKey(r.Key)
		if err != nil {
			return fmt.Errorf("attack: %w", err)
		}
		r.Key = hex.EncodeToString(k)
	}
	if r.Synth == "" {
		r.Synth = engine.ModeAuto.String()
	}
	if _, err := engine.ParseMode(r.Synth); err != nil {
		return err
	}

	// The normalized rankevo form keeps Traces at 0: the trace count is
	// implied by the last checkpoint, and spelling it twice would let
	// equal requests fingerprint apart.
	if r.Figure == FigureRankEvo {
		if len(r.Counts) == 0 {
			return fmt.Errorf("attack: rankevo needs counts")
		}
		if r.Traces != 0 {
			return fmt.Errorf("attack: rankevo derives its trace count from counts; remove traces")
		}
		slices.Sort(r.Counts)
		r.Counts = slices.Compact(r.Counts)
		if r.Counts[0] < 8 {
			return fmt.Errorf("attack: rankevo counts must be >= 8, got %d", r.Counts[0])
		}
	} else if len(r.Counts) > 0 {
		return fmt.Errorf("attack: counts is a rankevo knob, not valid for %s", r.Figure)
	}

	switch {
	case r.Figure != FigureRankEvo && r.Traces < 8:
		return fmt.Errorf("attack: need at least 8 traces, got %d", r.Traces)
	case r.Averages < 1:
		return fmt.Errorf("attack: averages must be >= 1, got %d", r.Averages)
	case r.Rounds < 1 || r.Rounds > info.MaxRounds:
		return fmt.Errorf("attack: rounds must be in 1..%d, got %d", info.MaxRounds, r.Rounds)
	case r.KeyByte < 0 || r.KeyByte >= info.AttackBytes:
		return fmt.Errorf("attack: key byte %d out of range", r.KeyByte)
	case r.Figure == FigureFig4 && r.KeyByte == 0:
		return fmt.Errorf("attack: key byte 0 is not attackable with the Figure 4 model (it needs the preceding store)")
	case r.NoiseSigma != nil && *r.NoiseSigma < 0:
		return fmt.Errorf("attack: noise sigma must be >= 0, got %g", *r.NoiseSigma)
	}
	return nil
}

// RegionJSON is the serialized form of one annotated Figure 3 region.
type RegionJSON struct {
	Name     string  `json:"name"`
	Round    int     `json:"round"`
	StartUs  float64 `json:"start_us"`
	EndUs    float64 `json:"end_us"`
	PeakCorr float64 `json:"peak_corr"`
	PeakUs   float64 `json:"peak_us"`
}

// ByteResult is the serialized outcome of a single-byte CPA.
type ByteResult struct {
	KeyByte   int    `json:"key_byte"`
	TrueKey   string `json:"true_key"`
	Recovered string `json:"recovered"`
	Rank      int    `json:"rank"`
	Success   bool   `json:"success"`
	// BestCorr and SecondCorr are the top two hypothesis correlations
	// (Figure 4 only).
	BestCorr   float64 `json:"best_corr,omitempty"`
	SecondCorr float64 `json:"second_corr,omitempty"`
	Confidence float64 `json:"confidence"`
	// Regions annotate the Figure 3 correlation curve.
	Regions []RegionJSON `json:"regions,omitempty"`
}

// FullKeyJSON is the serialized outcome of a sixteen-byte recovery.
type FullKeyJSON struct {
	Key             string  `json:"key"`
	Recovered       string  `json:"recovered"`
	BytesRecovered  int     `json:"bytes_recovered"`
	Ranks           []int   `json:"ranks"`
	GuessingEntropy float64 `json:"guessing_entropy"`
	Success         bool    `json:"success"`
}

// RankEvoJSON is the serialized outcome of a rank-evolution run.
type RankEvoJSON struct {
	KeyByte      int   `json:"key_byte"`
	Counts       []int `json:"counts"`
	Ranks        []int `json:"ranks"`
	FirstSuccess int   `json:"first_success"`
}

// Response is the JSON result of one attack Request: the resolved
// acquisition point plus exactly one figure-specific payload. Every
// field is a pure function of the normalized request (and the
// environment's Core/Model), never of scheduling — responses to equal
// requests are byte-identical.
type Response struct {
	Figure string `json:"figure"`
	// Target echoes the request's canonical target spelling — absent for
	// the AES default, so pre-registry responses are byte-unchanged.
	Target   string `json:"target,omitempty"`
	Traces   int    `json:"traces"`
	Averages int    `json:"averages"`
	Seed     int64  `json:"seed"`
	Synth    string `json:"synth"`
	// Replayed reports compiled-replay synthesis; FallbackReason an
	// auto-mode fallback. (Absent for rankevo/fullkey responses, whose
	// underlying runs report per-run.)
	Replayed       bool   `json:"replayed,omitempty"`
	FallbackReason string `json:"fallback_reason,omitempty"`

	Attack  *ByteResult  `json:"attack,omitempty"`
	FullKey *FullKeyJSON `json:"fullkey,omitempty"`
	RankEvo *RankEvoJSON `json:"rankevo,omitempty"`
}

// overlay sets every request-derived field of opt, plus env's core,
// model and scheduling; the fields a request does not name keep opt's
// defaults.
func (r *Request) overlay(opt *Fig3Options, env engine.RunEnv) {
	opt.Traces = r.Traces
	opt.Averages = r.Averages
	opt.KeyByte = r.KeyByte
	opt.Rounds = r.Rounds
	opt.Seed = r.Seed
	opt.Core = env.Core
	opt.Model = env.Model
	if r.NoiseSigma != nil {
		opt.Model.NoiseSigma = *r.NoiseSigma
	}
	opt.Config = env.Config
	opt.Synth, _ = engine.ParseMode(r.Synth)
}

// fig3Options assembles Fig3Options for the fig3-model figures.
func (r *Request) fig3Options(env engine.RunEnv) Fig3Options {
	opt := DefaultFig3Options()
	r.overlay(&opt, env)
	return opt
}

// Run executes the (already normalized) request under env and returns
// its structured response. It is a pure function of (request, env.Core,
// env.Model): scheduling knobs never change a bit of the response.
func (r *Request) Run(env engine.RunEnv) (*Response, error) {
	if err := r.Normalize(); err != nil {
		return nil, err
	}
	if err := engine.CheckLanes(env.Lanes); err != nil {
		return nil, err
	}
	// The normalized key is always spelled out in full lowercase hex.
	rawKey, err := hex.DecodeString(r.Key)
	if err != nil {
		return nil, fmt.Errorf("attack: key must be hex: %w", err)
	}
	name := target.Resolve(r.Target)
	out := &Response{
		Figure:   r.Figure,
		Target:   r.Target,
		Traces:   r.Traces,
		Averages: r.Averages,
		Seed:     r.Seed,
		Synth:    r.Synth,
	}
	switch r.Figure {
	case FigureFig3:
		res, err := RunCPA(name, rawKey, r.fig3Options(env))
		if err != nil {
			return nil, err
		}
		out.Replayed, out.FallbackReason = res.Replayed, res.FallbackReason
		ar := &ByteResult{
			KeyByte:    res.KeyByte,
			TrueKey:    fmt.Sprintf("%02x", res.TrueKey),
			Recovered:  fmt.Sprintf("%02x", res.Recovered),
			Rank:       res.Rank,
			Success:    res.Success(),
			Confidence: res.Confidence,
		}
		for _, reg := range res.Regions {
			ar.Regions = append(ar.Regions, RegionJSON{
				Name: reg.Name, Round: reg.Round,
				StartUs: reg.StartUs, EndUs: reg.EndUs,
				PeakCorr: reg.PeakCorr, PeakUs: reg.PeakSampleUs,
			})
		}
		out.Attack = ar
	case FigureFig4:
		opt := DefaultFig4Options()
		r.overlay(&opt.Fig3Options, env)
		var key [aes.KeySize]byte
		copy(key[:], rawKey)
		res, err := RunFigure4(key, opt)
		if err != nil {
			return nil, err
		}
		out.Replayed, out.FallbackReason = res.Replayed, res.FallbackReason
		out.Attack = &ByteResult{
			KeyByte:    res.KeyByte,
			TrueKey:    fmt.Sprintf("%02x", res.TrueKey),
			Recovered:  fmt.Sprintf("%02x", res.Recovered),
			Rank:       res.Rank,
			Success:    res.Success(),
			BestCorr:   res.BestCorr,
			SecondCorr: res.SecondCorr,
			Confidence: res.Confidence,
		}
	case FigureFullKey:
		res, err := RecoverKey(name, rawKey, r.fig3Options(env))
		if err != nil {
			return nil, err
		}
		out.FullKey = &FullKeyJSON{
			Key:             hex.EncodeToString(res.Key),
			Recovered:       hex.EncodeToString(res.Recovered),
			BytesRecovered:  res.BytesRecovered(),
			Ranks:           append([]int(nil), res.Ranks...),
			GuessingEntropy: res.GuessingEntropy(),
			Success:         res.Success(),
		}
	case FigureRankEvo:
		curve, err := RankEvolution(name, rawKey, r.fig3Options(env), r.Counts)
		if err != nil {
			return nil, err
		}
		out.Traces = r.Counts[len(r.Counts)-1]
		out.RankEvo = &RankEvoJSON{
			KeyByte:      r.KeyByte,
			Counts:       append([]int(nil), curve.TraceCounts...),
			Ranks:        append([]int(nil), curve.Ranks...),
			FirstSuccess: curve.FirstSuccess(),
		}
	}
	return out, nil
}
