package leakscan

import (
	"fmt"
	"slices"

	"repro/internal/engine"
)

// Request is the JSON request shape of one §4 leakage scan — the
// package's entry point for request/response services. Every field is
// result-affecting (scheduling lives in engine.RunEnv), so a canonical
// digest of the normalized request is a sound cache key.
type Request struct {
	// Traces is the per-benchmark acquisition count (0: the package
	// default).
	Traces int `json:"traces,omitempty"`
	// Averages is the per-acquisition averaging factor (0: default).
	Averages int `json:"averages,omitempty"`
	// Rows restricts the scan to a subset of the seven Table 2 rows
	// (1-based); empty means all seven. Normalization sorts and
	// deduplicates.
	Rows []int `json:"rows,omitempty"`
	// Confidence is the detection criterion (0: 0.995).
	Confidence float64 `json:"confidence,omitempty"`
	// NoiseSigma overrides the power model's noise standard deviation;
	// nil keeps the model default.
	NoiseSigma *float64 `json:"noise_sigma,omitempty"`
	// Seed drives operand randomization and noise (0: seed 1).
	Seed int64 `json:"seed,omitempty"`
	// Synth is the trace-synthesis mode ("": auto).
	Synth string `json:"synth,omitempty"`
	// Order is the CPA combining order (0: first order; 2: centered-
	// product second-order scan, whose cells are unscored).
	Order int `json:"order,omitempty"`
}

// Normalize validates the request and rewrites it into its canonical
// form (defaults filled, rows sorted). Two requests that normalize
// equal compute bit-identical responses.
func (r *Request) Normalize() error {
	def := DefaultOptions()
	if r.Traces == 0 {
		r.Traces = def.Traces
	}
	if r.Averages == 0 {
		r.Averages = def.Averages
	}
	if r.Confidence == 0 {
		r.Confidence = def.Confidence
	}
	if r.Seed == 0 {
		r.Seed = def.Seed
	}
	if r.Synth == "" {
		r.Synth = engine.ModeAuto.String()
	}
	if _, err := engine.ParseMode(r.Synth); err != nil {
		return err
	}
	if r.Order == 0 {
		r.Order = 1
	}
	if r.Order != 1 && r.Order != 2 {
		return fmt.Errorf("leakscan: CPA order %d not supported (want 1 or 2)", r.Order)
	}
	slices.Sort(r.Rows)
	r.Rows = slices.Compact(r.Rows)
	nRows := len(Benchmarks())
	for _, row := range r.Rows {
		if row < 1 || row > nRows {
			return fmt.Errorf("leakscan: row %d out of [1,%d]", row, nRows)
		}
	}
	switch {
	case r.Traces < 8:
		return fmt.Errorf("leakscan: need at least 8 traces, got %d", r.Traces)
	case r.Averages < 1:
		return fmt.Errorf("leakscan: averages must be >= 1, got %d", r.Averages)
	case r.Confidence < 0 || r.Confidence >= 1:
		return fmt.Errorf("leakscan: confidence must be in [0,1), got %g", r.Confidence)
	case r.NoiseSigma != nil && *r.NoiseSigma < 0:
		return fmt.Errorf("leakscan: noise sigma must be >= 0, got %g", *r.NoiseSigma)
	}
	return nil
}

// CellJSON is one serialized (component, expression) verdict.
type CellJSON struct {
	Column     string  `json:"column"`
	Expr       string  `json:"expr"`
	Scored     bool    `json:"scored"`
	Expected   bool    `json:"expected"`
	Border     bool    `json:"border"`
	Detected   bool    `json:"detected"`
	Match      bool    `json:"match"`
	Peak       float64 `json:"peak"`
	Confidence float64 `json:"confidence"`
}

// RowJSON is one serialized benchmark row of the scan.
type RowJSON struct {
	Row          int        `json:"row"`
	Name         string     `json:"name"`
	Dual         bool       `json:"dual"`
	DualExpected bool       `json:"dual_expected"`
	Cells        []CellJSON `json:"cells"`
}

// Response is the JSON result of one leakscan Request — a pure function
// of (normalized request, env.Core, env.Model).
type Response struct {
	Traces     int       `json:"traces"`
	Averages   int       `json:"averages"`
	Confidence float64   `json:"confidence"`
	Seed       int64     `json:"seed"`
	Synth      string    `json:"synth"`
	Order      int       `json:"order"`
	Rows       []RowJSON `json:"rows"`
	// Match and Total count scored cells (plus dual-issue columns)
	// agreeing with the published Table 2.
	Match int `json:"match"`
	Total int `json:"total"`
}

// Run executes the request under env and returns its structured
// response.
func (r *Request) Run(env engine.RunEnv) (*Response, error) {
	if err := r.Normalize(); err != nil {
		return nil, err
	}
	if err := engine.CheckLanes(env.Lanes); err != nil {
		return nil, err
	}
	opt := DefaultOptions()
	opt.Traces = r.Traces
	opt.Averages = r.Averages
	opt.Confidence = r.Confidence
	opt.Seed = r.Seed
	opt.Core = env.Core
	opt.Model = env.Model
	if r.NoiseSigma != nil {
		opt.Model.NoiseSigma = *r.NoiseSigma
	}
	opt.Order = r.Order
	opt.Config = env.Config
	opt.Synth, _ = engine.ParseMode(r.Synth)

	rows := r.Rows
	if len(rows) == 0 {
		for i := range Benchmarks() {
			rows = append(rows, i+1)
		}
	}
	out := &Response{
		Traces:     opt.Traces,
		Averages:   opt.Averages,
		Confidence: opt.Confidence,
		Seed:       opt.Seed,
		Synth:      r.Synth,
		Order:      r.Order,
	}
	for _, row := range rows {
		b, ok := BenchmarkByRow(row)
		if !ok {
			return nil, fmt.Errorf("leakscan: no Table 2 row %d", row)
		}
		br, err := RunBenchmark(&b, opt)
		if err != nil {
			return nil, err
		}
		rr := RowJSON{Row: br.Row, Name: br.Name, Dual: br.Dual, DualExpected: br.DualExpected}
		for _, e := range br.Exprs {
			rr.Cells = append(rr.Cells, CellJSON{
				Column:     string(e.Column),
				Expr:       e.Name,
				Scored:     e.Scored,
				Expected:   e.Expected.Leaks(),
				Border:     e.Expected == Border,
				Detected:   e.Detected,
				Match:      e.Match,
				Peak:       e.Peak,
				Confidence: e.Confidence,
			})
		}
		out.Rows = append(out.Rows, rr)
		m, t := br.Agreement()
		out.Match += m
		out.Total += t
	}
	return out, nil
}
