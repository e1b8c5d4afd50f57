package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/replay"
)

// Mode selects how a Synthesizer turns program executions into
// per-cycle power.
type Mode uint8

const (
	// ModeAuto compiles the replay schedule on first use, runs the
	// first VerifyRuns executions on both the batch VM and the
	// simulator — checking every replayed drive against the simulated
	// timeline — and falls back to pure simulation on any mismatch,
	// including compile failures and mid-run divergence. The default.
	ModeAuto Mode = iota
	// ModeSimulate always runs the full cycle-level simulator.
	ModeSimulate
)

// ParseMode parses the command-line spelling of a mode: "auto" or
// "simulate".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "auto":
		return ModeAuto, nil
	case "simulate":
		return ModeSimulate, nil
	}
	return ModeAuto, fmt.Errorf("engine: unknown synthesis mode %q (want auto or simulate)", s)
}

// String returns the mode's command-line spelling.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeSimulate:
		return "simulate"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// VerifyRuns is the number of leading executions an auto-mode
// Synthesizer runs on both the batch VM and the simulator before
// trusting the compiled schedule: one default engine chunk. The engine
// drivers synthesize one chunk at a time, in trace order, until every
// Synthesizer of a run has settled or the run reaches trace
// VerifyRuns per Synthesizer (windowSerial), so which executions are
// checked — and the verdict — depend only on the run's inputs.
const VerifyRuns = DefaultChunkSize

// Synthesizer is the trace-synthesis seam between the attack layers and
// the pipeline model: one fixed (configuration, program) pair, executed
// once per acquisition against per-run initial state. Lane groups of
// executions (RunBatchBlock) run either on the lane-parallel batch VM
// over a compiled schedule or, per lane, on the cycle-level simulator;
// both deliver per-cycle power bit-identical to power.Model.CyclePowers
// over the simulated timeline whenever the schedule is input-invariant,
// and when it is not, auto mode degrades to the simulator's output.
//
// A Synthesizer is safe for concurrent use: each call borrows pooled
// per-worker scratch (lane cores, a batch VM), so steady-state
// synthesis allocates nothing.
type Synthesizer struct {
	mode Mode
	cfg  pipeline.Config
	prog *isa.Program

	// window serializes the auto-mode verification groups; checked
	// counts the executions they passed. settled is set once the path
	// is final: the window passed, the mode is ModeSimulate, or the
	// synthesizer fell back.
	window  sync.Mutex
	checked int
	settled atomic.Bool

	// fellBack is set when the verification window or the compile
	// failed: every later group simulates. diverged is set when a group
	// after the window left the schedule and was simulated.
	mu         sync.Mutex // guards compilation and the fallback reason
	bp         atomic.Pointer[replay.BatchProgram]
	compileErr error
	batchErr   error
	fellBack   atomic.Bool
	diverged   atomic.Bool
	reason     string

	batchRuns atomic.Int64
	pool      sync.Pool // *batchScratch
}

// NewSynthesizer returns a Synthesizer for the given mode, core
// configuration and program.
func NewSynthesizer(mode Mode, cfg pipeline.Config, prog *isa.Program) (*Synthesizer, error) {
	if mode > ModeSimulate {
		return nil, fmt.Errorf("engine: invalid synthesis mode %d", mode)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	s := &Synthesizer{mode: mode, cfg: cfg, prog: prog}
	s.pool.New = func() any {
		poolRefills.scratch.Add(1)
		aux := pipeline.MustNew(cfg, nil)
		aux.SetReuseBuffers(true)
		return &batchScratch{aux: []*pipeline.Core{aux}}
	}
	if mode == ModeSimulate {
		s.settled.Store(true)
	}
	return s, nil
}

// FellBack reports whether an auto-mode Synthesizer simulated traces
// replay was meant to cover: its verification window or compile failed,
// or a lane group after the window diverged.
func (s *Synthesizer) FellBack() bool { return s.fellBack.Load() || s.diverged.Load() }

// FallbackReason returns why the Synthesizer fell back, "" while replay
// covers every trace. A divergence after the window reports
// replay.ErrDiverged's text alone, since several groups may diverge in
// any order.
func (s *Synthesizer) FallbackReason() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reason
}

func (s *Synthesizer) fallBack(reason string) {
	s.mu.Lock()
	if !s.fellBack.Load() {
		s.reason = reason
		s.fellBack.Store(true)
	}
	s.mu.Unlock()
	s.settled.Store(true)
}

func (s *Synthesizer) noteDivergence() {
	s.mu.Lock()
	if s.reason == "" {
		s.reason = replay.ErrDiverged.Error()
	}
	s.diverged.Store(true)
	s.mu.Unlock()
}

// windowLeft returns how many more executions the verification window
// needs before s settles its path, 0 once it has.
func (s *Synthesizer) windowLeft() int {
	if s.settled.Load() {
		return 0
	}
	s.window.Lock()
	defer s.window.Unlock()
	if s.settled.Load() {
		return 0
	}
	return VerifyRuns - s.checked
}

// closeWindow ends an auto-mode verification window that is still open
// when a run stops serializing (windowSerial); no group of s may be
// running. A synthesizer that passed at least one checked execution
// trusts its schedule from here on. One that checked none falls back to
// simulation: its schedule would otherwise be compiled from whichever
// execution a worker happens to reach first.
func (s *Synthesizer) closeWindow() {
	s.window.Lock()
	defer s.window.Unlock()
	switch {
	case s.settled.Load():
	case s.checked == 0:
		s.fallBack("verification window closed before any execution was checked")
	default:
		s.settled.Store(true)
	}
}

// BatchRuns returns how many lane groups the batch VM synthesized after
// the verification window — nonzero means the batch path really ran.
func (s *Synthesizer) BatchRuns() int64 { return s.batchRuns.Load() }

// BatchDisabledReason returns why the lane-parallel path is permanently
// off ("" while it is available): a schedule whose drives cannot be
// lowered to the fused event form. Auto mode then simulates, with the
// same text in FallbackReason.
func (s *Synthesizer) BatchDisabledReason() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.batchErr != nil {
		return s.batchErr.Error()
	}
	return ""
}

// Run simulates the program once on a pooled core. init establishes the
// run's initial architectural state — registers, memory contents,
// optionally a cache hierarchy — on a freshly wiped core. use receives
// the simulated timeline together with the core holding the final
// architectural state; both are only valid for the duration of the
// call. Run is safe to call concurrently with itself.
func (s *Synthesizer) Run(init func(*pipeline.Core), use func(pipeline.Timeline, *pipeline.Core) error) error {
	sc := s.pool.Get().(*batchScratch)
	defer s.pool.Put(sc)
	core := sc.lanes(s.cfg, 1)[0]
	init(core)
	res, err := core.Run(s.prog)
	if err != nil {
		return err
	}
	return use(res.Timeline, core)
}

// program returns the lane-parallel schedule, compiling it on first use
// from one reference simulation of a copy of core's initial state. A
// failure is sticky: every later call returns the same error.
func (s *Synthesizer) program(sc *batchScratch, core *pipeline.Core) (*replay.BatchProgram, error) {
	if bp := s.bp.Load(); bp != nil {
		return bp, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if bp := s.bp.Load(); bp != nil {
		return bp, nil
	}
	if s.compileErr != nil {
		return nil, s.compileErr
	}
	copyState(sc.aux[0], core)
	p, err := replay.Compile(sc.aux[0], s.prog)
	var bp *replay.BatchProgram
	if err == nil {
		if bp, err = replay.CompileBatch(p); err != nil {
			s.batchErr = err
		}
	}
	if err != nil {
		s.compileErr = fmt.Errorf("compile: %w", err)
		return nil, s.compileErr
	}
	s.bp.Store(bp)
	return bp, nil
}

// verify runs one group of the auto-mode verification window under
// s.window: each lane's initial state is copied to an aux core and
// replayed there on the batch VM, while the simulator runs the core the
// caller initialized — with whatever cache hierarchy InitLane attached
// — and stays authoritative. Every replayed drive is checked against
// the simulated timeline (BatchVM.Check), then registers and flags. The
// schedule compiles from lane 0; the lanes then spread over each, a lane
// on the caller's aux core and VM when they are free and on a pair
// borrowed from the pool when not, and each writes only its own
// simulator row and verdicts. After the join the first lane to differ,
// in lane order, abandons replay for good, as a lane-by-lane loop
// would; the window advances only when no lane differed. The
// simulator's cycle powers are returned either way.
func (s *Synthesizer) verify(sc *batchScratch, m *power.Model, cores []*pipeline.Core, each func(n int, f func(i int))) ([][]float64, error) {
	bp, err := s.program(sc, cores[0])
	if err != nil {
		s.fallBack(err.Error())
	}
	var callerBusy atomic.Bool // sc's aux core and VM are taken by a lane
	each(len(cores), func(lane int) {
		core := cores[lane]
		sc.runErr[lane], sc.checkErr[lane] = nil, nil
		var vm *replay.BatchVM
		var aux *pipeline.Core
		if bp != nil {
			lsc := sc
			if !callerBusy.CompareAndSwap(false, true) {
				lsc = s.pool.Get().(*batchScratch)
				defer s.pool.Put(lsc)
			} else {
				defer callerBusy.Store(false)
			}
			vm, aux = lsc.batchVM(bp, m), lsc.aux[0]
			copyState(aux, core)
			sc.checkErr[lane] = vm.Run(lsc.aux)
		}
		res, err := core.Run(s.prog)
		if err != nil {
			sc.runErr[lane] = err
			return
		}
		if vm != nil && sc.checkErr[lane] == nil {
			sc.checkErr[lane] = vm.Check(0, res.Timeline)
			if sc.checkErr[lane] == nil && (aux.State().Regs != core.State().Regs || aux.State().Flags != core.State().Flags) {
				sc.checkErr[lane] = fmt.Errorf("replayed architectural state differs from full simulation")
			}
		}
		sc.sim[lane] = m.CyclePowers(sc.sim[lane], res.Timeline)
	})
	passed := bp != nil
	for lane := range cores {
		if err := sc.runErr[lane]; err != nil {
			return nil, err
		}
		if err := sc.checkErr[lane]; passed && err != nil {
			s.fallBack(err.Error())
			passed = false
		}
	}
	if passed {
		if s.checked += len(cores); s.checked >= VerifyRuns {
			s.settled.Store(true)
		}
	}
	return sc.sim[:len(cores)], nil
}

// simulate runs every lane's core on the cycle-level simulator and
// returns the lanes' cycle powers.
func (s *Synthesizer) simulate(sc *batchScratch, m *power.Model, cores []*pipeline.Core) ([][]float64, error) {
	for lane, core := range cores {
		res, err := core.Run(s.prog)
		if err != nil {
			return nil, err
		}
		sc.sim[lane] = m.CyclePowers(sc.sim[lane], res.Timeline)
	}
	return sc.sim[:len(cores)], nil
}

// copyState makes dst's architectural state (registers, flags, memory)
// identical to src's, reusing dst's storage. Timing state — the cache
// hierarchy — is deliberately not copied: replay never consults it, and
// the verification window checks against the simulator that does.
func copyState(dst, src *pipeline.Core) {
	ds, ss := dst.State(), src.State()
	ds.Regs = ss.Regs
	ds.Flags = ss.Flags
	ds.Mem.CopyFrom(ss.Mem)
}
