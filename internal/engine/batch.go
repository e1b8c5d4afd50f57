package engine

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/osnoise"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/sca"
)

// DefaultLanes is the default lane-group width: the full
// DefaultChunkSize, so a steady-state chunk is exactly one lane group
// and the per-step dispatch, pass mask and destination-row setup and the
// fused expansion amortize over the widest supported batch. Like the chunk size it is pure
// scheduling — results are bit-identical for every lane width.
const DefaultLanes = replay.MaxLanes

// batchScratch is one worker's pooled state: one core per lane, the aux
// core the schedule compiles on and a verified lane replays on, the
// batch VM, and the per-lane cycle-power rows handed to Block.
type batchScratch struct {
	cores []*pipeline.Core
	aux   []*pipeline.Core // exactly one core
	vm    *replay.BatchVM
	rows  [][]float64 // views of the batch VM's rows
	sim   [][]float64 // simulated lanes' cycle powers
	// runErr and checkErr are a verification group's per-lane verdicts:
	// the simulator's error and the replay check's.
	runErr, checkErr []error
}

// lanes returns n lane cores with wiped architectural state and no
// cache hierarchy.
func (sc *batchScratch) lanes(cfg pipeline.Config, n int) []*pipeline.Core {
	for len(sc.cores) < n {
		core := pipeline.MustNew(cfg, nil)
		core.SetReuseBuffers(true)
		sc.cores = append(sc.cores, core)
		sc.rows = append(sc.rows, nil)
		sc.sim = append(sc.sim, nil)
		sc.runErr = append(sc.runErr, nil)
		sc.checkErr = append(sc.checkErr, nil)
	}
	cores := sc.cores[:n]
	for _, core := range cores {
		core.ResetState()
		core.SetHierarchy(nil)
		core.Mem().Wipe()
	}
	return cores
}

// initLanes returns n fresh lane cores, each initialized by r.InitLane.
func (sc *batchScratch) initLanes(cfg pipeline.Config, n int, r BlockRunner) ([]*pipeline.Core, error) {
	cores := sc.lanes(cfg, n)
	for lane, core := range cores {
		if err := r.InitLane(lane, core); err != nil {
			return nil, err
		}
	}
	return cores, nil
}

// batchVM returns the worker's batch VM over bp with m's weights.
func (sc *batchScratch) batchVM(bp *replay.BatchProgram, m *power.Model) *replay.BatchVM {
	if sc.vm == nil {
		// The width is in range, so NewBatchVM cannot fail.
		sc.vm, _ = replay.NewBatchVM(bp, DefaultLanes)
	}
	sc.vm.SetWeights(&m.HDWeights, &m.HWWeights, m.Baseline)
	return sc.vm
}

// RunBatch executes the program n times at once: init prepares each
// lane's initial architectural state on a freshly wiped core, and use
// receives each lane's per-cycle noiseless power — bit-identical to
// power.Model.CyclePowers over the simulated timeline — together with
// the core holding its final architectural state (both valid only
// during the call, lanes delivered in ascending order). It is
// RunBatchBlock with per-lane callbacks, at one worker.
func (s *Synthesizer) RunBatch(m *power.Model, n int, init func(lane int, core *pipeline.Core) error, use func(lane int, cycles []float64, core *pipeline.Core) error) error {
	return s.RunBatchBlock(Config{Workers: 1}, m, n, &funcBlockRunner{init: init, use: use})
}

// BlockRunner is the callback pair of RunBatchBlock: InitLane prepares
// one lane's initial architectural state, Block consumes the whole lane
// group at once. The interface form (rather than function values) lets
// hot callers keep one persistent runner per worker, so the steady-state
// batch path allocates nothing per chunk.
type BlockRunner interface {
	// InitLane prepares lane's initial architectural state on a freshly
	// wiped core; called once per lane in ascending order, and again
	// for every lane on fresh cores when a batch falls back to the
	// simulator, so it must depend only on lane.
	InitLane(lane int, core *pipeline.Core) error
	// Block receives the whole group: rows[lane] is that lane's
	// per-cycle noiseless power (bit-identical to
	// power.Model.CyclePowers over the execution's simulated timeline)
	// and cores[lane] holds its final architectural state. Both are
	// valid only during the call.
	Block(rows [][]float64, cores []*pipeline.Core) error
}

// funcBlockRunner adapts RunBatch's per-lane callbacks to BlockRunner.
type funcBlockRunner struct {
	init func(lane int, core *pipeline.Core) error
	use  func(lane int, cycles []float64, core *pipeline.Core) error
}

func (f *funcBlockRunner) InitLane(lane int, core *pipeline.Core) error { return f.init(lane, core) }
func (f *funcBlockRunner) Block(rows [][]float64, cores []*pipeline.Core) error {
	for lane := range rows {
		if err := f.use(lane, rows[lane], cores[lane]); err != nil {
			return err
		}
	}
	return nil
}

// RunBatchBlock is the one way a lane group of n executions becomes
// cycle powers. In auto mode the leading groups, up to VerifyRuns
// executions, form the verification window: each lane runs on both
// the batch VM and the simulator, and Block receives the simulator's
// rows. After the window every group runs on the lane-parallel batch
// VM with fused power synthesis. Whenever the batch VM cannot run —
// ModeSimulate, a failed verification or compile, a lane diverging
// from the schedule — the group's lanes are simulated one by one
// instead (initialized afresh after a divergence). Whatever the path,
// the rows are bit-identical, so results never depend on it.
//
// The power model supplies the fused synthesis weights; it must be the
// model the caller expands the cycle powers with. A verification group
// spreads its lanes over cfg's workers (Config.Each); no other field of
// cfg is read. RunBatchBlock is safe to call concurrently with itself.
func (s *Synthesizer) RunBatchBlock(cfg Config, m *power.Model, n int, r BlockRunner) error {
	if n < 1 || n > replay.MaxLanes {
		return fmt.Errorf("engine: batch of %d lanes out of [1,%d]", n, replay.MaxLanes)
	}
	sc := s.pool.Get().(*batchScratch)
	defer s.pool.Put(sc)
	cores, err := sc.initLanes(s.cfg, n, r)
	if err != nil {
		return err
	}
	if !s.settled.Load() {
		s.window.Lock()
		if !s.settled.Load() {
			rows, err := s.verify(sc, m, cores, cfg.Each)
			s.window.Unlock()
			if err != nil {
				return err
			}
			return r.Block(rows, cores)
		}
		s.window.Unlock()
	}
	if s.mode == ModeSimulate || s.fellBack.Load() {
		rows, err := s.simulate(sc, m, cores)
		if err != nil {
			return err
		}
		return r.Block(rows, cores)
	}

	bp, err := s.program(sc, cores[0])
	if err != nil {
		return err
	}
	vm := sc.batchVM(bp, m)
	if err := vm.Run(cores); err != nil {
		// A lane left the schedule: this group is simulated from fresh
		// initial states. Later groups still try the batch VM, whose
		// per-step guards catch divergence lane by lane, so which
		// groups batch never depends on which one diverged first.
		s.noteDivergence()
		if cores, err = sc.initLanes(s.cfg, n, r); err != nil {
			return err
		}
		rows, err := s.simulate(sc, m, cores)
		if err != nil {
			return err
		}
		return r.Block(rows, cores)
	}
	s.batchRuns.Add(1)
	rows := sc.rows[:n]
	for lane := range rows {
		rows[lane] = vm.Power(lane)
	}
	return r.Block(rows, cores)
}

// groupWidth returns the width of s's next lane group with left
// executions still to place: at most lanes, and never reaching past the
// end of s's verification window, so the window covers exactly the
// first VerifyRuns executions s sees.
func (s *Synthesizer) groupWidth(left, lanes int) int {
	l := min(lanes, left)
	if w := s.windowLeft(); w > 0 {
		l = min(l, w)
	}
	return l
}

// windowSerial is the serial predicate RunBatched hands runChunked for
// a run over synths: the chunk starting at trace start is synthesized
// alone, after the previous chunk was reduced, while any synthesizer is
// still inside its verification window — so each window sees its
// executions in trace order. The serialized
// prefix is bounded by trace index: the first chunk starting at or past
// VerifyRuns*len(synths) closes every window still open (closeWindow),
// so a rarely picked program variant cannot keep a run on one worker.
// orderedChunks asks only between chunks, with every earlier chunk
// reduced, so which executions each window checks, and its verdict,
// depend only on the run's inputs.
func windowSerial(synths []*Synthesizer) func(start int) bool {
	bound := VerifyRuns * len(synths)
	return func(start int) bool {
		if !slices.ContainsFunc(synths, func(s *Synthesizer) bool { return !s.settled.Load() }) {
			return false
		}
		if start < bound {
			return true
		}
		for _, s := range synths {
			s.closeWindow()
		}
		return false
	}
}

// CheckLanes validates a configured lane-group width: 0 (selecting
// DefaultLanes) or 1..replay.MaxLanes.
func CheckLanes(lanes int) error {
	if lanes < 0 || lanes > replay.MaxLanes {
		return fmt.Errorf("engine: lane width %d out of [0,%d] (0: default)", lanes, replay.MaxLanes)
	}
	return nil
}

// BatchGen is a workload's trace generator, split into phases so a lane
// group can share one schedule walk. For every trace the engine calls
// Prepare (pre-execution randomness, initial core state, hypotheses or
// class); once the group's lanes ran, Verify and then the fused
// expansion, in trace order. Every trace's stream is private and its
// draws happen in that order on every path, so results are
// bit-identical whichever path a group took.
//
// Variants holds one Synthesizer per program the workload runs. A
// workload that picks one of several programs per trace (a shuffled or
// jittered gadget) also sets Variant: the engine groups each chunk's
// traces by variant and runs every group on its variant's Synthesizer,
// each with its own verification window over the first executions of
// that variant in trace order (see windowSerial for its bound).
type BatchGen struct {
	// Variants holds one Synthesizer per program variant; a
	// single-program workload passes exactly one.
	Variants []*Synthesizer
	// Variant reports which variant trace i runs, in
	// [0, len(Variants)); nil runs variant 0 for every trace. It
	// receives the trace's freshly seeded stream and its draws are
	// discarded: Prepare starts from the same fresh stream and must make
	// the draws that picked the variant.
	Variant func(i int, rng *rand.Rand) int
	// Model supplies the fused synthesis weights and the expansion
	// parameters.
	Model *power.Model
	// Prepare draws the trace's pre-execution randomness (e.g. the
	// plaintext, kept in s.Aux), initializes the core's architectural
	// state and fills s.Hyps / s.Class. It may run twice for a trace
	// (a batch falling back re-initializes its lanes) and must then
	// make the same draws.
	Prepare func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error
	// Verify, if set, checks the final architectural state (the
	// functional oracle). Errors are genuine failures.
	Verify func(i int, core *pipeline.Core, s *Sample) error
	// Averages is the per-acquisition averaging factor, at least 1:
	// each trace is the point-wise mean of Averages executions with
	// independent noise, drawn in bulk from the trace's private stream
	// where Prepare left it.
	Averages int
	// Env is the acquisition environment. The zero value (osnoise.Quiet)
	// expands each lane block in one lane-major pass
	// (power.ExpandCyclesBatch); any other environment runs every
	// execution of every lane through its osnoise stage
	// (osnoise.Environment.Expand) on the same stream.
	Env osnoise.Environment
}

// RunBatched executes the streaming run described by spec — the one
// driver every workload synthesizes through, whether it folds traces
// into accumulator banks, emits them (Spec.Emit), or both — running
// every lane group through its variant's Synthesizer.RunBatchBlock.
// Each chunk's traces are grouped by variant (in ascending variant
// order, traces in trace order within a variant) but keep their sample
// slots, so the reduction, the emitted stream and every result bit are
// the same for every synthesis path, lane width, worker count and chunk
// size.
func RunBatched(cfg Config, spec Spec, bg BatchGen) ([]sca.Accumulator, error) {
	synths := bg.Variants
	if len(synths) == 0 || slices.Contains(synths, nil) || bg.Model == nil || bg.Prepare == nil || bg.Averages < 1 {
		return nil, fmt.Errorf("engine: batch generator needs Variants, Model, Prepare and Averages >= 1")
	}
	if err := bg.Env.Validate(); err != nil {
		return nil, err
	}
	if err := CheckLanes(cfg.Lanes); err != nil {
		return nil, err
	}
	lanes := cmp.Or(cfg.Lanes, DefaultLanes)
	fill := func(c chunk, bb *batchBuf) error {
		n := c.end - c.start
		bb.byVariant = slices.Grow(bb.byVariant[:0], len(synths))[:len(synths)]
		for v := range bb.byVariant {
			bb.byVariant[v] = bb.byVariant[v][:0]
		}
		for j := 0; j < n; j++ {
			v := 0
			if bg.Variant != nil {
				reseedTraceRNG(bb.rngs[j], spec.Seed, c.start+j)
				if v = bg.Variant(c.start+j, bb.rngs[j]); v < 0 || v >= len(synths) {
					return fmt.Errorf("engine: trace %d: variant %d out of [0,%d)", c.start+j, v, len(synths))
				}
			}
			bb.byVariant[v] = append(bb.byVariant[v], j)
		}
		gr := &bb.group
		gr.bg, gr.spec, gr.bb, gr.start = &bg, &spec, bb, c.start
		for v, slots := range bb.byVariant {
			for k := 0; k < len(slots); {
				l := synths[v].groupWidth(len(slots)-k, lanes)
				gr.slots = slots[k : k+l]
				if err := synths[v].RunBatchBlock(cfg, bg.Model, l, gr); err != nil {
					return err
				}
				k += l
			}
		}
		return nil
	}
	return runChunked(cfg, spec, windowSerial(synths), fill)
}

// groupRunner is the persistent BlockRunner of RunBatched:
// one lives in every chunk buffer, repointed per lane group, so the
// steady-state fused path allocates nothing. Lane l synthesizes trace
// start+slots[l] into the chunk buffer's sample slot slots[l].
type groupRunner struct {
	bg    *BatchGen
	spec  *Spec
	bb    *batchBuf
	start int
	slots []int
}

// InitLane reseeds the lane's private stream and runs Prepare.
func (g *groupRunner) InitLane(lane int, core *pipeline.Core) error {
	j := g.slots[lane]
	i := g.start + j
	s := &g.bb.samples[j]
	s.Trace = s.Trace[:0]
	reseedTraceRNG(g.bb.rngs[j], g.spec.Seed, i)
	if err := g.bg.Prepare(i, g.bb.rngs[j], core, s); err != nil {
		return fmt.Errorf("engine: trace %d: %w", i, err)
	}
	return nil
}

// Block verifies every lane's final state, expands the lane block into
// traces — the quiet environment in one lane-major pass, any other
// lane by lane through its osnoise stage — and records the results.
// Each trace's stream continues exactly where Prepare left it.
func (g *groupRunner) Block(rows [][]float64, cores []*pipeline.Core) error {
	bg, bb := g.bg, g.bb
	if bg.Verify != nil {
		for lane, j := range g.slots {
			if err := bg.Verify(g.start+j, cores[lane], &bb.samples[j]); err != nil {
				return fmt.Errorf("engine: trace %d: %w", g.start+j, err)
			}
		}
	}
	if bg.Env == (osnoise.Environment{}) {
		be := &bb.expand
		be.Rows = rows
		be.Lanes = len(rows)
		be.Avg = bg.Averages
		be.Out = be.Out[:0]
		be.Noise = be.Noise[:0]
		for _, j := range g.slots {
			be.Out = append(be.Out, bb.samples[j].Trace)
			be.Noise = append(be.Noise, bb.srcs[j])
		}
		bg.Model.ExpandCyclesBatch(be)
		for lane, j := range g.slots {
			bb.samples[j].Trace = be.Out[lane]
		}
		be.Rows = nil
	} else {
		for lane, j := range g.slots {
			s := &bb.samples[j]
			s.Trace = bg.Env.Expand(s.Trace, rows[lane], bg.Model, bb.rngs[j], bb.srcs[j], bg.Averages, &bb.env)
		}
	}
	for _, j := range g.slots {
		if err := bb.record(g.spec, j, g.start+j); err != nil {
			return err
		}
	}
	return nil
}
