package engine

import (
	"cmp"
	"fmt"
	"math/rand"

	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/sca"
	"repro/internal/trace"
)

// DefaultLanes is the default lane-group width: the full
// DefaultChunkSize, so a steady-state chunk is exactly one lane group
// and the per-step schedule walk, scatter setup and fused expansion
// amortize over the widest supported batch. Like ChunkSize it is pure
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
// RunBatchBlock with per-lane callbacks.
func (s *Synthesizer) RunBatch(m *power.Model, n int, init func(lane int, core *pipeline.Core) error, use func(lane int, cycles []float64, core *pipeline.Core) error) error {
	return s.RunBatchBlock(m, n, &funcBlockRunner{init: init, use: use})
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
// instead (initialized afresh after a divergence); ModeReplay turns
// those failures into errors. Whatever the path, the rows are
// bit-identical, so results never depend on it.
//
// The power model supplies the fused synthesis weights; it must be the
// model the caller expands the cycle powers with. RunBatchBlock is safe
// to call concurrently with itself.
func (s *Synthesizer) RunBatchBlock(m *power.Model, n int, r BlockRunner) error {
	if n < 1 || n > replay.MaxLanes {
		return fmt.Errorf("engine: batch of %d lanes out of [1,%d]", n, replay.MaxLanes)
	}
	sc := s.pool.Get().(*batchScratch)
	defer s.pool.Put(sc)
	cores, err := sc.initLanes(s.cfg, n, r)
	if err != nil {
		return err
	}
	if s.mode == ModeAuto && !s.settled.Load() {
		s.window.Lock()
		if !s.settled.Load() {
			rows, err := s.verify(sc, m, cores)
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
		return err // only ModeReplay compiles here
	}
	vm := sc.batchVM(bp, m)
	if err := vm.Run(cores); err != nil {
		if s.mode == ModeReplay {
			return err
		}
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

// windowChunks returns how many leading chunks of cs a run over s must
// synthesize one at a time, each only after the previous was reduced:
// those reaching into the verification window while s has not settled
// its path, so the window's groups reach s in trace order. A nil s
// (the plain Run driver) has no window.
func (s *Synthesizer) windowChunks(cs []chunk) int {
	if s == nil || s.settled.Load() {
		return 0
	}
	n := 0
	for n < len(cs) && cs[n].start < VerifyRuns {
		n++
	}
	return n
}

// groupWidth returns the width of the lane group starting at trace
// index base with left traces left in its chunk: at most lanes, and
// never straddling the verification window's end.
func groupWidth(base, left, lanes int) int {
	l := min(lanes, left)
	if base < VerifyRuns {
		l = min(l, VerifyRuns-base)
	}
	return l
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
// class); once the group's lanes ran, Verify and then the expansion —
// fused (Averages) or per lane (Acquire) — in trace order. Every
// trace's stream is private and its draws happen in that order on every
// path, so results are bit-identical whichever path a group took.
type BatchGen struct {
	// Synth is the synthesis seam.
	Synth *Synthesizer
	// Model supplies the fused synthesis weights and the expansion
	// parameters.
	Model *power.Model
	// Lanes is the lane-group width: 0 selects DefaultLanes, otherwise
	// 1..replay.MaxLanes.
	Lanes int
	// Prepare draws the trace's pre-execution randomness (e.g. the
	// plaintext, kept in s.Aux), initializes the core's architectural
	// state and fills s.Hyps / s.Class. It may run twice for a trace
	// (a batch falling back re-initializes its lanes) and must then
	// make the same draws.
	Prepare func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error
	// Verify, if set, checks the final architectural state (the
	// functional oracle). Errors are genuine failures.
	Verify func(i int, core *pipeline.Core, s *Sample) error
	// Averages, when positive, selects the fused batch expansion: the
	// engine expands every lane's cycle powers into its trace in one
	// lane-major pass (power.ExpandCyclesBatch) with Averages-fold
	// averaging, drawing each trace's Gaussian noise in bulk from its
	// private stream — bit-identical to Averages repetitions of
	// Model.ExpandCyclesInto averaged per trace. Acquire is then unused.
	Averages int
	// Acquire expands the lane's cycle powers into s.Trace, drawing the
	// trace's noise from rng. Only consulted when Averages == 0, for
	// acquisitions the fused expansion cannot express (e.g. the
	// OS-noise model's extra draws).
	Acquire func(i int, rng *rand.Rand, cycles []float64, s *Sample) error
}

// RunBatched executes the streaming CPA described by spec, synthesizing
// every lane group through bg.Synth.RunBatchBlock. Results are
// bit-identical for every synthesis path, lane width, worker count and
// chunk size.
func RunBatched(cfg Config, spec Spec, bg BatchGen) ([]sca.Accumulator, error) {
	if bg.Synth == nil || bg.Model == nil || bg.Prepare == nil || (bg.Averages <= 0 && bg.Acquire == nil) {
		return nil, fmt.Errorf("engine: batch generator needs Synth, Model, Prepare and Averages or Acquire")
	}
	if err := CheckLanes(bg.Lanes); err != nil {
		return nil, err
	}
	lanes := cmp.Or(bg.Lanes, DefaultLanes)
	fill := func(c chunk, bb *batchBuf) error {
		gr := &bb.group
		gr.bg, gr.spec, gr.bb = &bg, &spec, bb
		for j, n := 0, c.end-c.start; j < n; {
			l := groupWidth(c.start+j, n-j, lanes)
			gr.base, gr.slot = c.start+j, j
			if err := bg.Synth.RunBatchBlock(bg.Model, l, gr); err != nil {
				return err
			}
			j += l
		}
		return nil
	}
	return runChunked(cfg, spec, bg.Synth, fill)
}

// groupRunner is the persistent BlockRunner of the batched CPA path:
// one lives in every chunk buffer, repointed per lane group, so the
// steady-state fused path allocates nothing. It synthesizes the l
// traces [base, base+l) into the chunk buffer starting at sample slot
// `slot`.
type groupRunner struct {
	bg         *BatchGen
	spec       *Spec
	bb         *batchBuf
	base, slot int
}

// InitLane reseeds the lane's private stream and runs Prepare.
func (g *groupRunner) InitLane(lane int, core *pipeline.Core) error {
	i, j := g.base+lane, g.slot+lane
	s := &g.bb.samples[j]
	s.Trace = s.Trace[:0]
	reseedTraceRNG(g.bb.rngs[j], g.spec.Seed, i)
	if err := g.bg.Prepare(i, g.bb.rngs[j], core, s); err != nil {
		return fmt.Errorf("engine: trace %d: %w", i, err)
	}
	return nil
}

// Block verifies every lane's final state, expands the lane block into
// traces — through the fused batch expansion when Averages is set,
// otherwise per lane through Acquire — and records the results. Each
// trace's stream continues exactly where Prepare left it.
func (g *groupRunner) Block(rows [][]float64, cores []*pipeline.Core) error {
	bg, bb := g.bg, g.bb
	if bg.Verify != nil {
		for lane := range rows {
			i := g.base + lane
			if err := bg.Verify(i, cores[lane], &bb.samples[g.slot+lane]); err != nil {
				return fmt.Errorf("engine: trace %d: %w", i, err)
			}
		}
	}
	if bg.Averages > 0 {
		be := &bb.expand
		be.Rows = rows
		be.Lanes = len(rows)
		be.Avg = bg.Averages
		be.Out = be.Out[:0]
		be.Noise = be.Noise[:0]
		for lane := range rows {
			j := g.slot + lane
			be.Out = append(be.Out, bb.samples[j].Trace)
			be.Noise = append(be.Noise, bb.srcs[j])
		}
		bg.Model.ExpandCyclesBatch(be)
		for lane := range rows {
			bb.samples[g.slot+lane].Trace = be.Out[lane]
		}
		be.Rows = nil
	} else {
		for lane := range rows {
			i, j := g.base+lane, g.slot+lane
			if err := bg.Acquire(i, bb.rngs[j], rows[lane], &bb.samples[j]); err != nil {
				return fmt.Errorf("engine: trace %d: %w", i, err)
			}
		}
	}
	for lane := range rows {
		if err := bb.record(g.spec, g.slot+lane, g.base+lane); err != nil {
			return err
		}
	}
	return nil
}

// Emit receives trace i in strict index order on the reducer; it
// typically appends to a file. Returning an error aborts the stream.
type Emit func(i int, t trace.Trace, aux []byte) error

// BatchStream is the trace-set form of a BatchGen: Prepare draws the
// trace's randomness and prepares the core, Acquire turns the lane's
// cycle powers into the trace. The aux record returned by Prepare
// (typically the plaintext) is handed back to Acquire and then emitted
// alongside the trace.
type BatchStream struct {
	// Synth is the synthesis seam.
	Synth *Synthesizer
	// Model supplies the fused synthesis weights.
	Model *power.Model
	// Lanes is the lane-group width: 0 selects DefaultLanes, otherwise
	// 1..replay.MaxLanes.
	Lanes int
	// Prepare draws the trace's randomness, initializes the core and
	// returns the aux record; like BatchGen.Prepare it may run twice
	// for a trace.
	Prepare func(i int, rng *rand.Rand, core *pipeline.Core) ([]byte, error)
	// Acquire expands the lane's cycle powers into the trace, checking
	// the final state on core as needed.
	Acquire func(i int, rng *rand.Rand, cycles []float64, core *pipeline.Core, aux []byte) (trace.Trace, error)
}

// StreamBatched synthesizes n traces across the worker pool and hands
// them to emit in trace-index order, through the same lane groups as
// RunBatched. At most ~workers chunks of traces are ever in memory, and
// the emitted byte stream is identical for every synthesis path, lane
// width and worker count.
func StreamBatched(cfg Config, n int, seed int64, bs BatchStream, emit Emit) error {
	if bs.Synth == nil || bs.Model == nil || bs.Prepare == nil || bs.Acquire == nil {
		return fmt.Errorf("engine: batch stream needs Synth, Model, Prepare and Acquire")
	}
	if err := CheckLanes(bs.Lanes); err != nil {
		return err
	}
	lanes := cmp.Or(bs.Lanes, DefaultLanes)
	if n < 1 {
		return fmt.Errorf("engine: need at least 1 trace, got %d", n)
	}
	cs := chunks(n, cfg.chunkSize(), nil)

	work := func(idx int) ([]streamItem, error) {
		if err := cfg.ctxErr(); err != nil {
			return nil, err
		}
		if err := cfg.Gate.acquire(cfg.Ctx); err != nil {
			return nil, err
		}
		defer cfg.Gate.release()
		c := cs[idx]
		g := &streamGroup{bs: &bs, seed: seed, items: make([]streamItem, c.end-c.start), rngs: make([]*rand.Rand, lanes)}
		for j := 0; j < len(g.items); {
			l := groupWidth(c.start+j, len(g.items)-j, lanes)
			g.base, g.slot = c.start+j, j
			if err := bs.Synth.RunBatchBlock(bs.Model, l, g); err != nil {
				return nil, err
			}
			j += l
		}
		return g.items, nil
	}
	reduce := func(idx int, items []streamItem) error {
		for j, it := range items {
			if err := emit(cs[idx].start+j, it.t, it.aux); err != nil {
				return err
			}
		}
		return nil
	}
	return orderedChunks(cfg.workers(), len(cs), bs.Synth.windowChunks(cs), work, reduce)
}

// streamItem is one synthesized trace of a stream chunk.
type streamItem struct {
	t   trace.Trace
	aux []byte
}

// streamGroup is StreamBatched's BlockRunner over one chunk: it
// synthesizes traces [base, base+l) into items[slot:].
type streamGroup struct {
	bs         *BatchStream
	seed       int64
	items      []streamItem
	rngs       []*rand.Rand // per lane
	base, slot int
}

func (g *streamGroup) InitLane(lane int, core *pipeline.Core) error {
	i := g.base + lane
	g.rngs[lane] = TraceRNG(g.seed, i)
	aux, err := g.bs.Prepare(i, g.rngs[lane], core)
	if err != nil {
		return fmt.Errorf("engine: trace %d: %w", i, err)
	}
	g.items[g.slot+lane] = streamItem{aux: aux}
	return nil
}

func (g *streamGroup) Block(rows [][]float64, cores []*pipeline.Core) error {
	for lane := range rows {
		i, it := g.base+lane, &g.items[g.slot+lane]
		t, err := g.bs.Acquire(i, g.rngs[lane], rows[lane], cores[lane], it.aux)
		if err != nil {
			return fmt.Errorf("engine: trace %d: %w", i, err)
		}
		it.t = t
	}
	return nil
}
