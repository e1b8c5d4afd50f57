package replay

// Lane-parallel batched replay. A compiled Program fixes the structural
// schedule for every input, so when L traces replay the same schedule,
// the per-step work that does not depend on data — instruction decode,
// slot-run selection, drive-count guards, event enumeration — can run
// once per step instead of once per trace per step. BatchVM executes L
// executions ("lanes") against one BatchProgram in struct-of-arrays
// form: per-slot values become length-L rows, per-cycle power becomes an
// L-wide block, and only the irreducibly per-lane value semantics
// (pipeline.ExecDecoded.Exec against each lane's architectural state,
// the same code the simulator runs) remain scalar.
//
// Fused power synthesis. Instead of materializing L timelines and
// sweeping each one per component, the batch VM accumulates the power
// model's Hamming-weight/distance contributions directly into a
// cycles×L float64 block while walking a precompiled event list — one
// event per driven (cycle, component) pair with a nonzero weight,
// sorted by cycle then component. Because that is exactly the order in
// which power.Model's synthesis sums contributions (ascending component
// within each cycle, HD before HW per component, starting from the
// baseline), each lane's cycle-power row is bit-identical to
// power.Model.CyclePowers over the simulator's timeline. Undriven
// components hold their value (the timeline's fill-forward), which the
// event walk reproduces with a last-value row per component, updated in
// cycle order.
//
// Conditional lanes. A replayable conditional (the AES "eorne" xtime)
// resolves per lane: the VM records a per-lane pass mask per
// conditional step and the event list carries the outcome-dependent
// drives — executed-only events (ALU input latches and result buffer)
// fire only for passing lanes, and the shared write-back slot event
// selects the result value or the annulled zero per lane. Divergence
// guards run per step and per lane: any lane leaving the compiled
// schedule aborts the batch with ErrDiverged and the caller simulates
// those traces instead.
//
// Verification. The event list names every drive of the schedule,
// whatever the power model weights, so Check can compare one lane's
// replayed execution against a simulated timeline drive for drive —
// the engine's auto-mode verification window.

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/isa"
	"repro/internal/pipeline"
)

// MaxLanes is the widest supported batch: per-conditional-step lane
// masks are single 64-bit words.
const MaxLanes = 64

// Event kinds of the fused power walk.
const (
	// evAlways fires for every lane: an outcome-invariant drive.
	evAlways uint8 = iota
	// evExec fires only for lanes whose conditional step executed.
	evExec
	// evBoth fires for every lane with an outcome-selected value: the
	// executed result or the annulled zero on the shared write-back
	// slot.
	evBoth
)

// noCond marks steps without a replayable conditional.
const noCond = ^uint16(0)

// batchEvent is one driven (cycle, component) pair of the schedule.
type batchEvent struct {
	cycle uint32
	comp  uint8
	kind  uint8
	cond  uint16 // dense conditional-step index (evExec, evBoth)
	vs    int32  // value-slot row holding the drive's per-lane values
}

// BatchProgram is the lane-parallel form of a compiled replay Program:
// the same schedule, augmented with a value-slot assignment for every
// drive the power model can observe and a cycle-ordered event list for
// the fused synthesis walk. It is weight-agnostic — a BatchVM filters
// the events against a power model's weights — immutable, and safe for
// concurrent use by multiple BatchVMs.
type BatchProgram struct {
	p      *Program
	nVS    int
	nCond  int
	vsMap  []int32  // per slot: value-slot row, or -1 when unobserved
	conds  []uint16 // per step: dense conditional index, or noCond
	events []batchEvent

	// Precomputed scatter lists: for step si, scat[scatOff[si]:
	// scatOff[si+1]] names the drive values the power model observes —
	// the first scatHead[si] entries are outcome-invariant head slots,
	// the remainder executed-tail slots (scattered only for passing
	// lanes). Hoisting the per-slot vsMap probe out of the lane loop
	// removes a branchy lookup per slot per lane from Run's hot path.
	scat     []scatterSlot
	scatOff  []uint32
	scatHead []uint16

	// dec holds each step's decode-static execution plan
	// (pipeline.DecodeExec): the batch VM executes it once per lane
	// instead of re-deriving the decode from the instruction word.
	dec []pipeline.ExecDecoded
}

// scatterSlot maps one observed drive value (dv.Vals[j]) to its
// value-slot row.
type scatterSlot struct {
	j  uint8
	vs int32
}

// CompileBatch lowers a compiled replay program into its lane-parallel
// form. It fails — callers then stay on the simulator — when the
// schedule's drives cannot be expressed as one event per (cycle,
// component): overlapping drives from distinct steps, or conditional
// tails colliding with invariant slots. Such schedules do not arise
// from the in-order core model; the guard keeps the fused synthesis
// honest rather than approximate.
func CompileBatch(p *Program) (*BatchProgram, error) {
	bp := &BatchProgram{
		p:     p,
		vsMap: make([]int32, len(p.slots)),
		conds: make([]uint16, len(p.steps)),
	}
	for i := range bp.vsMap {
		bp.vsMap[i] = -1
	}

	// One record per slot, classified by outcome dependence.
	const (
		clInvariant = iota
		clExec
		clAnnul
	)
	type rec struct {
		cycle   uint32
		comp    uint8
		class   uint8
		slotIdx int
		cond    uint16
	}
	recs := make([]rec, 0, len(p.slots))
	for si := range p.steps {
		st := &p.steps[si]
		bp.conds[si] = noCond
		off := int(st.slotOff)
		for j := 0; j < int(st.nHead); j++ {
			sl := p.slots[off+j]
			recs = append(recs, rec{sl.cycle, sl.comp, clInvariant, off + j, noCond})
		}
		if !st.cond {
			continue
		}
		if bp.nCond >= int(noCond) {
			return nil, fmt.Errorf("replay: batch: too many conditional steps (%d)", bp.nCond)
		}
		ci := uint16(bp.nCond)
		bp.conds[si] = ci
		bp.nCond++
		for j := 0; j < int(st.nExec); j++ {
			sl := p.slots[off+int(st.nHead)+j]
			recs = append(recs, rec{sl.cycle, sl.comp, clExec, off + int(st.nHead) + j, ci})
		}
		for j := 0; j < int(st.nAnnul); j++ {
			sl := p.slots[off+int(st.nHead)+int(st.nExec)+j]
			recs = append(recs, rec{sl.cycle, sl.comp, clAnnul, off + int(st.nHead) + int(st.nExec) + j, ci})
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := &recs[i], &recs[j]
		if a.cycle != b.cycle {
			return a.cycle < b.cycle
		}
		if a.comp != b.comp {
			return a.comp < b.comp
		}
		return a.slotIdx < b.slotIdx
	})

	// Group records sharing a (cycle, component) into one event each.
	addVS := func(slotIdx int) int32 {
		if bp.vsMap[slotIdx] < 0 {
			bp.vsMap[slotIdx] = int32(bp.nVS)
			bp.nVS++
		}
		return bp.vsMap[slotIdx]
	}
	for g := 0; g < len(recs); {
		h := g
		for h < len(recs) && recs[h].cycle == recs[g].cycle && recs[h].comp == recs[g].comp {
			h++
		}
		group := recs[g:h]
		nInv, nExec, nAnnul := 0, 0, 0
		for _, r := range group {
			switch r.class {
			case clInvariant:
				nInv++
			case clExec:
				nExec++
			case clAnnul:
				nAnnul++
			}
		}
		ev := batchEvent{cycle: recs[g].cycle, comp: recs[g].comp, cond: noCond}
		switch {
		case nInv == len(group):
			// Outcome-invariant; the schedule's last write wins, as in
			// the simulated timeline.
			ev.kind = evAlways
			ev.vs = addVS(group[len(group)-1].slotIdx)
		case nInv == 0 && nExec == 1 && nAnnul == 0:
			ev.kind = evExec
			ev.cond = group[0].cond
			ev.vs = addVS(group[0].slotIdx)
		case nInv == 0 && nExec == 1 && nAnnul == 1 && group[0].cond == group[1].cond:
			// The shared write-back slot: result when executed, the
			// annulled zero otherwise. Exec drives exactly zero there
			// for the annulled outcome, so no value slot is needed for
			// the annul side.
			ev.kind = evBoth
			for _, r := range group {
				if r.class == clExec {
					ev.cond = r.cond
					ev.vs = addVS(r.slotIdx)
				}
			}
		default:
			return nil, fmt.Errorf("replay: batch: cycle %d %s: unsupported drive overlap (%d invariant, %d executed, %d annulled)",
				recs[g].cycle, pipeline.Component(recs[g].comp), nInv, nExec, nAnnul)
		}
		bp.events = append(bp.events, ev)
		g = h
	}

	// Build the per-step scatter lists now that every observed slot has
	// its value-slot row assigned.
	bp.scatOff = make([]uint32, len(p.steps)+1)
	bp.scatHead = make([]uint16, len(p.steps))
	for si := range p.steps {
		st := &p.steps[si]
		bp.scatOff[si] = uint32(len(bp.scat))
		off := int(st.slotOff)
		for j := 0; j < int(st.nHead); j++ {
			if vs := bp.vsMap[off+j]; vs >= 0 {
				bp.scat = append(bp.scat, scatterSlot{j: uint8(j), vs: vs})
			}
		}
		bp.scatHead[si] = uint16(len(bp.scat) - int(bp.scatOff[si]))
		if st.cond {
			for j := int(st.nHead); j < int(st.nHead)+int(st.nExec); j++ {
				if vs := bp.vsMap[off+j]; vs >= 0 {
					bp.scat = append(bp.scat, scatterSlot{j: uint8(j), vs: vs})
				}
			}
		}
	}
	bp.scatOff[len(p.steps)] = uint32(len(bp.scat))

	// Hoist each step's instruction decode. The simulator executes the
	// same plans, so this package's simulator-parity sweeps check only
	// the schedule, not a second copy of the value semantics.
	bp.dec = make([]pipeline.ExecDecoded, len(p.steps))
	for si := range p.steps {
		st := &p.steps[si]
		bp.dec[si] = pipeline.DecodeExec(&p.cfg, &p.prog.Instrs[st.pc], int(st.pc),
			pipeline.Limits{RF: int(st.nRF), Bus: int(st.nBus), NopWB: int(st.nNopWB)})
	}
	return bp, nil
}

// BatchVM replays a BatchProgram against up to MaxLanes executions at
// once, accumulating each lane's per-cycle noiseless power under the
// weights installed by SetWeights. A BatchVM is not safe for concurrent
// use — pool one per worker.
//
// Determinism contract: Run mutates each lane's core exactly as the
// full simulator would, and each lane's Power row is bit-identical to
// power.Model.CyclePowers over the simulator's timeline for that lane
// — as long as the schedule is input-invariant (Check) — independent
// of the batch width, of the
// lane's position in the batch, and of which other executions share the
// batch. Lanes never mix: every per-lane quantity lives in its own SoA
// slot.
type BatchVM struct {
	bp    *BatchProgram
	lanes int
	n     int // lanes of the last Run

	valBuf []uint32  // [vs*n + lane]: per-drive values of the running batch
	last   []uint32  // [comp*n + lane]: fill-forward state per component
	masks  []uint64  // per conditional step: lane pass mask
	powerT []float64 // [cycle*n + lane]: fused power block (cycle-major)
	rows   []float64 // [lane*cycles + cycle]: transposed result

	// The active event list: bp.events filtered and weighted by the
	// installed power model.
	wset     bool
	hd, hw   [pipeline.NumComponents]float64
	baseline float64
	active   []activeEvent
}

// activeEvent is a batch event carrying its nonzero weights.
type activeEvent struct {
	cycle    uint32
	comp     uint8
	kind     uint8
	cond     uint16
	vs       int32
	whd, whw float64
}

// NewBatchVM returns a VM for bp with capacity for lanes executions
// (1 <= lanes <= MaxLanes).
func NewBatchVM(bp *BatchProgram, lanes int) (*BatchVM, error) {
	if lanes < 1 || lanes > MaxLanes {
		return nil, fmt.Errorf("replay: batch width %d out of [1,%d]", lanes, MaxLanes)
	}
	return &BatchVM{
		bp:     bp,
		lanes:  lanes,
		valBuf: make([]uint32, bp.nVS*lanes),
		last:   make([]uint32, int(pipeline.NumComponents)*lanes),
		masks:  make([]uint64, bp.nCond),
		powerT: make([]float64, bp.p.cycles*lanes),
		rows:   make([]float64, lanes*bp.p.cycles),
	}, nil
}

// SetWeights installs the power model the fused synthesis accumulates
// under: per-component Hamming-distance and Hamming-weight weights and
// the baseline (power.Model's HDWeights, HWWeights, Baseline). Only
// components with a nonzero weight enter the event walk — the same
// components the model's own synthesis sweeps — so changing weights
// reshapes the active event list. Cheap when the weights are unchanged.
func (vm *BatchVM) SetWeights(hd, hw *[pipeline.NumComponents]float64, baseline float64) {
	if vm.wset && vm.hd == *hd && vm.hw == *hw && vm.baseline == baseline {
		return
	}
	vm.hd, vm.hw, vm.baseline = *hd, *hw, baseline
	vm.wset = true
	vm.active = vm.active[:0]
	for _, ev := range vm.bp.events {
		whd, whw := hd[ev.comp], hw[ev.comp]
		if whd == 0 && whw == 0 {
			continue
		}
		vm.active = append(vm.active, activeEvent{
			cycle: ev.cycle, comp: ev.comp, kind: ev.kind, cond: ev.cond, vs: ev.vs,
			whd: whd, whw: whw,
		})
	}
}

// Run replays the program against the architectural states of the
// cores — registers, flags and memory, as prepared by the caller's
// per-lane initialization — mutating each exactly as the simulator
// would, and accumulates each lane's fused cycle power (valid until the
// next Run, via Power). A non-nil error means some lane diverged from
// the compiled schedule; every lane's state is then unusable for this
// batch and the caller must re-run the batch from fresh initial states
// (the engine simulates it).
func (vm *BatchVM) Run(cores []*pipeline.Core) error {
	n := len(cores)
	if n < 1 || n > vm.lanes {
		return fmt.Errorf("replay: batch of %d lanes, capacity %d", n, vm.lanes)
	}
	if !vm.wset {
		return fmt.Errorf("replay: batch VM has no power weights installed")
	}
	bp := vm.bp
	p := bp.p
	vm.n = n

	clear(vm.last[:int(pipeline.NumComponents)*n])
	clear(vm.masks)
	for _, core := range cores {
		core.State().Regs[isa.LR] = pipeline.HaltTarget
	}

	var dv pipeline.DriveValues
	for si := range p.steps {
		stp := &p.steps[si]
		d := &bp.dec[si]
		ci := bp.conds[si]
		scat := bp.scat[bp.scatOff[si]:bp.scatOff[si+1]]
		headScat := scat[:bp.scatHead[si]]
		for lane := 0; lane < n; lane++ {
			st := cores[lane].State()
			passed := d.Passed(st.Flags)
			if !stp.cond && passed != stp.executed {
				return fmt.Errorf("%w: lane %d step %d (pc %d, %s) condition resolved %v, reference %v",
					ErrDiverged, lane, si, stp.pc, &p.prog.Instrs[stp.pc], passed, stp.executed)
			}
			d.Exec(passed, st, &dv)

			nSlots := int(stp.nHead)
			if stp.cond {
				if passed {
					vm.masks[ci] |= 1 << lane
					nSlots += int(stp.nExec)
				} else {
					nSlots += int(stp.nAnnul)
				}
			}
			if dv.N != nSlots {
				return fmt.Errorf("%w: lane %d step %d (pc %d, %s) drives %d values, schedule has %d slots",
					ErrDiverged, lane, si, stp.pc, &p.prog.Instrs[stp.pc], dv.N, nSlots)
			}

			// Scatter the observed values into their value-slot rows,
			// via the precompiled per-step lists. The annulled tail never
			// owns a slot (its only drive is the shared write-back zero,
			// reproduced by the evBoth event), so the lists cover only
			// head and executed-tail indices.
			sl := headScat
			if stp.cond && passed {
				sl = scat
			}
			for k := range sl {
				sc := &sl[k]
				vm.valBuf[int(sc.vs)*n+lane] = dv.Vals[sc.j]
			}

			if stp.bx {
				want := int(stp.target)
				if stp.target == haltTarget {
					want = int(^uint(0) >> 1)
				}
				if dv.Target != want {
					return fmt.Errorf("%w: lane %d step %d (pc %d) register branch to %d, reference %d",
						ErrDiverged, lane, si, stp.pc, dv.Target, want)
				}
			}
		}
	}

	vm.accumulate(n)
	return nil
}

// accumulate walks the active event list — cycle-major, component-minor,
// the canonical synthesis order — and folds each drive's HD/HW
// contribution into the power block.
func (vm *BatchVM) accumulate(n int) {
	pw := vm.powerT[:vm.bp.p.cycles*n]
	for i := range pw {
		pw[i] = vm.baseline
	}
	for e := range vm.active {
		ev := &vm.active[e]
		cyc := pw[int(ev.cycle)*n : int(ev.cycle)*n+n]
		lastRow := vm.last[int(ev.comp)*n : int(ev.comp)*n+n]
		switch ev.kind {
		case evAlways:
			vals := vm.valBuf[int(ev.vs)*n : int(ev.vs)*n+n]
			addLanes(cyc, vals, lastRow, ev.whd, ev.whw)
		case evExec:
			vals := vm.valBuf[int(ev.vs)*n : int(ev.vs)*n+n]
			mask := vm.masks[ev.cond]
			for lane := 0; lane < n; lane++ {
				if mask&(1<<lane) == 0 {
					continue // not driven: value held, no contribution
				}
				v := vals[lane]
				x := cyc[lane]
				if ev.whd != 0 {
					x += ev.whd * float64(bits.OnesCount32(v^lastRow[lane]))
					lastRow[lane] = v
				}
				if ev.whw != 0 {
					x += ev.whw * float64(bits.OnesCount32(v))
				}
				cyc[lane] = x
			}
		case evBoth:
			vals := vm.valBuf[int(ev.vs)*n : int(ev.vs)*n+n]
			mask := vm.masks[ev.cond]
			for lane := 0; lane < n; lane++ {
				var v uint32
				if mask&(1<<lane) != 0 {
					v = vals[lane]
				}
				x := cyc[lane]
				if ev.whd != 0 {
					x += ev.whd * float64(bits.OnesCount32(v^lastRow[lane]))
					lastRow[lane] = v
				}
				if ev.whw != 0 {
					x += ev.whw * float64(bits.OnesCount32(v))
				}
				cyc[lane] = x
			}
		}
	}
	// Transpose into per-lane rows for the expansion consumers.
	cycles := vm.bp.p.cycles
	for lane := 0; lane < n; lane++ {
		row := vm.rows[lane*cycles : (lane+1)*cycles]
		for i := 0; i < cycles; i++ {
			row[i] = pw[i*n+lane]
		}
	}
}

// addLanes folds one unconditional drive into every lane's cycle power:
// the HD term against the component's held value, then the HW term —
// the same per-component order the scalar synthesis uses. The lane
// kernels (lanes*.go) run this with AVX-512 popcount on amd64,
// bit-identically to the portable loops.
func addLanes(cyc []float64, vals, lastRow []uint32, whd, whw float64) {
	if whd != 0 {
		hdLanes(cyc, vals, lastRow, whd)
	}
	if whw != 0 {
		hwLanes(cyc, vals, whw)
	}
}

// Power returns lane's fused per-cycle noiseless power from the last
// Run — bit-identical to power.Model.CyclePowers over the simulator's
// timeline for the same execution. Valid until the next Run.
func (vm *BatchVM) Power(lane int) []float64 {
	cycles := vm.bp.p.cycles
	return vm.rows[lane*cycles : (lane+1)*cycles]
}

// Check compares lane's execution from the last successful Run against
// tl, the simulator's timeline of the same execution: the schedule's
// length, the driven state and value of every drive the program
// records on this lane's outcome, and that the simulation drove nothing
// else. The comparison ignores the installed power weights, so a
// difference on a component the model weights at zero still fails. A
// nil error means the lane's replayed timeline is bit-identical to tl.
func (vm *BatchVM) Check(lane int, tl pipeline.Timeline) error {
	bp, n := vm.bp, vm.n
	if lane < 0 || lane >= n {
		return fmt.Errorf("replay: lane %d out of the last batch of %d", lane, n)
	}
	if len(tl) != bp.p.cycles {
		return fmt.Errorf("replay: simulation ran %d cycles, the schedule %d", len(tl), bp.p.cycles)
	}
	fired := 0
	for e := range bp.events {
		ev := &bp.events[e]
		v := vm.valBuf[int(ev.vs)*n+lane]
		if ev.kind != evAlways && vm.masks[ev.cond]&(1<<lane) == 0 {
			if ev.kind == evExec {
				continue // not driven on this lane's outcome
			}
			v = 0 // evBoth: the annulled zero
		}
		fired++
		s := &tl[ev.cycle]
		comp := pipeline.Component(ev.comp)
		if !s.IsDriven(comp) || s.Values[comp] != v {
			return fmt.Errorf("replay: cycle %d %s: replayed %#x, simulated %#x (driven %v)",
				ev.cycle, comp, v, s.Values[comp], s.IsDriven(comp))
		}
	}
	driven := 0
	for i := range tl {
		driven += bits.OnesCount32(tl[i].Driven)
	}
	if driven != fired {
		return fmt.Errorf("replay: simulation drove %d components, the schedule %d", driven, fired)
	}
	return nil
}
