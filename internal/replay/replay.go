// Package replay implements schedule-once / replay-many trace
// synthesis. For a fixed program under the paper's §3.2 warmed-cache
// protocol the structural schedule of an execution — which instruction
// issues in which cycle, which component each value lands on — is
// invariant across runs; only the values on the tracked components
// change with the input data. Compile records one reference execution
// of the cycle-level simulator into a replay program: the ordered list
// of (cycle, component) drive slots per dynamic instruction.
// CompileBatch lowers it into the lane-parallel form the BatchVM runs:
// the VM re-executes only the value dataflow (operand fetch, ALU,
// shifter and memory semantics via pipeline's hoisted decode) against
// that schedule, skipping issue pairing, hazard scoring and the memory
// hierarchy entirely, and yields per-cycle power bit-identical to the
// simulator's timeline under the power model.
//
// Conditional execution. A condition-failed instruction still issues —
// its operands cross the register file and the IS/EX buses — but its
// execute-stage drives are replaced by at most a zero on the write-back
// bus (§4.1). For simple ALU conditionals (single-cycle latency, no
// flag update), both outcomes occupy the same issue cycle and the same
// write-back slot, so the compiler stores both drive tails and the VM
// selects per run — which is what lets the AES target's data-dependent
// "eorne rX, rX, #27" xtime reduction replay exactly. Conditionals
// outside that class (memory, branches, flag setters, multi-cycle
// units) are pinned to the reference outcome and guarded.
//
// Replay is sound only while the schedule really is input-invariant.
// Two guards cover the ways it can break. Control-flow divergence — a
// pinned conditional resolving differently or a register branch
// targeting a different instruction — is detected deterministically on
// every run by per-step checks and reported as ErrDiverged. Timing
// divergence (data-dependent cache stalls from a cold hierarchy) leaves
// the value stream intact but moves slots, which per-step checks cannot
// see; the engine's auto mode catches it by checking replayed lanes
// against full simulation (BatchVM.Check) over a leading verification
// window and falling back to the simulator (see engine.Synthesizer).
package replay

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/pipeline"
)

// ErrDiverged reports that a replayed execution left the compiled
// schedule: a pinned condition resolved differently from the reference
// run or a register branch targeted a different instruction. The
// architectural state is garbage at that point; callers fall back to
// full simulation of the run from its initial state.
var ErrDiverged = errors.New("replay: execution diverged from the compiled schedule")

// haltTarget marks a register branch that left the program (the "bx lr"
// return against the core's halt sentinel).
const haltTarget = -1

// slot is one compiled drive: the cycle and component a value lands on.
type slot struct {
	cycle uint32
	comp  uint8
}

// step is the compiled form of one dynamic instruction: its static PC,
// the reference outcome of its condition, its drive slots and the
// schedule-dependent class widths DecodeExec needs. A conditional step
// stores three slot runs — the outcome-independent head (register-file
// reads and IS/EX bus operands), the executed tail and the annulled
// tail — back to back at slotOff.
type step struct {
	pc       int32
	target   int32 // register-branch target observed in the reference
	slotOff  uint32
	nHead    uint16 // head slots (the full count for pinned steps)
	nExec    uint16 // executed-outcome tail (conditional steps only)
	nAnnul   uint16 // annulled-outcome tail (conditional steps only)
	executed bool
	cond     bool // both outcomes replayable; executed is advisory
	bx       bool
	nRF      uint8
	nBus     uint8
	nNopWB   uint8
}

// Program is a compiled replay program: the structural schedule of one
// reference execution, ready to be re-evaluated against fresh data.
// A Program is immutable and safe for concurrent use by multiple VMs.
type Program struct {
	cfg    pipeline.Config
	prog   *isa.Program
	cycles int
	steps  []step
	slots  []slot
}

// Cycles returns the schedule's timeline length.
func (p *Program) Cycles() int { return p.cycles }

// Steps returns the number of dynamic instructions in the schedule.
func (p *Program) Steps() int { return len(p.steps) }

// condReplayable reports whether both outcomes of a conditional
// instruction occupy identical schedule slots, so the VM may resolve
// the condition per run instead of pinning the reference outcome: a
// single-cycle ALU operation without flag effects, whose annulled form
// drives the same write-back slot as its executed form (or none at
// all). Everything else — memory, branches, flag setters, shifter and
// multiplier users, and destination writers when nops do not reset the
// write-back bus — can change issue timing or bus occupancy when the
// outcome flips, and stays pinned.
func condReplayable(cfg *pipeline.Config, in *isa.Instr) bool {
	return in.Cond != isa.AL && in.Cond != isa.NV &&
		in.Op.IsDataProc() && !in.Op.IsCompare() && !in.SetFlags &&
		!in.UsesShifter() &&
		(cfg.NopZeroesWB || !in.Op.HasDest()) &&
		cfg.ALULatency == 1
}

// Compile runs prog once on core — whose initial architectural state
// the caller has prepared — and records the execution's structural
// schedule. The core is left holding the reference run's final state.
// Any input for which the schedule is invariant yields the same
// Program; inputs that change the schedule are exactly what replay
// cannot handle, and what the engine's verification guard detects.
func Compile(core *pipeline.Core, prog *isa.Program) (*Program, error) {
	cfg := core.Config()
	p := &Program{cfg: cfg, prog: prog}

	type obsRec struct {
		instr int
		cycle int64
		comp  pipeline.Component
	}
	var obs []obsRec
	core.SetDriveObserver(func(instr int, cycle int64, comp pipeline.Component, v uint32, role pipeline.Role) {
		obs = append(obs, obsRec{instr, cycle, comp})
	})
	res, err := core.Run(prog)
	core.SetDriveObserver(nil)
	if err != nil {
		return nil, err
	}

	p.cycles = len(res.Timeline)
	p.steps = make([]step, len(res.Issues))
	p.slots = make([]slot, 0, len(obs))

	mkSlot := func(cycle int64, comp pipeline.Component) (slot, error) {
		if cycle < 0 || cycle > math.MaxUint32 || int(cycle) >= p.cycles {
			return slot{}, fmt.Errorf("replay: drive cycle %d outside the reference timeline", cycle)
		}
		return slot{cycle: uint32(cycle), comp: uint8(comp)}, nil
	}

	oi := 0
	for si, is := range res.Issues {
		if is.PC > math.MaxInt32 {
			return nil, fmt.Errorf("replay: pc %d out of range", is.PC)
		}
		in := &prog.Instrs[is.PC]
		st := &p.steps[si]
		st.pc = int32(is.PC)
		st.executed = is.Executed
		st.target = haltTarget
		st.slotOff = uint32(len(p.slots))

		// Collect the step's observed drives and class widths.
		obsStart := oi
		for oi < len(obs) && obs[oi].instr == si {
			o := obs[oi]
			sl, err := mkSlot(o.cycle, o.comp)
			if err != nil {
				return nil, err
			}
			p.slots = append(p.slots, sl)
			switch c := o.comp; {
			case c >= pipeline.RFRead0 && c <= pipeline.RFRead2:
				st.nRF++
			case c <= pipeline.ISBus2: // the IS/EX buses are components 0..2
				st.nBus++
			case (c == pipeline.WBBus0 || c == pipeline.WBBus1) && in.Op == isa.NOP:
				st.nNopWB++
			}
			oi++
		}
		nObs := oi - obsStart

		st.cond = condReplayable(&cfg, in)
		if !st.cond {
			st.nHead = uint16(nObs)
			if in.Op == isa.BX && is.Executed {
				st.bx = true
				// The observed target is the next issued instruction; a
				// BX that ends the run records the halt sentinel.
				if si+1 < len(res.Issues) {
					st.target = int32(res.Issues[si+1].PC)
				}
			}
			continue
		}

		// Conditional step: split the observed slots into the invariant
		// head and the reference outcome's tail, then synthesize the
		// unobserved outcome's tail. Both outcomes share the write-back
		// slot (the annulled zero claims the same bus the result would).
		head := int(st.nRF) + int(st.nBus)
		if head > nObs {
			return nil, fmt.Errorf("replay: step %d (%s): %d head drives but %d observed", si, in, head, nObs)
		}
		st.nHead = uint16(head)
		tail := p.slots[int(st.slotOff)+head:]
		hasWB := cfg.NopZeroesWB && in.Op.HasDest()
		var wbSlot slot
		if hasWB {
			if len(tail) == 0 {
				return nil, fmt.Errorf("replay: step %d (%s): no write-back drive observed", si, in)
			}
			wbSlot = tail[len(tail)-1]
			if c := pipeline.Component(wbSlot.comp); c != pipeline.WBBus0 && c != pipeline.WBBus1 {
				return nil, fmt.Errorf("replay: step %d (%s): trailing drive on %s, want a write-back bus", si, in, c)
			}
		}
		if is.Executed {
			st.nExec = uint16(len(tail))
			// Annulled tail: the zero on the shared write-back slot.
			if hasWB {
				p.slots = append(p.slots, wbSlot)
				st.nAnnul = 1
			}
		} else {
			st.nAnnul = uint16(len(tail))
			// Executed tail: ALU input latches and output buffer on the
			// issue pipe one cycle after issue, then the shared
			// write-back slot — the layout Core.place produces.
			pipe := issuePipe(prog, res.Issues, si)
			e := is.Cycle
			in0 := pipeline.Component(int(pipeline.ALUIn00) + 2*pipe)
			exec := make([]slot, 0, 4)
			add := func(comp pipeline.Component) error {
				sl, err := mkSlot(e+1, comp)
				if err != nil {
					return err
				}
				exec = append(exec, sl)
				return nil
			}
			if in.Op.UsesRn() {
				if err := add(in0); err != nil {
					return nil, err
				}
				if err := add(in0 + 1); err != nil {
					return nil, err
				}
			} else {
				if err := add(in0); err != nil {
					return nil, err
				}
			}
			if err := add(pipeline.Component(int(pipeline.ALUOut0) + pipe)); err != nil {
				return nil, err
			}
			if hasWB {
				exec = append(exec, wbSlot)
			}
			// Steps store head, exec tail, annul tail in that order;
			// move the observed annulled tail behind the synthetic one.
			annul := append([]slot(nil), tail...)
			p.slots = p.slots[:int(st.slotOff)+head]
			p.slots = append(p.slots, exec...)
			p.slots = append(p.slots, annul...)
			st.nExec = uint16(len(exec))
		}
	}
	if oi != len(obs) {
		return nil, fmt.Errorf("replay: %d drives not attributable to an issued instruction", len(obs)-oi)
	}
	return p, nil
}

// issuePipe recomputes which execution pipe the si-th dynamic
// instruction used, from the issue records and the pairing rules: the
// shifter/multiplier claimant takes pipe 1, its partner pipe 0, and a
// dual-issued younger without such a claim takes pipe 1.
func issuePipe(prog *isa.Program, issues []pipeline.IssueRecord, si int) int {
	needs1 := func(pc int32) bool {
		in := &prog.Instrs[pc]
		return in.UsesShifter() || in.Op.IsMul()
	}
	is := issues[si]
	if !is.Dual {
		if needs1(int32(is.PC)) {
			return 1
		}
		return 0
	}
	if is.Slot == 0 {
		if needs1(int32(is.PC)) {
			return 1
		}
		return 0
	}
	// Younger of a pair: it gets pipe 0 exactly when the older claimed
	// pipe 1.
	older := issues[si-1]
	if needs1(int32(older.PC)) {
		return 0
	}
	return 1
}
