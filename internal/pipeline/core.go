package pipeline

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// HaltTarget is the branch-target sentinel that stops execution: programs
// return with "bx lr" after the core initializes LR to this value, or
// simply run off the end of the instruction stream.
const HaltTarget = 0x7FFFFFFF

// IssueRecord describes the issue of one dynamic instruction.
type IssueRecord struct {
	// PC is the static instruction index in the program.
	PC int
	// Cycle is the clock cycle in which the instruction issued.
	Cycle int64
	// Slot is 0 for the older and 1 for the younger of a dual-issued
	// pair; single-issued instructions always use slot 0.
	Slot int
	// Dual reports whether the instruction was part of a dual-issued pair.
	Dual bool
	// Executed reports whether the condition check passed.
	Executed bool
}

// Result is the outcome of one program execution on the core.
type Result struct {
	// Cycles is the total cycle count: the cycle after the last issue,
	// including trailing result latency is not counted (the paper's CPI
	// measurements are issue-throughput measurements).
	Cycles int64
	// Issues records every dynamic instruction in issue order.
	Issues []IssueRecord
	// Timeline is the per-cycle component state history.
	Timeline Timeline
	// Regs is the final architectural register file.
	Regs [isa.NumRegs]uint32
	// Flags is the final CPSR state.
	Flags isa.Flags
	// Drives holds the provenance-tagged drive events when the core ran
	// with EnableProvenance(true); nil otherwise.
	Drives []DriveEvent
}

// DynamicInstrs returns the number of issued instructions.
func (r *Result) DynamicInstrs() int { return len(r.Issues) }

// CPI returns cycles per issued instruction over the whole run.
func (r *Result) CPI() float64 {
	if len(r.Issues) == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(len(r.Issues))
}

// CPIBetween returns the CPI over the dynamic instructions issued while
// the program counter lay in [startPC, endPC). It reproduces the paper's
// GPIO-delimited measurement: cycles elapsed across the region divided by
// the number of region instructions.
func (r *Result) CPIBetween(startPC, endPC int) float64 {
	var first, last int64 = -1, -1
	n := 0
	for _, is := range r.Issues {
		if is.PC >= startPC && is.PC < endPC {
			if first < 0 {
				first = is.Cycle
			}
			last = is.Cycle
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(last-first+1) / float64(n)
}

// DriveObserver observes every component drive of a run, in emission
// order: instr is the index of the driving instruction in the run's
// Issues. The replay compiler uses it to record the structural schedule
// of a reference execution.
type DriveObserver func(instr int, cycle int64, comp Component, v uint32, role Role)

// Core is one Cortex-A7-style CPU core. A Core is not safe for concurrent
// use; independent measurement runs should each construct their own.
type Core struct {
	cfg  Config
	st   ExecState
	hier *mem.Hierarchy // nil means ideal (always-warm) memory

	ready      [isa.NumRegs]int64
	flagsReady int64

	tl     Timeline
	issues []IssueRecord
	reuse  bool

	recordProv bool
	prov       []DriveEvent
	obs        DriveObserver

	// validated memoizes the last program that passed Validate, so
	// repeated runs of one program (the synthesis hot path) skip the
	// per-instruction walk and its allocations.
	validated *isa.Program
}

// New returns a core with the given configuration and data memory. A nil
// memory allocates a fresh one. Cache timing is ideal (warm) unless a
// hierarchy is attached with SetHierarchy.
func New(cfg Config, m *mem.Memory) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m == nil {
		m = mem.NewMemory()
	}
	return &Core{cfg: cfg, st: ExecState{Mem: m}}, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config, m *mem.Memory) *Core {
	c, err := New(cfg, m)
	if err != nil {
		panic(err)
	}
	return c
}

// SetHierarchy attaches a cache timing model; nil restores ideal timing.
func (c *Core) SetHierarchy(h *mem.Hierarchy) { c.hier = h }

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Mem returns the core's data memory.
func (c *Core) Mem() *mem.Memory { return c.st.Mem }

// State returns the core's architectural state. It is the seam the
// replay VM executes against: mutating it stands in for running
// instructions. Holders must not retain it across core reconfiguration.
func (c *Core) State() *ExecState { return &c.st }

// SetReg sets an architectural register before a run.
func (c *Core) SetReg(r isa.Reg, v uint32) { c.st.Regs[r] = v }

// Reg reads an architectural register.
func (c *Core) Reg(r isa.Reg) uint32 { return c.st.Regs[r] }

// SetRegs sets r0..r(n-1) from vals.
func (c *Core) SetRegs(vals ...uint32) {
	for i, v := range vals {
		if i >= isa.NumRegs {
			break
		}
		c.st.Regs[i] = v
	}
}

// SetReuseBuffers lets subsequent runs recycle the core's timeline and
// issue-record storage instead of allocating fresh slices. With reuse
// enabled, a Result's Timeline and Issues are only valid until the next
// Run or ResetState — the mode for pooled cores on the synthesis hot
// path, where each result is consumed before the core is reused.
func (c *Core) SetReuseBuffers(on bool) { c.reuse = on }

// SetDriveObserver registers fn to observe every drive of subsequent
// runs; nil removes it.
func (c *Core) SetDriveObserver(fn DriveObserver) { c.obs = fn }

// ResetState clears registers, flags and recorded history, keeping memory
// and configuration.
func (c *Core) ResetState() {
	c.st.Regs = [isa.NumRegs]uint32{}
	c.st.Flags = isa.Flags{}
	c.ready = [isa.NumRegs]int64{}
	c.flagsReady = 0
	c.resetHistory()
}

// resetHistory clears the timeline and issue records, recycling their
// storage when buffer reuse is enabled.
func (c *Core) resetHistory() {
	if c.reuse {
		c.tl = c.tl[:0]
		c.issues = c.issues[:0]
	} else {
		c.tl = nil
		c.issues = nil
	}
}

// at returns the snapshot for the given cycle, growing the timeline.
func (c *Core) at(cycle int64) *Snapshot {
	for int64(len(c.tl)) <= cycle {
		c.tl = append(c.tl, Snapshot{})
	}
	return &c.tl[cycle]
}

// driveWB asserts v on a write-back bus at the desired cycle, preferring
// the given port and resolving collisions (two results retiring in the
// same cycle) by falling over to the other port, then to the next cycle.
func (c *Core) driveWB(cycle int64, port int, v uint32, pc int, role Role) {
	for {
		s := c.at(cycle)
		p := Component(int(WBBus0) + port)
		if !s.IsDriven(p) {
			c.rec(cycle, p, v, pc, role)
			return
		}
		other := Component(int(WBBus0) + 1 - port)
		if !s.IsDriven(other) {
			c.rec(cycle, other, v, pc, role)
			return
		}
		cycle++
	}
}

// needsPipe1 reports whether the instruction must execute on pipe 1, the
// only pipe equipped with the barrel shifter and the multiplier (§3.2).
func needsPipe1(in isa.Instr) bool {
	return in.UsesShifter() || in.Op.IsMul()
}

// assignPipes selects execution pipes for an issue group. A single
// instruction takes pipe 1 only when it needs the shifter or multiplier;
// in a dual-issued pair whichever instruction needs pipe 1 claims it and
// the partner falls back to pipe 0 (the pairing policy guarantees at most
// one such claimant).
func assignPipes(older isa.Instr, younger *isa.Instr) (pOlder, pYounger int) {
	if younger == nil {
		if needsPipe1(older) {
			return 1, 0
		}
		return 0, 0
	}
	if needsPipe1(older) {
		return 1, 0
	}
	return 0, 1
}

// latencyOf returns issue-to-result latency in cycles.
func (c *Core) latencyOf(in *isa.Instr) int64 {
	switch {
	case in.Op.IsMul():
		return int64(c.cfg.MulLatency)
	case in.Op.IsLoad():
		return int64(c.cfg.LoadLatency)
	case in.UsesShifter():
		return int64(c.cfg.ShiftLatency)
	default:
		return int64(c.cfg.ALULatency)
	}
}

// readyCycle returns the earliest cycle at which every operand of in is
// available, not before lower.
func (c *Core) readyCycle(in *isa.Instr, lower int64) int64 {
	e := lower
	var buf [isa.MaxSrcRegs]isa.Reg
	for _, s := range in.AppendSrcRegs(buf[:0]) {
		if c.ready[s] > e {
			e = c.ready[s]
		}
	}
	if in.Cond != isa.AL && in.Cond != isa.NV && c.flagsReady > e {
		e = c.flagsReady
	}
	return e
}

// Run executes prog to completion and returns the run's Result. The core
// keeps its architectural state afterwards, so callers can inspect
// registers and memory; call ResetState between independent measurements.
// Validation is memoized per program value: mutating a program's
// instructions between runs on the same core is not supported.
func (c *Core) Run(prog *isa.Program) (*Result, error) {
	if prog != c.validated {
		if err := prog.Validate(); err != nil {
			return nil, err
		}
		c.validated = prog
	}
	c.resetHistory()
	c.prov = nil
	c.ready = [isa.NumRegs]int64{}
	c.flagsReady = 0
	c.st.Regs[isa.LR] = HaltTarget

	var cycle int64
	pc := 0
	for pc >= 0 && pc < len(prog.Instrs) {
		if cycle > c.cfg.MaxCycles {
			return nil, fmt.Errorf("pipeline: exceeded %d cycles (runaway program?)", c.cfg.MaxCycles)
		}
		in := prog.Instrs[pc]
		e := c.readyCycle(&in, cycle)
		if c.hier != nil {
			if fp := c.hier.FetchPenalty(pc); fp > 0 {
				e += int64(fp)
			}
		}

		// Dual-issue decision.
		dual := false
		var younger isa.Instr
		if c.cfg.DualIssue && pc+1 < len(prog.Instrs) && (!c.cfg.AlignedPairs || pc%2 == 0) {
			younger = prog.Instrs[pc+1]
			if c.cfg.CanPair(in, younger) && c.readyCycle(&younger, e) == e {
				// A taken branch in slot 0 squashes the younger.
				if !(in.Op.IsBranch() && in.Cond.Passed(c.st.Flags)) {
					dual = true
				}
			}
		}

		var pOlder, pYounger int
		if dual {
			pOlder, pYounger = assignPipes(in, &younger)
		} else {
			pOlder, _ = assignPipes(in, nil)
		}
		stall, taken, target := c.issueOne(&in, pc, e, 0, dual, pOlder)
		next := pc + 1
		if dual {
			s2, t2, tgt2 := c.issueOne(&younger, pc+1, e, 1, true, pYounger)
			if s2 > stall {
				stall = s2
			}
			if t2 {
				taken, target = true, tgt2
			}
			next = pc + 2
		}

		cycle = e + 1 + stall
		if taken {
			cycle += int64(c.cfg.BranchPenalty)
			next = target
		}
		pc = next
	}

	res := &Result{
		Issues:   c.issues,
		Timeline: c.finalizeTimeline(),
		Regs:     c.st.Regs,
		Flags:    c.st.Flags,
		Drives:   c.prov,
	}
	if n := len(c.issues); n > 0 {
		res.Cycles = c.issues[n-1].Cycle + 1 - c.issues[0].Cycle
	}
	return res, nil
}

// issueOne issues a single instruction at cycle e in the given slot. The
// work splits into the schedule half — slot availability, memory stalls,
// result-readiness bookkeeping — and the value half, delegated to the
// instruction's ExecDecoded plan: Exec performs the architectural effects
// and yields the driven values, which place maps onto components by the
// plan's tags. It returns extra stall cycles (memory penalties), whether
// a branch was taken, and the branch target.
func (c *Core) issueOne(in *isa.Instr, pc int, e int64, slot int, dual bool, pipe int) (stall int64, taken bool, target int) {
	passed := in.Cond.Passed(c.st.Flags)
	c.issues = append(c.issues, IssueRecord{PC: pc, Cycle: e, Slot: slot, Dual: dual, Executed: passed})

	lim, rfPort, busPort, nopPorts := c.scheduleLimits(in, e, slot)
	var d ExecDecoded
	d.decode(&c.cfg, in, pc, lim)
	var dv DriveValues
	d.Exec(passed, &c.st, &dv)

	if passed && in.Op.IsMem() && c.hier != nil {
		stall = int64(c.hier.DataPenalty(dv.Addr))
	}
	c.place(in, pc, e, slot, pipe, stall, rfPort, busPort, nopPorts, d.Tags(passed), &dv)
	c.retire(in, e, passed, stall, &dv)
	return stall, dv.Taken, dv.Target
}

// scheduleLimits computes the drive-class capacities available to an
// instruction issuing at cycle e in the given slot: the register-file
// read ports and IS/EX buses left over by an older dual-issued partner,
// and the idle write-back buses a nop's zero drive may claim.
func (c *Core) scheduleLimits(in *isa.Instr, e int64, slot int) (lim Limits, rfPort, busPort int, nopPorts [2]Component) {
	if slot == 1 {
		// The younger instruction's reads use the remaining ports.
		s := c.at(e)
		for rfPort < 3 && s.IsDriven(Component(int(RFRead0)+rfPort)) {
			rfPort++
		}
		ex := c.at(e + 1)
		for busPort < 3 && ex.IsDriven(Component(int(ISBus0)+busPort)) {
			busPort++
		}
	}
	lim.RF = 3 - rfPort
	lim.Bus = 3 - busPort
	if in.Op == isa.NOP && c.cfg.NopZeroesWB {
		// The zero only claims idle ports: a real result retiring in the
		// same cycle keeps its bus.
		s := c.at(e + 2)
		for _, p := range [2]Component{WBBus0, WBBus1} {
			if !s.IsDriven(p) {
				nopPorts[lim.NopWB] = p
				lim.NopWB++
			}
		}
	}
	return lim, rfPort, busPort, nopPorts
}

// place maps an instruction's DriveValues onto components and cycles —
// the schedule half of a drive. The kind of each value's tag selects its
// slot rule; tags and values come from one ExecDecoded plan in one
// canonical order, so the two halves cannot disagree about structure.
func (c *Core) place(in *isa.Instr, pc int, e int64, slot, pipe int, stall int64, rfPort, busPort int, nopPorts [2]Component, tags []DriveTag, dv *DriveValues) {
	wbPort := slot
	nopIdx := 0
	in0 := Component(int(ALUIn00) + 2*pipe)
	for i, tg := range tags {
		v, role := dv.Vals[i], tg.Role()
		switch tg.Kind {
		case DriveRF:
			c.rec(e, Component(int(RFRead0)+rfPort), v, pc, role)
			rfPort++
		case DriveBus:
			// The IS/EX buses drive the execute stage one cycle after the
			// RF read (the operands traverse the IS stage first), which is
			// what separates the RF read-port activity from the bus
			// activity in time.
			c.rec(e+1, Component(int(ISBus0)+busPort), v, pc, role)
			busPort++
		case DriveNopWB:
			c.rec(e+2, nopPorts[nopIdx], v, pc, role)
			nopIdx++
		case DriveAGU:
			c.rec(e, AGU, v, pc, role)
		case DriveMDR:
			c.rec(e+2+stall, MDR, v, pc, role)
		case DriveAlign:
			c.rec(e+3+stall, AlignBuf, v, pc, role)
		case DriveShift:
			c.rec(e+1, ShiftBuf, v, pc, role)
		case DriveALUIn0:
			c.rec(e+1, in0, v, pc, role)
		case DriveALUIn1:
			c.rec(e+1, in0+1, v, pc, role)
		case DriveALUOut:
			c.rec(e+1, Component(int(ALUOut0)+pipe), v, pc, role)
		case DriveWB:
			c.driveWB(e+c.latencyOf(in)+1, wbPort, v, pc, role)
		case DriveWBLoad:
			c.driveWB(e+int64(c.cfg.LoadLatency)+stall+1, wbPort, v, pc, role)
		case DriveWBStore:
			c.driveWB(e+2, wbPort, v, pc, role)
		}
	}
}

// retire updates result-readiness bookkeeping after an issue: the cycle
// each written register becomes forwardable and the flag-ready cycle.
// Pure schedule state — the replay VM skips it entirely.
func (c *Core) retire(in *isa.Instr, e int64, passed bool, stall int64, dv *DriveValues) {
	if !passed {
		return
	}
	switch {
	case in.Op == isa.NOP:
	case in.Op == isa.BL:
		c.ready[isa.LR] = e + int64(c.cfg.ALULatency)
	case in.Op.IsBranch():
	case in.Op.IsMem():
		if in.Op.IsLoad() {
			c.ready[in.Rd] = e + int64(c.cfg.LoadLatency) + stall
		}
		if wb, ok := in.BaseWriteBack(); ok {
			c.ready[wb] = e + int64(c.cfg.ALULatency)
		}
	default:
		if in.Op.HasDest() {
			c.ready[in.Rd] = e + c.latencyOf(in)
		}
		if dv.FlagsSet {
			// The result is forwardable after the unit latency, but flags
			// resolve a conditional successor one cycle after issue.
			c.flagsReady = e + 1
		}
	}
}

// finalizeTimeline forward-fills the run's timeline so that consecutive
// snapshots can be compared directly.
func (c *Core) finalizeTimeline() Timeline {
	FillForward(c.tl)
	return c.tl
}

// FillForward forward-fills undriven components so that consecutive
// snapshots can be compared directly: a component that was not re-driven
// holds its previous value and thus contributes zero Hamming distance.
// The simulator finalizes every timeline with it.
func FillForward(tl Timeline) {
	var prev [NumComponents]uint32
	for i := range tl {
		s := &tl[i]
		for comp := Component(0); comp < NumComponents; comp++ {
			if s.IsDriven(comp) {
				prev[comp] = s.Values[comp]
			} else {
				s.Values[comp] = prev[comp]
			}
		}
	}
}
