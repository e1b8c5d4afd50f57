package pipeline

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// This file is the data half of the simulator's schedule/data split: the
// value semantics of one issued instruction, separated from the issue
// logic so that the replay compiler (internal/replay) can re-execute
// only the dataflow of a recorded schedule. DecodeExec derives an
// instruction's decode-static plan once — including the kind and role of
// every drive for either condition outcome — and ExecDecoded.ExecLanes
// runs the per-state residue over a group of lanes. Core.issueOne runs
// it on a one-lane group and places the values by the plan's tags
// against the live timeline; the batch VM runs it once per step across
// all lanes, each drive landing in its compiled slot row; Exec is its
// one-lane call for a bare state. One implementation, one canonical
// drive order.

// ExecState is the architectural machine state instruction value
// semantics read and write: registers, condition flags and data memory.
// Core embeds one; the replay VM mutates the one of the core it is
// handed, so a replayed run leaves the same architectural state behind
// as a simulated one.
type ExecState struct {
	Regs  [isa.NumRegs]uint32
	Flags isa.Flags
	Mem   *mem.Memory
}

// DriveKind classifies one drive of an issued instruction by the slot
// logic that places it. The kinds let the scheduler place an
// instruction's drive values with a single loop, so the placement
// structure cannot drift from the emission structure.
type DriveKind uint8

// Drive kinds, in the vocabulary of the schedule.
const (
	// DriveRF is a register-file read port at the issue cycle.
	DriveRF DriveKind = iota
	// DriveBus is an IS/EX operand bus one cycle after issue.
	DriveBus
	// DriveNopWB is a nop's zero onto an idle write-back bus (e+2).
	DriveNopWB
	// DriveAGU is the address-generation path at the issue cycle.
	DriveAGU
	// DriveMDR is the memory data register at e+2 plus the memory stall.
	DriveMDR
	// DriveAlign is the sub-word align buffer one cycle after the MDR.
	DriveAlign
	// DriveShift is the barrel-shifter buffer at e+1.
	DriveShift
	// DriveALUIn0 and DriveALUIn1 are the executing pipe's input latches
	// at e+1; DriveALUOut its result buffer at e+1.
	DriveALUIn0
	DriveALUIn1
	DriveALUOut
	// DriveWB is a result on a write-back bus at e+latency+1 (also the
	// zero an annulled conditional drives there under NopZeroesWB).
	DriveWB
	// DriveWBLoad is a load result at e+LoadLatency+stall+1.
	DriveWBLoad
	// DriveWBStore is store data crossing the EX/WB datapath at e+2.
	DriveWBStore
)

// MaxDrives is the most values one instruction can drive: three
// register-file reads, three IS/EX bus operands, the shifter buffer,
// two ALU input latches, the ALU output and a write-back.
const MaxDrives = 12

// Limits caps the drive classes whose width depends on schedule state
// the value semantics cannot see: read ports and operand buses already
// claimed by the older instruction of a dual-issued pair, and the idle
// write-back buses available to a nop's zero drive. The simulator
// computes them from the live timeline; the replay VM reads the counts
// the compiler recorded.
type Limits struct {
	RF    int
	Bus   int
	NopWB int
}

// DriveTag is the schedule identity of one drive: the slot rule that
// places it and the role its value plays. Both are fixed by the
// instruction, the Limits and the condition outcome.
type DriveTag struct {
	Kind DriveKind
	role uint8 // index into roles
}

// Role returns the role of the tagged value.
func (t DriveTag) Role() Role { return roles[t.role] }

// DriveValues is the value outcome of one issued instruction, as Exec
// returns it: every value it drives, in the canonical order of its
// plan's tags, plus the facts the scheduler derives from values (the
// effective address, the branch decision).
type DriveValues struct {
	N    int
	Vals [MaxDrives]uint32

	// Addr is the effective address of a memory instruction; with a
	// cache hierarchy attached it determines the stall, the one place
	// where the schedule depends on data.
	Addr uint32
	// Taken and Target report a taken branch.
	Taken  bool
	Target int
	// FlagsSet reports that the instruction updated the flags.
	FlagsSet bool
}

// execClass is the op-class dispatch of ExecLanes.
type execClass uint8

const (
	ecNop execClass = iota
	ecB
	ecBL
	ecBX
	ecMem
	ecMul
	ecDataProc
)

// ExecDecoded is the decode-static plan of one issued instruction under
// fixed Limits: everything its value semantics derive from the
// instruction word and the config, none of what they derive from machine
// state. Build one with DecodeExec; it is immutable afterwards and safe
// for concurrent Exec calls against distinct states.
type ExecDecoded struct {
	cls  execClass
	cond isa.Cond

	// reads[:nSrc] are the register-file read ports, already clipped to
	// lim.RF; reads[nSrc:nSrc+nBus] the IS/EX operand-bus register reads,
	// clipped to lim.Bus. They lead the drive order in that order.
	reads [isa.MaxSrcRegs + 3]isa.Reg
	nSrc  uint8
	nBus  uint8

	// A nop drives nBusZero operand-bus zeros (it reads no registers),
	// then nNopWB write-back zeros.
	nBusZero uint8
	nNopWB   uint8

	// Failed conditional drives a zero on the write-back bus
	// (cfg.NopZeroesWB, and for data processing only with a destination).
	annulZeroWB bool

	// Branches.
	target  int
	linkVal uint32  // BL: the pc+1 link value
	rm      isa.Reg // BX target register

	// Multiply.
	rn, rmul, ra isa.Reg
	mla          bool

	// Data processing.
	op          isa.Op
	usesRn      bool
	op2Imm      bool
	imm         uint32
	shiftKind   isa.ShiftKind
	op2Reg      isa.Reg
	shiftAmt    uint32
	shiftByReg  bool
	shiftReg    isa.Reg
	usesShifter bool
	hasDest     bool
	flagsSet    bool // SetFlags || IsCompare: the flags update fires

	// Memory.
	memBase   isa.Reg
	hasOffReg bool
	offReg    isa.Reg
	offImm    int32
	postIndex bool
	load      bool
	width     uint8
	align     bool // sub-word access with the align buffer modelled
	laneRepl  bool // store lane replication on the memory bus
	baseWB    bool
	baseWBReg isa.Reg

	// Shared destination / transfer register.
	rd isa.Reg

	// tags[o][:nTags[o]] is the drive plan for outcome o (annulled or
	// executed), in Exec's value order. The simulator places by it; the
	// replay compiler checks its schedule's slot counts against it.
	tags  [2][MaxDrives]DriveTag
	nTags [2]uint8
}

// Passed evaluates the instruction's condition against the flags.
func (d *ExecDecoded) Passed(f isa.Flags) bool { return d.cond.Passed(f) }

// Tags returns the kind and role of every drive Exec emits for the given
// condition outcome, in value order.
func (d *ExecDecoded) Tags(passed bool) []DriveTag {
	o := annulled
	if passed {
		o = executed
	}
	return d.tags[o][:d.nTags[o]]
}

// Outcome indices of ExecDecoded.tags.
const (
	annulled = 0
	executed = 1
)

// tag appends a drive to the plan of outcome o.
func (d *ExecDecoded) tag(o int, k DriveKind, r uint8) {
	d.tags[o][d.nTags[o]] = DriveTag{k, r}
	d.nTags[o]++
}

// tagBoth appends a drive both outcomes make.
func (d *ExecDecoded) tagBoth(k DriveKind, r uint8) {
	d.tag(annulled, k, r)
	d.tag(executed, k, r)
}

// DecodeExec builds the decode-static plan of in at pc under lim.
func DecodeExec(cfg *Config, in *isa.Instr, pc int, lim Limits) ExecDecoded {
	var d ExecDecoded
	d.decode(cfg, in, pc, lim)
	return d
}

// decode is DecodeExec into the zero plan d, which the simulator keeps
// on its stack rather than copying per issue.
func (d *ExecDecoded) decode(cfg *Config, in *isa.Instr, pc int, lim Limits) {
	d.cond, d.rd = in.Cond, in.Rd

	// Register-file read ports, in operand-position order.
	var srcBuf [isa.MaxSrcRegs]isa.Reg
	for i, r := range in.AppendSrcRegs(srcBuf[:0]) {
		if i >= lim.RF {
			break
		}
		d.reads[d.nSrc] = r
		d.nSrc++
		d.tagBoth(DriveRF, srcRole(i))
	}

	// IS/EX operand buses: the execute-bound operands ([12], §3.2 —
	// memory addresses travel through the AGU instead, so loads
	// contribute none and stores only their data).
	addBus := func(r isa.Reg) {
		if int(d.nBus) < lim.Bus {
			d.tagBoth(DriveBus, srcRole(int(d.nBus)))
			d.reads[d.nSrc+d.nBus] = r
			d.nBus++
		}
	}
	// A failed conditional drives a zero onto the write-back bus.
	annulZero := func(on bool) {
		d.annulZeroWB = on
		if on {
			d.tag(annulled, DriveWB, rZero)
		}
	}
	switch {
	case in.Op == isa.NOP:
		// Condition-never instruction with zero-valued operands (§4.1);
		// its zero "result" resets idle write-back buses (§4.1's
		// inferred implementation choice behind the † border effects of
		// Table 2).
		d.cls = ecNop
		d.nBusZero = uint8(max(min(lim.Bus, 2), 0))
		d.nNopWB = uint8(max(lim.NopWB, 0))
		for i := 0; i < int(d.nBusZero); i++ {
			d.tagBoth(DriveBus, rZero)
		}
		for i := 0; i < int(d.nNopWB); i++ {
			d.tagBoth(DriveNopWB, rZero)
		}

	case in.Op.IsMul():
		d.cls = ecMul
		addBus(in.Rn)
		addBus(in.Rm)
		if in.Op == isa.MLA {
			addBus(in.Ra)
			d.mla = true
		}
		d.rn, d.rmul, d.ra = in.Rn, in.Rm, in.Ra
		d.flagsSet = in.SetFlags
		annulZero(cfg.NopZeroesWB)
		// The multiplier lives in pipe 1.
		d.tag(executed, DriveALUIn0, rSrc0)
		d.tag(executed, DriveALUIn1, rSrc1)
		d.tag(executed, DriveALUOut, rResult)
		d.tag(executed, DriveWB, rResult)

	case in.Op.IsMem():
		d.cls = ecMem
		if in.Op.IsStore() {
			addBus(in.Rd)
		}
		d.memBase = in.Mem.Base
		d.hasOffReg = in.Mem.HasOffReg
		d.offReg = in.Mem.OffReg
		if in.Mem.OffImm {
			d.offImm = in.Mem.Imm
		}
		d.postIndex = in.Mem.PostIndex
		d.load = in.Op.IsLoad()
		d.width = uint8(in.Op.AccessBytes())
		d.align = d.width < 4 && cfg.AlignBuffer
		d.laneRepl = cfg.StoreLaneReplication
		d.baseWBReg, d.baseWB = in.BaseWriteBack()
		d.tagBoth(DriveAGU, rAddress)
		data, wb := rStoreData, DriveWBStore
		if d.load {
			data, wb = rLoadData, DriveWBLoad
		}
		d.tag(executed, DriveMDR, data)
		if d.align {
			d.tag(executed, DriveAlign, data)
		}
		d.tag(executed, wb, data)

	case in.Op.IsBranch():
		switch in.Op {
		case isa.B:
			d.cls = ecB
		case isa.BL:
			d.cls = ecBL
			d.linkVal = uint32(pc + 1)
		case isa.BX:
			d.cls = ecBX
			d.rm = in.Rm
		}
		d.target = in.Target

	default: // data processing
		d.cls = ecDataProc
		d.op = in.Op
		d.rn = in.Rn
		d.usesRn = in.Op.UsesRn()
		if d.usesRn {
			addBus(in.Rn)
		}
		if !in.Op2.IsImm {
			addBus(in.Op2.Reg)
			if in.Op2.ShiftByReg {
				addBus(in.Op2.ShiftReg)
			}
		}
		d.op2Imm = in.Op2.IsImm
		d.imm = in.Op2.Imm
		d.shiftKind = in.Op2.Shift
		d.op2Reg = in.Op2.Reg
		d.shiftAmt = uint32(in.Op2.ShiftAmt)
		d.shiftByReg = in.Op2.ShiftByReg
		d.shiftReg = in.Op2.ShiftReg
		d.usesShifter = in.UsesShifter()
		d.hasDest = in.Op.HasDest()
		d.flagsSet = in.SetFlags || in.Op.IsCompare()
		annulZero(cfg.NopZeroesWB && d.hasDest)
		if d.usesShifter {
			d.tag(executed, DriveShift, rShifted)
		}
		d.tag(executed, DriveALUIn0, rSrc0)
		if d.usesRn {
			d.tag(executed, DriveALUIn1, rSrc1)
		}
		d.tag(executed, DriveALUOut, rResult)
		if d.hasDest {
			d.tag(executed, DriveWB, rResult)
		}
	}
}

// Exec executes the decoded instruction's value semantics against st: it
// computes every value the instruction drives onto tracked components,
// in the order of Tags(passed), and performs the architectural effects
// (register and memory writes, flag updates). It never touches schedule
// state — issue cycles, ports, stalls and ready times belong to the
// caller — and writes only values. It is ExecLanes on a one-lane group
// whose rows are the entries of dv.Vals; the simulator runs the same
// call on the one-lane group its core keeps.
func (d *ExecDecoded) Exec(passed bool, st *ExecState, dv *DriveValues) {
	sts := [1]*ExecState{st}
	nAnnul, nExec := d.ExecLanes(sts[:], passMask(passed), dv.Vals[:])

	dv.N, dv.Addr, dv.Taken, dv.Target, dv.FlagsSet = nAnnul, 0, false, 0, false
	if passed {
		dv.N = nExec
		if d.branches() {
			dv.Taken, dv.Target = true, d.Target(st)
		}
		dv.FlagsSet = d.flagsSet
	}
	if d.cls == ecMem {
		dv.Addr = d.addr(&dv.Vals)
	}
}

// passMask is the pass mask of a one-lane group.
func passMask(passed bool) uint64 {
	if passed {
		return 1
	}
	return 0
}

// branches reports a branch instruction: when its condition passes, it
// is taken, to Target.
func (d *ExecDecoded) branches() bool { return d.cls >= ecB && d.cls <= ecBX }

// addr returns a memory instruction's effective address from a one-lane
// group's drives: the AGU drive, right after the register reads.
func (d *ExecDecoded) addr(vals *[MaxDrives]uint32) uint32 { return vals[d.nSrc+d.nBus] }

// Target returns where a branch whose condition passed goes, read from
// the lane's state before or after it executed: the decoded target of b
// and bl, the register of bx — beyond the program end for the halt
// sentinel. It is 0 for any other instruction.
func (d *ExecDecoded) Target(st *ExecState) int {
	switch d.cls {
	case ecB, ecBL:
		return d.target
	case ecBX:
		if t := st.Regs[d.rm]; t < HaltTarget {
			return int(t)
		}
		return int(^uint(0) >> 1) // halt: beyond program end
	}
	return 0
}

// PassMask returns the condition outcomes of len(sts) lanes (at most
// 64): bit i is set when the instruction's condition passes
// against sts[i]'s flags.
func (d *ExecDecoded) PassMask(sts []*ExecState) uint64 {
	if d.cond == isa.AL {
		return ^uint64(0) >> (64 - uint(len(sts)))
	}
	var m uint64
	for i, st := range sts {
		if d.cond.Passed(st.Flags) {
			m |= 1 << uint(i)
		}
	}
	return m
}

// ExecLanes is Exec over len(sts) lanes at once (at most 64, with
// distinct states): lane i executes against sts[i], its condition passed
// when bit i of pass is set, and its value of drive j lands in
// vals[j*len(sts)+i] — drive j owns the j-th row of len(sts) values.
// The decode dispatch and every row selection happen once per call;
// only each class's lane loop runs per lane, so a batch of executions
// sharing one schedule pays for them once.
//
// vals must hold a row for every drive index below the larger of
// len(Tags(false)) and len(Tags(true)). A lane writes exactly the rows
// of its own outcome's drives, [0, len(Tags(outcome))); since the two
// outcomes share their head, a failed lane's annulled write-back zero
// lands in the row of the executed outcome's first tail drive. Where a
// passing branch goes is Target's. ExecLanes returns the drive counts it
// emitted for an annulled and for an executed lane.
func (d *ExecDecoded) ExecLanes(sts []*ExecState, pass uint64, vals []uint32) (nAnnul, nExec int) {
	lanes := len(sts)
	n := int(d.nSrc) + int(d.nBus)
	for k, r := range d.reads[:n] {
		o := k * lanes
		for i, st := range sts {
			vals[o+i] = st.Regs[r]
		}
	}

	switch d.cls {
	case ecNop:
		// Zeros on the operand buses, then on the idle write-back buses.
		z := int(d.nBusZero) + int(d.nNopWB)
		clear(vals[n*lanes : (n+z)*lanes])
		return n + z, n + z

	case ecBL:
		for i, st := range sts {
			if pass&(1<<uint(i)) != 0 {
				st.Regs[isa.LR] = d.linkVal
			}
		}
		return n, n

	case ecMem:
		return d.memLanes(sts, pass, vals, n)
	case ecMul:
		return d.mulLanes(sts, pass, vals, n)
	case ecDataProc:
		return d.dataProcLanes(sts, pass, vals, n)
	}
	return n, n // b and bx: the operand reads alone
}

// memLanes is ExecLanes' lane loop for loads and stores, whose drives
// from row n are the address, then for an executed lane the memory data
// register, the align buffer (when modelled) and the write-back.
func (d *ExecDecoded) memLanes(sts []*ExecState, pass uint64, vals []uint32, n int) (nAnnul, nExec int) {
	lanes := len(sts)
	agu, mdr := n*lanes, (n+1)*lanes
	k := n + 2
	align := 0
	if d.align {
		align = k * lanes
		k++
	}
	wb := k * lanes
	for i, st := range sts {
		base := st.Regs[d.memBase]
		off := d.offImm
		if d.hasOffReg {
			off = int32(st.Regs[d.offReg])
		}
		addr := base
		if !d.postIndex {
			addr = uint32(int64(base) + int64(off))
		}
		vals[agu+i] = addr
		if pass&(1<<uint(i)) == 0 {
			continue
		}
		if d.load {
			word := st.Mem.Read32(addr)
			var val uint32
			switch d.width {
			case 4:
				val = word
			case 2:
				val = uint32(st.Mem.Read16(addr))
			case 1:
				val = uint32(st.Mem.Read8(addr))
			}
			vals[mdr+i] = word // the cache returns the full word
			if d.align {
				vals[align+i] = val
			}
			st.Regs[d.rd] = val
			vals[wb+i] = val
		} else {
			data := st.Regs[d.rd]
			var busWord uint32
			switch d.width {
			case 4:
				busWord = data
				st.Mem.Write32(addr, data)
			case 2:
				h := data & 0xFFFF
				busWord = h
				if d.laneRepl {
					busWord = h | h<<16
				}
				st.Mem.Write16(addr, uint16(h))
			case 1:
				b := data & 0xFF
				busWord = b
				if d.laneRepl {
					busWord = b | b<<8 | b<<16 | b<<24
				}
				st.Mem.Write8(addr, uint8(b))
			}
			vals[mdr+i] = busWord
			if d.align {
				vals[align+i] = data & ((1 << (8 * uint(d.width))) - 1)
			}
			// Store data traverses the EX/WB datapath on its way out.
			vals[wb+i] = data
		}
		if d.baseWB {
			st.Regs[d.baseWBReg] = uint32(int64(base) + int64(off))
		}
	}
	return n + 1, k + 1
}

// mulLanes is ExecLanes' lane loop for multiplies, whose tail drives
// from row n are, for an executed lane, the ALU input latches, the
// result buffer and the write-back, and for an annulled one the
// write-back zero when it drives one.
func (d *ExecDecoded) mulLanes(sts []*ExecState, pass uint64, vals []uint32, n int) (nAnnul, nExec int) {
	lanes := len(sts)
	nAnnul = n
	if d.annulZeroWB {
		nAnnul++
	}
	in0, in1, out, wb := n*lanes, (n+1)*lanes, (n+2)*lanes, (n+3)*lanes
	for i, st := range sts {
		if pass&(1<<uint(i)) == 0 {
			if d.annulZeroWB {
				vals[in0+i] = 0 // the annulled write-back zero
			}
			continue
		}
		a, b := st.Regs[d.rn], st.Regs[d.rmul]
		v := a * b
		if d.mla {
			v += st.Regs[d.ra]
		}
		vals[in0+i], vals[in1+i], vals[out+i] = a, b, v
		st.Regs[d.rd] = v
		vals[wb+i] = v
		if d.flagsSet {
			st.Flags.N = v&(1<<31) != 0
			st.Flags.Z = v == 0
		}
	}
	return nAnnul, n + 4
}

// dataProcLanes is ExecLanes' lane loop for data processing, whose tail
// drives from row n are, for an executed lane, the shifter buffer (when
// used), the ALU input latches, the result buffer and the write-back
// (when the operation has a destination), and for an annulled one the
// write-back zero when it drives one.
func (d *ExecDecoded) dataProcLanes(sts []*ExecState, pass uint64, vals []uint32, n int) (nAnnul, nExec int) {
	lanes := len(sts)
	nAnnul = n
	if d.annulZeroWB {
		nAnnul++
	}
	k := n
	shift, in1, wb := 0, 0, 0
	if d.usesShifter {
		shift = k * lanes
		k++
	}
	in0 := k * lanes
	k++
	if d.usesRn {
		in1 = k * lanes
		k++
	}
	out := k * lanes
	k++
	if d.hasDest {
		wb = k * lanes
		k++
	}
	annul := n * lanes
	for i, st := range sts {
		if pass&(1<<uint(i)) == 0 {
			if d.annulZeroWB {
				vals[annul+i] = 0 // the annulled write-back zero
			}
			continue
		}
		a := uint32(0)
		if d.usesRn {
			a = st.Regs[d.rn]
		}
		var sh isa.ShiftResult
		if d.op2Imm {
			sh = isa.ShiftResult{Value: d.imm, CarryOut: st.Flags.C}
		} else {
			amt := d.shiftAmt
			if d.shiftByReg {
				amt = st.Regs[d.shiftReg] & 0xFF
			}
			sh = isa.EvalShift(d.shiftKind, st.Regs[d.op2Reg], amt, st.Flags.C)
		}
		r := isa.EvalDataProc(d.op, a, sh.Value, sh.CarryOut, st.Flags)
		if d.usesShifter {
			vals[shift+i] = sh.Value
		}
		if d.usesRn {
			vals[in0+i], vals[in1+i] = a, sh.Value
		} else {
			vals[in0+i] = sh.Value
		}
		vals[out+i] = r.Value
		if d.hasDest {
			st.Regs[d.rd] = r.Value
			vals[wb+i] = r.Value
		}
		if d.flagsSet {
			st.Flags = r.Flags
		}
	}
	return nAnnul, k
}
