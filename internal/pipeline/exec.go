package pipeline

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// This file is the data half of the simulator's schedule/data split: the
// value semantics of one issued instruction, separated from the issue
// logic so that the replay compiler (internal/replay) can re-execute
// only the dataflow of a recorded schedule. Core.issueOne pairs
// ExecValues with live slot selection; the replay VM runs its
// decode-hoisted form (ExecDecoded) against a compiled slot list. Both
// observe the same canonical drive order.

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
// logic that places it. The kinds let the scheduler place a DriveValues
// sequence with a single loop, so the placement structure cannot drift
// from the emission structure.
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

// DriveValues is the value outcome of one issued instruction: every
// value it drives, in the canonical order shared by the scheduler and
// the replay VM, plus the facts the scheduler derives from values (the
// effective address, the branch decision).
type DriveValues struct {
	N     int
	Vals  [MaxDrives]uint32
	Roles [MaxDrives]Role
	Kinds [MaxDrives]DriveKind

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

func (dv *DriveValues) push(v uint32, role Role, kind DriveKind) {
	dv.Vals[dv.N] = v
	dv.Roles[dv.N] = role
	dv.Kinds[dv.N] = kind
	dv.N++
}

// ExecValues executes in's value semantics against st: it computes every
// value the instruction drives onto tracked components, in canonical
// drive order, and performs the architectural effects (register and
// memory writes, flag updates). It never touches schedule state — issue
// cycles, ports, stalls and ready times belong to the caller.
func ExecValues(cfg *Config, in *isa.Instr, pc int, passed bool, lim Limits, st *ExecState, dv *DriveValues) {
	dv.N = 0
	dv.Addr = 0
	dv.Taken = false
	dv.Target = 0
	dv.FlagsSet = false

	// Register-file read ports, in operand-position order.
	var srcBuf [isa.MaxSrcRegs]isa.Reg
	for i, r := range in.AppendSrcRegs(srcBuf[:0]) {
		if i >= lim.RF {
			break
		}
		dv.push(st.Regs[r], srcRole(i), DriveRF)
	}

	// IS/EX operand buses: the execute-bound operands ([12], §3.2 —
	// memory addresses travel through the AGU instead, so loads
	// contribute none and stores only their data).
	nBus := 0
	bus := func(v uint32, role Role) {
		if nBus < lim.Bus {
			dv.push(v, role, DriveBus)
			nBus++
		}
	}
	switch {
	case in.Op == isa.NOP:
		// Condition-never instruction with zero-valued operands (§4.1).
		bus(0, RoleZero)
		bus(0, RoleZero)
	case in.Op.IsMul():
		bus(st.Regs[in.Rn], RoleSrc0)
		bus(st.Regs[in.Rm], RoleSrc1)
		if in.Op == isa.MLA {
			bus(st.Regs[in.Ra], RoleSrc2)
		}
	case in.Op.IsStore():
		bus(st.Regs[in.Rd], RoleSrc0)
	case in.Op.IsLoad(), in.Op.IsBranch():
	case in.Op.IsDataProc():
		i := 0
		if in.Op.UsesRn() {
			bus(st.Regs[in.Rn], srcRole(i))
			i++
		}
		if !in.Op2.IsImm {
			bus(st.Regs[in.Op2.Reg], srcRole(i))
			i++
			if in.Op2.ShiftByReg {
				bus(st.Regs[in.Op2.ShiftReg], srcRole(i))
			}
		}
	}

	switch {
	case in.Op == isa.NOP:
		// The nop's zero-valued "result" resets idle write-back buses
		// (§4.1's inferred implementation choice behind the † border
		// effects of Table 2).
		for j := 0; j < lim.NopWB; j++ {
			dv.push(0, RoleZero, DriveNopWB)
		}

	case in.Op.IsBranch():
		if !passed {
			return
		}
		switch in.Op {
		case isa.B:
			dv.Taken, dv.Target = true, in.Target
		case isa.BL:
			st.Regs[isa.LR] = uint32(pc + 1)
			dv.Taken, dv.Target = true, in.Target
		case isa.BX:
			t := st.Regs[in.Rm]
			dv.Taken = true
			if t >= HaltTarget {
				dv.Target = int(^uint(0) >> 1) // halt: beyond program end
			} else {
				dv.Target = int(t)
			}
		}

	case in.Op.IsMem():
		execMem(cfg, in, passed, st, dv)

	case in.Op.IsMul():
		if !passed {
			if cfg.NopZeroesWB {
				dv.push(0, RoleZero, DriveWB)
			}
			return
		}
		a, b := st.Regs[in.Rn], st.Regs[in.Rm]
		v := a * b
		if in.Op == isa.MLA {
			v += st.Regs[in.Ra]
		}
		dv.push(a, RoleSrc0, DriveALUIn0) // multiplier lives in pipe 1
		dv.push(b, RoleSrc1, DriveALUIn1)
		dv.push(v, RoleResult, DriveALUOut)
		st.Regs[in.Rd] = v
		dv.push(v, RoleResult, DriveWB)
		if in.SetFlags {
			st.Flags.N = v&(1<<31) != 0
			st.Flags.Z = v == 0
			dv.FlagsSet = true
		}

	default: // data processing
		a := uint32(0)
		if in.Op.UsesRn() {
			a = st.Regs[in.Rn]
		}
		var sh isa.ShiftResult
		if in.Op2.IsImm {
			sh = isa.ShiftResult{Value: in.Op2.Imm, CarryOut: st.Flags.C}
		} else {
			amt := uint32(in.Op2.ShiftAmt)
			if in.Op2.ShiftByReg {
				amt = st.Regs[in.Op2.ShiftReg] & 0xFF
			}
			sh = isa.EvalShift(in.Op2.Shift, st.Regs[in.Op2.Reg], amt, st.Flags.C)
		}
		if !passed {
			if cfg.NopZeroesWB && in.Op.HasDest() {
				dv.push(0, RoleZero, DriveWB)
			}
			return
		}
		r := isa.EvalDataProc(in.Op, a, sh.Value, sh.CarryOut, st.Flags)
		if in.UsesShifter() {
			dv.push(sh.Value, RoleShifted, DriveShift)
		}
		if in.Op.UsesRn() {
			dv.push(a, RoleSrc0, DriveALUIn0)
			dv.push(sh.Value, RoleSrc1, DriveALUIn1)
		} else {
			dv.push(sh.Value, RoleSrc0, DriveALUIn0)
		}
		dv.push(r.Value, RoleResult, DriveALUOut)
		if in.Op.HasDest() {
			st.Regs[in.Rd] = r.Value
			dv.push(r.Value, RoleResult, DriveWB)
		}
		if in.SetFlags || in.Op.IsCompare() {
			st.Flags = r.Flags
			dv.FlagsSet = true
		}
	}
}

// execMem is the value semantics of a load or store: address generation,
// the memory transfer with its MDR and align-buffer values, and the
// architectural memory effect.
func execMem(cfg *Config, in *isa.Instr, passed bool, st *ExecState, dv *DriveValues) {
	base := st.Regs[in.Mem.Base]
	off := int32(0)
	if in.Mem.HasOffReg {
		off = int32(st.Regs[in.Mem.OffReg])
	} else if in.Mem.OffImm {
		off = in.Mem.Imm
	}
	addr := base
	if !in.Mem.PostIndex {
		addr = uint32(int64(base) + int64(off))
	}
	dv.Addr = addr
	dv.push(addr, RoleAddress, DriveAGU)
	if !passed {
		return
	}

	width := in.Op.AccessBytes()
	if in.Op.IsLoad() {
		word := st.Mem.Read32(addr)
		var val uint32
		switch width {
		case 4:
			val = word
		case 2:
			val = uint32(st.Mem.Read16(addr))
		case 1:
			val = uint32(st.Mem.Read8(addr))
		}
		dv.push(word, RoleLoadData, DriveMDR) // the cache returns the full word
		if width < 4 && cfg.AlignBuffer {
			dv.push(val, RoleLoadData, DriveAlign)
		}
		st.Regs[in.Rd] = val
		dv.push(val, RoleLoadData, DriveWBLoad)
	} else {
		data := st.Regs[in.Rd]
		var busWord uint32
		switch width {
		case 4:
			busWord = data
			st.Mem.Write32(addr, data)
		case 2:
			h := data & 0xFFFF
			busWord = h
			if cfg.StoreLaneReplication {
				busWord = h | h<<16
			}
			st.Mem.Write16(addr, uint16(h))
		case 1:
			b := data & 0xFF
			busWord = b
			if cfg.StoreLaneReplication {
				busWord = b | b<<8 | b<<16 | b<<24
			}
			st.Mem.Write8(addr, uint8(b))
		}
		dv.push(busWord, RoleStoreData, DriveMDR)
		if width < 4 && cfg.AlignBuffer {
			dv.push(data&((1<<(8*width))-1), RoleStoreData, DriveAlign)
		}
		// Store data traverses the EX/WB datapath on its way out.
		dv.push(data, RoleStoreData, DriveWBStore)
	}

	if wb, ok := in.BaseWriteBack(); ok {
		st.Regs[wb] = uint32(int64(base) + int64(off))
	}
}
