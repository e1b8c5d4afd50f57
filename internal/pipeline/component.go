// Package pipeline implements the micro-architectural model of the ARM
// Cortex-A7 MPCore deduced in §3 of the paper: an in-order, partial
// dual-issue core with an 8-stage pipeline, two asymmetric ALUs (only one
// carries the barrel shifter and the multiplier), a fully pipelined
// load/store unit, three register-file read ports and two write ports.
//
// Beyond timing (CPI), the simulator tracks the values asserted on every
// leakage-relevant storage element each cycle — the IS/EX operand buses,
// the per-ALU input latches, the ALU and shifter output buffers, the
// EX/WB write-back buses, the memory data register (MDR) and the LSU
// sub-word align buffer — so that the power model can synthesize traces
// whose Hamming-distance transitions reproduce the leakage behaviours of
// the paper's Table 2.
package pipeline

import "fmt"

// Component identifies one leakage-relevant micro-architectural storage
// element whose per-cycle value the simulator tracks.
type Component uint8

// The tracked components. Names follow the paper's Table 2 columns.
const (
	// ISBus0..ISBus2 are the three RF→EX operand buses (§3.2 point iii).
	// Bus positions are assigned per issue group in operand order, so the
	// same-position operands of successively single-issued instructions
	// share a bus — the IS/EX leakage of §4.1. Nops drive zeros.
	ISBus0 Component = iota
	ISBus1
	ISBus2

	// ALUIn00..ALUIn11 are the operand input latches of the two ALU
	// pipes (pipe, position). They update only when an instruction
	// actually executes on the pipe; a condition-never nop does not,
	// which is how interleaved movs still combine their operands (§4.1).
	ALUIn00
	ALUIn01
	ALUIn10
	ALUIn11

	// ALUOut0 and ALUOut1 are the ALU result buffers. Per §4.1 the ALUs
	// assert results on zero-precharged signals, so they leak the
	// Hamming weight of the result on every execution.
	ALUOut0
	ALUOut1

	// ShiftBuf stores the barrel shifter output before it feeds the ALU.
	// It leaks the Hamming weight of the shifted value at roughly one
	// tenth of the other leakages' magnitude (§4.1).
	ShiftBuf

	// WBBus0 and WBBus1 are the EX/WB write-back buses feeding the two
	// RF write ports. Successively single-issued results share WBBus0;
	// a dual-issued younger instruction uses WBBus1. Nops reset WBBus0
	// to zero (§4.1's border effect, the † entries of Table 2).
	WBBus0
	WBBus1

	// MDR is the memory data register: the full 32-bit word moved
	// between the LSU and the data cache, for loads and stores alike.
	// Sub-word stores replicate the datum across byte lanes (the ARM
	// data-bus behaviour), which is why byte stores leak the HD between
	// consecutive byte values (§4.1, Figure 4's model).
	MDR

	// AlignBuf is the LSU-internal buffer where sub-word values are
	// extracted on byte/halfword accesses. It is untouched by full-word
	// accesses, so two ldrb results combine even across interleaved ldr
	// instructions (Table 2, row 7).
	AlignBuf

	// RFRead0..RFRead2 are the register-file read ports. The paper found
	// no statistically significant leakage on them (short capacitive
	// load); they are tracked so the null result can be reproduced.
	RFRead0
	RFRead1
	RFRead2

	// AGU is the address-generation path in the Issue stage ([12]; §3.2).
	// Base/offset values flow here rather than on the IS/EX buses.
	AGU

	// NumComponents is the size of a Snapshot's component vector.
	NumComponents
)

var componentNames = [NumComponents]string{
	ISBus0: "is_ex_bus0", ISBus1: "is_ex_bus1", ISBus2: "is_ex_bus2",
	ALUIn00: "alu0_in0", ALUIn01: "alu0_in1", ALUIn10: "alu1_in0", ALUIn11: "alu1_in1",
	ALUOut0: "alu0_out", ALUOut1: "alu1_out",
	ShiftBuf: "shift_buf",
	WBBus0:   "ex_wb_bus0", WBBus1: "ex_wb_bus1",
	MDR: "mdr", AlignBuf: "align_buf",
	RFRead0: "rf_read0", RFRead1: "rf_read1", RFRead2: "rf_read2",
	AGU: "agu",
}

// String returns the component's short name.
func (c Component) String() string {
	if c < NumComponents {
		return componentNames[c]
	}
	return fmt.Sprintf("component(%d)", uint8(c))
}

// Snapshot is the value of every tracked component at the end of one
// clock cycle, plus an activity mask recording which components were
// driven during the cycle (components not driven hold their value, so
// their Hamming-distance contribution is zero).
type Snapshot struct {
	// Values holds the asserted value per component.
	Values [NumComponents]uint32
	// Driven marks components driven this cycle (bit i = Component(i)).
	Driven uint32
}

// IsDriven reports whether c was driven in this cycle.
func (s *Snapshot) IsDriven(c Component) bool { return s.Driven&(1<<c) != 0 }

// drive asserts v on c.
func (s *Snapshot) drive(c Component, v uint32) {
	s.Values[c] = v
	s.Driven |= 1 << c
}

// Timeline is the per-cycle component history of one program execution.
// Index 0 is the first cycle in which an instruction issued.
type Timeline []Snapshot
