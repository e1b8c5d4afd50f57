package pipeline

import "fmt"

// Role names the architectural origin of a value driven onto a tracked
// component.
type Role string

// Value roles.
const (
	// RoleSrc0..RoleSrc2 are source operands in position order.
	RoleSrc0 Role = "src0"
	RoleSrc1 Role = "src1"
	RoleSrc2 Role = "src2"
	// RoleResult is an execution result.
	RoleResult Role = "result"
	// RoleShifted is the barrel shifter output.
	RoleShifted Role = "shifted"
	// RoleLoadData and RoleStoreData are memory transfer values.
	RoleLoadData  Role = "load-data"
	RoleStoreData Role = "store-data"
	// RoleAddress is an effective address.
	RoleAddress Role = "address"
	// RoleZero is the zero a nop (or an annulled conditional) drives.
	RoleZero Role = "zero"
)

// roles numbers every Role with one byte, so that a drive plan
// (DriveTag) stays small enough to build per issue. The operand roles
// come first, in position order.
var roles = [...]Role{RoleSrc0, RoleSrc1, RoleSrc2, RoleResult, RoleShifted, RoleLoadData, RoleStoreData, RoleAddress, RoleZero}

// Indices into roles.
const (
	rSrc0 uint8 = iota
	rSrc1
	rSrc2
	rResult
	rShifted
	rLoadData
	rStoreData
	rAddress
	rZero
)

// srcRole returns the index of the operand role for position i.
func srcRole(i int) uint8 { return uint8(min(i, int(rSrc2))) }

// ValueTag identifies a value by the static instruction that produced or
// consumed it and the role it played there.
type ValueTag struct {
	// PC is the static instruction index; -1 marks the initial state.
	PC int
	// Role is the value's role at that instruction.
	Role Role
}

// String renders the tag as "pc:role".
func (t ValueTag) String() string {
	if t.PC < 0 {
		return "initial"
	}
	return fmt.Sprintf("%d:%s", t.PC, t.Role)
}

// DriveEvent records one value assertion on a tracked component, with its
// architectural provenance. The sequence of DriveEvents per component is
// the raw material of the static leakage model in internal/core: two
// consecutive drives of a component are a potential Hamming-distance
// leakage between the two tagged values.
type DriveEvent struct {
	Cycle int64
	Comp  Component
	Value uint32
	Tag   ValueTag
}

// EnableProvenance turns on drive-event recording for subsequent runs.
func (c *Core) EnableProvenance(on bool) { c.recordProv = on }

// rec drives v on comp at the given cycle, records provenance when
// enabled and notifies the drive observer when one is registered.
func (c *Core) rec(cycle int64, comp Component, v uint32, pc int, role Role) {
	c.at(cycle).drive(comp, v)
	if c.recordProv {
		c.prov = append(c.prov, DriveEvent{Cycle: cycle, Comp: comp, Value: v, Tag: ValueTag{PC: pc, Role: role}})
	}
	if c.obs != nil {
		c.obs(len(c.issues)-1, cycle, comp, v, role)
	}
}
