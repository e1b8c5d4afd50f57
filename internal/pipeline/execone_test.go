package pipeline

// The one-lane form of instruction execution the exec tests pin the
// value semantics through: ExecLanes on a group of one bare state, its
// drives gathered with the facts the scheduler derives from them.

// DriveValues is the value outcome of one issued instruction, as Exec
// returns it: every value it drives, in the canonical order of its
// plan's tags, plus the effective address, the branch decision and
// whether the flags were updated.
type DriveValues struct {
	N    int
	Vals [MaxDrives]uint32

	Addr     uint32
	Taken    bool
	Target   int
	FlagsSet bool
}

// Exec is ExecLanes on a one-lane group whose rows are the entries of
// dv.Vals: it executes the decoded instruction against st and reports
// what it drove.
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
