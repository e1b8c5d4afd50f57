package pipeline_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

// randInstr draws one structurally valid instruction spanning every op
// class and operand form DecodeExec dispatches on.
func randInstr(rng *rand.Rand) isa.Instr {
	reg := func() isa.Reg { return isa.Reg(rng.Intn(13)) } // r0..r12
	in := isa.Instr{
		Cond: isa.Cond(rng.Intn(15)), // all conditions except the count
		Rd:   reg(), Rn: reg(), Rm: reg(), Ra: reg(),
	}
	switch rng.Intn(10) {
	case 0:
		return isa.Nop()
	case 1:
		in.Op = isa.MUL
		in.SetFlags = rng.Intn(2) == 0
	case 2:
		in.Op = isa.MLA
	case 3:
		in.Op = []isa.Op{isa.LDR, isa.LDRH, isa.LDRB}[rng.Intn(3)]
	case 4:
		in.Op = []isa.Op{isa.STR, isa.STRH, isa.STRB}[rng.Intn(3)]
	case 5:
		in.Op = []isa.Op{isa.B, isa.BL, isa.BX}[rng.Intn(3)]
		in.Target = rng.Intn(64)
		if in.Op == isa.BX && rng.Intn(3) == 0 {
			// Exercise the halt-target path.
			in.Rm = isa.LR
		}
	case 6:
		in.Op = []isa.Op{isa.CMP, isa.CMN, isa.TST, isa.TEQ}[rng.Intn(4)]
	default:
		in.Op = []isa.Op{
			isa.MOV, isa.MVN, isa.AND, isa.ORR, isa.EOR, isa.BIC,
			isa.ADD, isa.ADC, isa.SUB, isa.SBC, isa.RSB,
		}[rng.Intn(11)]
		in.SetFlags = rng.Intn(2) == 0
	}
	if in.Op.IsMem() {
		switch rng.Intn(4) {
		case 0:
			in.Mem = isa.MemImm(reg(), int32(rng.Intn(64)-16))
		case 1:
			in.Mem = isa.MemReg(reg(), reg())
		case 2:
			in.Mem = isa.MemImm(reg(), int32(rng.Intn(32)))
			in.Mem.WriteBack = true
		default:
			in.Mem = isa.MemImm(reg(), int32(rng.Intn(32)))
			in.Mem.PostIndex = true
		}
	}
	if in.Op.IsDataProc() && in.Op != isa.NOP {
		switch rng.Intn(4) {
		case 0:
			in.Op2 = isa.Imm(rng.Uint32())
		case 1:
			in.Op2 = isa.RegOp(reg())
		case 2:
			k := []isa.ShiftKind{isa.ShiftLSL, isa.ShiftLSR, isa.ShiftASR, isa.ShiftROR}[rng.Intn(4)]
			in.Op2 = isa.ShiftedReg(reg(), k, uint8(rng.Intn(33)))
		default:
			k := []isa.ShiftKind{isa.ShiftLSL, isa.ShiftLSR, isa.ShiftASR, isa.ShiftROR}[rng.Intn(4)]
			in.Op2 = isa.RegShiftedReg(reg(), k, reg())
		}
	}
	return in
}

// randState draws a machine state for in: random registers and flags,
// and random data under the likely effective addresses so loads see data.
func randState(rng *rand.Rand, in *isa.Instr) pipeline.ExecState {
	st := pipeline.ExecState{Mem: mem.NewMemory()}
	for r := range st.Regs {
		st.Regs[r] = rng.Uint32()
	}
	if in.Op == isa.BX && in.Rm == isa.LR {
		st.Regs[isa.LR] = pipeline.HaltTarget
	}
	st.Flags = isa.Flags{
		N: rng.Intn(2) == 0, Z: rng.Intn(2) == 0,
		C: rng.Intn(2) == 0, V: rng.Intn(2) == 0,
	}
	for a := uint32(0); a < 0x200; a += 4 {
		st.Mem.Write32(a, rng.Uint32())
	}
	return st
}

// execGolden is the SHA-256 TestExecGolden computes. It was recorded
// from ExecValues, the simulator's own value semantics before they were
// merged into ExecDecoded, so it pins the one remaining implementation
// to the former simulator bit for bit.
const execGolden = "da1f45f5170be7673b90ac813664828366740c662e32b1d212b1eebbc4728768"

// TestExecGolden hashes the complete outcome of DecodeExec+Exec over
// random instructions, both configs of the value-semantics toggles,
// random Limits and both condition outcomes: the drive count, every
// value with its tag's kind and role, Addr/Taken/Target/FlagsSet, and
// the registers, flags and touched memory left behind.
func TestExecGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cfgs := []pipeline.Config{pipeline.DefaultConfig()}
	alt := pipeline.DefaultConfig()
	alt.NopZeroesWB = !alt.NopZeroesWB
	alt.AlignBuffer = !alt.AlignBuffer
	alt.StoreLaneReplication = !alt.StoreLaneReplication
	cfgs = append(cfgs, alt)

	h := sha256.New()
	var b []byte
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	flag := func(f bool) {
		if f {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	for trial := 0; trial < 20000; trial++ {
		cfg := cfgs[trial%len(cfgs)]
		in := randInstr(rng)
		pc := rng.Intn(64)
		lim := pipeline.Limits{RF: rng.Intn(4), Bus: rng.Intn(4), NopWB: rng.Intn(3)}
		base := randState(rng, &in)
		d := pipeline.DecodeExec(&cfg, &in, pc, lim)
		if d.Passed(base.Flags) != in.Cond.Passed(base.Flags) {
			t.Fatalf("trial %d (%s): decoded condition disagrees", trial, &in)
		}

		for _, passed := range [2]bool{false, true} {
			st := base
			st.Mem = base.Mem.Clone()
			var dv pipeline.DriveValues
			d.Exec(passed, &st, &dv)
			tags := d.Tags(passed)
			if len(tags) != dv.N {
				t.Fatalf("trial %d (%s, passed %v): %d tags for %d values", trial, &in, passed, len(tags), dv.N)
			}

			b = b[:0]
			u32(uint32(dv.N))
			for i, tg := range tags {
				u32(dv.Vals[i])
				b = append(b, byte(tg.Kind))
				b = append(b, tg.Role()...)
				b = append(b, 0)
			}
			u32(dv.Addr)
			flag(dv.Taken)
			u32(uint32(dv.Target))
			flag(dv.FlagsSet)
			for _, r := range st.Regs {
				u32(r)
			}
			flag(st.Flags.N)
			flag(st.Flags.Z)
			flag(st.Flags.C)
			flag(st.Flags.V)
			for a := uint32(0); a < 0x240; a++ {
				b = append(b, st.Mem.Read8(a))
			}
			// Stores land wherever the random base pointed.
			for off := uint32(0); off < 8; off++ {
				b = append(b, st.Mem.Read8(dv.Addr+off))
			}
			h.Write(b)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != execGolden {
		t.Fatalf("execution digest %s, want %s", got, execGolden)
	}
}

// FuzzExecPlan checks the structural invariant a plan's tags and Exec's
// values share: for any instruction, config, limits within the core's
// port counts and state, and for either condition outcome, Exec emits
// exactly one value per tag and never more than MaxDrives.
func FuzzExecPlan(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(3), uint8(3), uint8(2))
	}
	f.Fuzz(func(t *testing.T, seed int64, cfgBits, rf, bus, nopWB uint8) {
		rng := rand.New(rand.NewSource(seed))
		in := randInstr(rng)
		cfg := pipeline.DefaultConfig()
		cfg.NopZeroesWB = cfgBits&1 != 0
		cfg.AlignBuffer = cfgBits&2 != 0
		cfg.StoreLaneReplication = cfgBits&4 != 0
		lim := pipeline.Limits{RF: int(rf % 4), Bus: int(bus % 4), NopWB: int(nopWB % 3)}
		d := pipeline.DecodeExec(&cfg, &in, rng.Intn(64), lim)
		base := randState(rng, &in)
		for _, passed := range [2]bool{false, true} {
			st := base
			st.Mem = base.Mem.Clone()
			var dv pipeline.DriveValues
			d.Exec(passed, &st, &dv)
			if n := len(d.Tags(passed)); n != dv.N || dv.N > pipeline.MaxDrives {
				t.Fatalf("%s (%+v, passed %v): %d tags for %d values (max %d)", &in, lim, passed, n, dv.N, pipeline.MaxDrives)
			}
		}
	})
}

// FuzzExecLanes checks the lane form against its one-lane calls: for any
// instruction, config, limits, 1..64 lane states and pass mask, PassMask
// must agree with each lane's condition, and one ExecLanes call over
// every lane must leave each lane exactly as an Exec call on that lane
// alone does — the same values in its column of every row its outcome
// drives and nothing in the other rows, the same drive counts and branch
// target, and the same registers, flags and touched memory.
func FuzzExecLanes(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(3), uint8(3), uint8(2), uint8(8*seed+1), uint64(0x5555_5555_5555_5555))
	}
	f.Add(int64(8), uint8(7), uint8(1), uint8(2), uint8(1), uint8(64), ^uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, cfgBits, rf, bus, nopWB, lanes uint8, pass uint64) {
		rng := rand.New(rand.NewSource(seed))
		in := randInstr(rng)
		cfg := pipeline.DefaultConfig()
		cfg.NopZeroesWB = cfgBits&1 != 0
		cfg.AlignBuffer = cfgBits&2 != 0
		cfg.StoreLaneReplication = cfgBits&4 != 0
		lim := pipeline.Limits{RF: int(rf % 4), Bus: int(bus % 4), NopWB: int(nopWB % 3)}
		d := pipeline.DecodeExec(&cfg, &in, rng.Intn(64), lim)
		n := 1 + int(lanes)%64
		pass &= ^uint64(0) >> (64 - n)

		base := make([]pipeline.ExecState, n)
		sts := make([]*pipeline.ExecState, n)
		for i := range base {
			base[i] = randState(rng, &in)
			st := base[i]
			st.Mem = base[i].Mem.Clone()
			sts[i] = &st
		}
		mask := d.PassMask(sts)
		for i, st := range sts {
			if mask&(1<<i) != 0 != d.Passed(st.Flags) || mask>>n != 0 {
				t.Fatalf("%s: pass mask %#x disagrees with lane %d's condition", &in, mask, i)
			}
		}

		// Every row has room for the most drives, so a write through a
		// wrong row or lane lands on a checked value.
		const unwritten = 0xDEADBEEF
		vals := make([]uint32, pipeline.MaxDrives*n)
		for k := range vals {
			vals[k] = unwritten
		}
		nAnnul, nExec := d.ExecLanes(sts, pass, vals)

		for i := range base {
			passed := pass&(1<<i) != 0
			one := base[i]
			var dv pipeline.DriveValues
			d.Exec(passed, &one, &dv)
			ctx := func() string {
				return fmt.Sprintf("%s (%+v, %d lanes, lane %d passed %v)", &in, lim, n, i, passed)
			}
			if want := map[bool]int{false: nAnnul, true: nExec}[passed]; dv.N != want {
				t.Fatalf("%s: one-lane call drives %d values, the lane form %d", ctx(), dv.N, want)
			}
			for j := range pipeline.MaxDrives {
				want := uint32(unwritten)
				if j < dv.N {
					want = dv.Vals[j]
				}
				if got := vals[j*n+i]; got != want {
					t.Fatalf("%s: drive %d is %#x in the lane form, want %#x", ctx(), j, got, want)
				}
			}
			if dv.Taken {
				if got := d.Target(sts[i]); got != dv.Target {
					t.Fatalf("%s: branch target %d after the lane form, %d alone", ctx(), got, dv.Target)
				}
			}
			got := sts[i]
			if got.Regs != one.Regs || got.Flags != one.Flags {
				t.Fatalf("%s: registers or flags differ from the one-lane call", ctx())
			}
			for a := uint32(0); a < 0x240; a++ {
				if got.Mem.Read8(a) != one.Mem.Read8(a) {
					t.Fatalf("%s: memory at %#x differs from the one-lane call", ctx(), a)
				}
			}
			for off := uint32(0); off < 8; off++ {
				if a := dv.Addr + off; got.Mem.Read8(a) != one.Mem.Read8(a) {
					t.Fatalf("%s: memory at %#x differs from the one-lane call", ctx(), a)
				}
			}
		}
	})
}
