package aes

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/target"
)

// FIPS-197 Appendix C.1 test vector.
var (
	fipsKey = [16]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x0F}
	fipsPT  = [16]byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF}
	fipsCT  = [16]byte{0x69, 0xC4, 0xE0, 0xD8, 0x6A, 0x7B, 0x04, 0x30, 0xD8, 0xCD, 0xB7, 0x80, 0x70, 0xB4, 0xC5, 0x5A}
)

func TestSboxProperties(t *testing.T) {
	if Sbox[0x00] != 0x63 || Sbox[0x53] != 0xED {
		t.Fatal("S-box spot values wrong")
	}
	seen := make(map[byte]bool)
	for _, v := range Sbox {
		if seen[v] {
			t.Fatal("S-box is not a permutation")
		}
		seen[v] = true
	}
}

func TestXtime(t *testing.T) {
	cases := map[byte]byte{0x57: 0xAE, 0xAE: 0x47, 0x47: 0x8E, 0x8E: 0x07, 0x01: 0x02, 0x80: 0x1B}
	for in, want := range cases {
		if got := Xtime(in); got != want {
			t.Errorf("Xtime(%#x) = %#x, want %#x", in, got, want)
		}
	}
}

func TestExpandKeyFIPS(t *testing.T) {
	rk := ExpandKey(fipsKey)
	// FIPS-197 A.1: w4..w7 of the 000102...0f schedule... but A.1 uses a
	// different key; C.1's schedule starts with the key itself.
	if !bytes.Equal(rk[:16], fipsKey[:]) {
		t.Error("round key 0 must equal the key")
	}
	// Last round key for the C.1 key (from the FIPS-197 C.1 trace,
	// round[10].k_sch = 13111d7fe3944a17f307a78b4d2b30c5).
	want := []byte{0x13, 0x11, 0x1D, 0x7F, 0xE3, 0x94, 0x4A, 0x17, 0xF3, 0x07, 0xA7, 0x8B, 0x4D, 0x2B, 0x30, 0xC5}
	if !bytes.Equal(rk[160:176], want) {
		t.Errorf("round key 10 = %x, want %x", rk[160:176], want)
	}
}

func TestEncryptFIPSVector(t *testing.T) {
	ref := NewRef(fipsKey)
	if got := ref.Encrypt(fipsPT); got != fipsCT {
		t.Fatalf("Encrypt = %x, want %x", got, fipsCT)
	}
}

func TestShiftRowsInverseStructure(t *testing.T) {
	var s [16]byte
	for i := range s {
		s[i] = byte(i)
	}
	ShiftRows(&s)
	// Row 0 unchanged; row 1 rotated left by 1: s[1] must be old s[5].
	if s[0] != 0 || s[4] != 4 {
		t.Error("row 0 must not move")
	}
	if s[1] != 5 || s[5] != 9 || s[9] != 13 || s[13] != 1 {
		t.Errorf("row 1 = [%d %d %d %d], want [5 9 13 1]", s[1], s[5], s[9], s[13])
	}
	if s[2] != 10 || s[3] != 15 {
		t.Error("rows 2/3 misrotated")
	}
}

func TestMixColumnsKnownVector(t *testing.T) {
	// FIPS-197 §5.1.3 example column: db 13 53 45 -> 8e 4d a1 bc.
	var s [16]byte
	copy(s[:4], []byte{0xDB, 0x13, 0x53, 0x45})
	MixColumns(&s)
	if !bytes.Equal(s[:4], []byte{0x8E, 0x4D, 0xA1, 0xBC}) {
		t.Errorf("MixColumns = %x, want 8e4da1bc", s[:4])
	}
}

func TestEncryptPartialComposition(t *testing.T) {
	ref := NewRef(fipsKey)
	s, err := ref.EncryptPartial(fipsPT, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Partial with 0 rounds is just AddRoundKey with the key itself.
	for i := range s {
		if s[i] != fipsPT[i]^fipsKey[i] {
			t.Fatalf("partial-0 byte %d wrong", i)
		}
	}
	if _, err := ref.EncryptPartial(fipsPT, 10); err == nil {
		t.Error("partial must reject 10 rounds")
	}
}

func TestSubBytesOut(t *testing.T) {
	if SubBytesOut(0x00, 0x00) != 0x63 {
		t.Error("SubBytesOut broken")
	}
	if SubBytesOut(0x12, 0x34) != Sbox[0x26] {
		t.Error("SubBytesOut must apply the S-box to pt^key")
	}
}

func TestBuildProgramValidates(t *testing.T) {
	if _, _, err := BuildProgram(ProgramOptions{Rounds: 0}); err == nil {
		t.Error("0 rounds must be rejected")
	}
	if _, _, err := BuildProgram(ProgramOptions{Rounds: 11}); err == nil {
		t.Error("11 rounds must be rejected")
	}
	if _, _, err := BuildProgram(ProgramOptions{Rounds: 1, PadNops: -1}); err == nil {
		t.Error("negative pad must be rejected")
	}
	prog, layout, err := BuildProgram(ProgramOptions{Rounds: Rounds, PadNops: 16})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Len() == 0 {
		t.Fatal("empty program")
	}
	// Full AES: 11 ARK, 10 SB, 10 ShR, 9 MC regions.
	counts := map[string]int{}
	for _, r := range layout.Regions {
		counts[r.Name]++
		if r.End <= r.Start {
			t.Errorf("empty region %+v", r)
		}
	}
	want := map[string]int{"ARK": 11, "SB": 10, "ShR": 10, "MC": 9}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("%s regions = %d, want %d", k, counts[k], v)
		}
	}
}

// newInstance builds the registry's AES instance.
func newInstance(t *testing.T, cfg pipeline.Config, key [KeySize]byte, rounds, padNops int) target.Instance {
	t.Helper()
	tgt, err := target.Get("aes")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := tgt.New(cfg, key[:], rounds, padNops)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// encrypt runs pt on a fresh core and returns the result and the state
// the program left in memory, read independently of VerifyOutput.
func encrypt(t *testing.T, inst target.Instance, cfg pipeline.Config, pt [BlockSize]byte) (*pipeline.Result, [BlockSize]byte) {
	t.Helper()
	core := pipeline.MustNew(cfg, mem.NewMemory())
	inst.InitCore(core, pt[:])
	res, err := core.Run(inst.Program())
	if err != nil {
		t.Fatal(err)
	}
	var out [BlockSize]byte
	core.Mem().ReadBytesInto(out[:], inst.(*instance).layout.StateAddr)
	return res, out
}

func TestTargetMatchesReferenceFull(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	res, ct := encrypt(t, newInstance(t, cfg, fipsKey, Rounds, 4), cfg, fipsPT)
	if ct != fipsCT {
		t.Fatalf("simulated ciphertext = %x, want %x", ct, fipsCT)
	}
	if res.DynamicInstrs() == 0 || len(res.Timeline) == 0 {
		t.Error("run produced no trace")
	}
}

func TestTargetMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var key [16]byte
	rng.Read(key[:])
	cfg := pipeline.DefaultConfig()
	inst := newInstance(t, cfg, key, 2, 4)
	for i := 0; i < 8; i++ {
		var pt [16]byte
		rng.Read(pt[:])
		if _, err := target.Run(inst, cfg, pt[:]); err != nil {
			t.Fatalf("run %d: %v (target verifies against the reference)", i, err)
		}
	}
}

// Property: the simulated one-round target always matches the reference's
// partial encryption (target.Run verifies and errors on mismatch).
func TestTargetPropertyOneRound(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	inst := newInstance(t, cfg, fipsKey, 1, 2)
	f := func(pt [16]byte) bool {
		_, err := target.Run(inst, cfg, pt[:])
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 24}); err != nil {
		t.Error(err)
	}
}

// A wrong output is refused: VerifyOutput is a real check.
func TestTargetVerifyOutputRejectsWrongState(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	inst := newInstance(t, cfg, fipsKey, 1, 2)
	core := pipeline.MustNew(cfg, mem.NewMemory())
	inst.InitCore(core, fipsPT[:])
	if _, err := core.Run(inst.Program()); err != nil {
		t.Fatal(err)
	}
	if err := inst.VerifyOutput(core.Mem(), fipsPT[:]); err != nil {
		t.Fatal(err)
	}
	other := fipsPT
	other[3] ^= 1
	if err := inst.VerifyOutput(core.Mem(), other[:]); err == nil {
		t.Fatal("output of another plaintext verified")
	}
}

func TestTargetScalarConfigStillCorrect(t *testing.T) {
	cfg := pipeline.ScalarConfig()
	if _, ct := encrypt(t, newInstance(t, cfg, fipsKey, Rounds, 2), cfg, fipsPT); ct != fipsCT {
		t.Fatalf("scalar core ciphertext = %x, want %x", ct, fipsCT)
	}
}

func TestIssueCycleRange(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	inst := newInstance(t, cfg, fipsKey, 1, 2)
	res, err := target.Run(inst, cfg, fipsPT[:])
	if err != nil {
		t.Fatal(err)
	}
	named := func(name string) []target.Region {
		var out []target.Region
		for _, r := range inst.Regions() {
			if r.Name == name {
				out = append(out, r)
			}
		}
		return out
	}
	regions := named("SB")
	if len(regions) != 1 {
		t.Fatalf("SB regions = %d", len(regions))
	}
	first, last, ok := target.IssueCycleRange(res, regions[0].Start, regions[0].End)
	if !ok || first < 0 || last <= first {
		t.Fatalf("bad cycle range [%d, %d)", first, last)
	}
	// SubBytes must come after the initial ARK.
	ark := named("ARK")[0]
	af, al, ok := target.IssueCycleRange(res, ark.Start, ark.End)
	if !ok || af >= first || al > last {
		t.Errorf("ARK [%d,%d) must precede SB [%d,%d)", af, al, first, last)
	}
}

func TestDualIssueSpeedsUpAES(t *testing.T) {
	dualCfg, scalarCfg := pipeline.DefaultConfig(), pipeline.ScalarConfig()
	rd, err := target.Run(newInstance(t, dualCfg, fipsKey, 2, 2), dualCfg, fipsPT[:])
	if err != nil {
		t.Fatal(err)
	}
	rs, err := target.Run(newInstance(t, scalarCfg, fipsKey, 2, 2), scalarCfg, fipsPT[:])
	if err != nil {
		t.Fatal(err)
	}
	if rd.Cycles >= rs.Cycles {
		t.Errorf("dual-issue run (%d cycles) must beat scalar (%d cycles)", rd.Cycles, rs.Cycles)
	}
}
