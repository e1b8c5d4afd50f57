// Package target defines the cipher-target registry behind the
// target-generic attack API: an interface over BuildProgram-style
// codegen, a bit-exact reference implementation, table-driven leakage
// models for sca.ClassCPA, and per-target attack windows. Cipher
// packages (internal/aes, internal/present, internal/speck,
// internal/chacha) register themselves in init(); the attack, campaign
// and serving layers look targets up by name and never import a cipher
// package directly.
//
// Canonical spelling contract. The registry's default target is "aes",
// and its canonical spelling everywhere a target name is persisted —
// normalized requests, scenario IDs, wire forms, result records — is
// the ABSENT (empty) form. Canon and Resolve implement the two
// directions. This is what keeps every pre-registry artifact
// byte-identical: an AES request normalizes to exactly the bytes it
// normalized to before the target field existed, so cached digests,
// derived scenario seeds and committed campaign results never move.
package target

import (
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/sca"
)

// Default is the registry's default target name; its canonical
// persisted spelling is the empty string (see the package comment).
const Default = "aes"

// Resolve maps the canonical absent spelling to the default target
// name; explicit names pass through.
func Resolve(name string) string {
	if name == "" {
		return Default
	}
	return name
}

// Canon maps a target name to its canonical persisted spelling: the
// default target canonicalizes to the empty string, every other name
// to itself.
func Canon(name string) string {
	if name == Default {
		return ""
	}
	return name
}

// Info describes one registered cipher target: its dimensions, round
// structure and default attack key.
type Info struct {
	// Name is the registry key ("aes", "present", "speck64", "chacha20").
	Name string
	// Desc is a one-line description for CLI listings.
	Desc string
	// BlockSize is the attacker-controlled input length in bytes — the
	// plaintext drawn fresh per acquisition.
	BlockSize int
	// KeySize is the key length in bytes.
	KeySize int
	// AttackBytes is the number of recoverable effective-key byte
	// positions; full-key recovery sweeps banks 0..AttackBytes-1.
	AttackBytes int
	// MaxRounds is the full cipher's round count; DefaultRounds the
	// truncation attacks use when a request leaves rounds at 0.
	MaxRounds     int
	DefaultRounds int
	// DefaultKey is the key attacked when none is given.
	DefaultKey []byte
}

// ParseKey parses a key spelled as 2*KeySize hex digits; the empty
// string selects the target's default key. It is the single key-parsing
// rule shared by the CLI tools, the campaign specs and the request API.
func (in Info) ParseKey(s string) ([]byte, error) {
	if s == "" {
		return append([]byte(nil), in.DefaultKey...), nil
	}
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != in.KeySize {
		return nil, fmt.Errorf("%s: key must be %d hex digits", in.Name, 2*in.KeySize)
	}
	return raw, nil
}

// Region marks the instruction-index range [Start, End) of one cipher
// primitive inside a target's generated program, used to annotate the
// correlation-vs-time plots.
type Region struct {
	Name       string
	Round      int
	Start, End int
}

// Window restricts where and how the CPA ranking searches for a
// target's correlation peak. The zero Window means the pre-registry
// behavior: search the whole trace and rank hypotheses by |r|.
//
// Non-AES targets need the knobs. First, a truncated cipher executes
// many key-dependent operations besides the attacked one, and at fixed
// synthesis seeds their correlations are deterministic — ghost peaks
// that do not shrink with more traces. Restricting the search to the
// calibrated region of the attacked instruction(s), shifted onto the
// pipeline stage where the attacked storage element is actually
// driven, removes them. Second, XOR-Hamming-weight models
// (t[v][k] = HW(v^k)) are complement-ambiguous: hypothesis k^0xff
// predicts exactly 8-HW(v^k), the negation of the true prediction, so
// under |r| ranking the true key and its complement tie and the winner
// is noise. Those targets set Signed, ranking by signed r, which the
// complement cannot win.
type Window struct {
	// Region selects the calibrated region(s) to search: every round-1
	// region whose name has this prefix. Empty searches the whole trace.
	Region string
	// Signed ranks hypotheses by signed correlation instead of |r|.
	Signed bool
	// Delay shifts the search window this many cycles past the
	// region's issue cycles, onto the pipeline stage where the attacked
	// component is driven (1 for an ALU result buffer, 2 for the MDR or
	// the load align buffer). When Delay > 0 the window keeps exactly
	// the region's own width; 0 keeps the legacy issue-cycle span.
	Delay int
}

// Target is one registered cipher: immutable metadata plus an
// instance factory binding a core configuration and a key.
type Target interface {
	// Info returns the target's registry metadata.
	Info() Info
	// New builds a device-under-attack instance for the given key.
	// rounds truncates the cipher (1..Info().MaxRounds); padNops is the
	// number of pipeline-flushing nops around the cipher body.
	New(cfg pipeline.Config, key []byte, rounds, padNops int) (Instance, error)
}

// Instance is one device-under-attack: a generated program with its
// per-run setup, functional oracle and class-table leakage model. An
// Instance is safe for concurrent use by the synthesis workers.
type Instance interface {
	// Program returns the generated program.
	Program() *isa.Program
	// Regions maps program instruction ranges back to cipher primitives.
	// The slice is the codegen layout's own; callers must not modify it.
	Regions() []Region
	// InitCore prepares a freshly reset core for one run on input pt
	// (Info().BlockSize bytes): tables, key material and state written
	// to memory, argument registers pointed at them.
	InitCore(core *pipeline.Core, pt []byte)
	// VerifyOutput checks the state m holds after an execution prepared
	// by InitCore(_, pt) against the reference implementation — the
	// functional oracle of every synthesized acquisition.
	VerifyOutput(m *mem.Memory, pt []byte) error
	// Class returns the ClassCPA model-input class of attacked byte b
	// for input pt — a pure function of pt, in [0, 256).
	Class(b int, pt []byte) int
	// ClassTable returns the 256x256 leakage table of attacked byte b:
	// ClassTable(b)[Class(b, pt)][k] predicts the leak under key
	// hypothesis k. The table is immutable and shared.
	ClassTable(b int) [][]float64
	// TrueKeyByte returns the true value of effective-key byte b — the
	// hypothesis a successful attack ranks first.
	TrueKeyByte(b int) byte
	// AttackWindow returns the peak-search restriction for attacked
	// byte b; the zero Window keeps the whole-trace |r| ranking.
	AttackWindow(b int) Window
}

var (
	regMu    sync.RWMutex
	registry = map[string]Target{}
)

// Register adds a target to the registry; cipher packages call it from
// init(). A duplicate or empty name is a programming error and panics.
func Register(t Target) {
	info := t.Info()
	if info.Name == "" {
		panic("target: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[info.Name]; dup {
		panic(fmt.Sprintf("target: duplicate registration of %q", info.Name))
	}
	registry[info.Name] = t
}

// Get looks a target up by name; the empty name resolves to Default.
func Get(name string) (Target, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	t, ok := registry[Resolve(name)]
	if !ok {
		names := make([]string, 0, len(registry))
		for n := range registry {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("target: unknown target %q (registered: %s)", name, strings.Join(names, ", "))
	}
	return t, nil
}

// Names lists the registered target names in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes one input on a fresh core and verifies the output — the
// calibration helper every attack uses to fix trace length and region
// windows before synthesis starts.
func Run(inst Instance, cfg pipeline.Config, pt []byte) (*pipeline.Result, error) {
	core := pipeline.MustNew(cfg, mem.NewMemory())
	inst.InitCore(core, pt)
	res, err := core.Run(inst.Program())
	if err != nil {
		return nil, err
	}
	if err := inst.VerifyOutput(core.Mem(), pt); err != nil {
		return nil, err
	}
	return res, nil
}

// IssueCycleRange returns the first and one-past-last issue cycles of
// the dynamic instructions whose static PC falls inside [start, end) —
// the time window of one primitive region in a particular run.
func IssueCycleRange(res *pipeline.Result, start, end int) (first, last int64, ok bool) {
	first, last = -1, -1
	for _, is := range res.Issues {
		if is.PC >= start && is.PC < end {
			if first < 0 {
				first = is.Cycle
			}
			if is.Cycle+1 > last {
				last = is.Cycle + 1
			}
		}
	}
	return first, last, first >= 0
}

// ByteTable builds the 256x256 class table t[v][k] = HW(f(v, k)) — the
// table-driven ClassCPA model of a byte-oriented intermediate.
func ByteTable(f func(v, k byte) byte) [][]float64 {
	t := make([][]float64, 256)
	for v := range t {
		t[v] = make([]float64, 256)
		for k := range t[v] {
			t[v][k] = float64(sca.HW8(f(byte(v), byte(k))))
		}
	}
	return t
}

var (
	hwXorOnce  sync.Once
	hwXorTable [][]float64
)

// HWXorTable returns the shared t[v][k] = HW(v^k) table — the model of
// ARX targets, whose attacked intermediate is a known value XORed with
// a fixed effective-key byte.
func HWXorTable() [][]float64 {
	hwXorOnce.Do(func() {
		hwXorTable = ByteTable(func(v, k byte) byte { return v ^ k })
	})
	return hwXorTable
}
