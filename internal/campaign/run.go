package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/engine"
)

// RunOptions tunes one campaign execution without touching the spec (so
// the same committed spec can run checkpointed locally and plain in a
// test).
type RunOptions struct {
	// Workers overrides the spec's per-scenario engine pool size when
	// > 0. Results are bit-identical for any value.
	Workers int
	// Lanes sets the lane-group width (0: default; see
	// engine.CheckLanes). Results are bit-identical for any value.
	Lanes int
	// Shards overrides the spec's scenario-level concurrency (Run's
	// slot count) when > 0. Results are bit-identical for any value.
	Shards int
	// CheckpointPath, when non-empty, appends each finished scenario to
	// a JSONL checkpoint file. Without Resume an existing file there is
	// truncated and started over.
	CheckpointPath string
	// Resume loads CheckpointPath before running: scenarios already in
	// the file are settled instead of re-executed, and a torn final line
	// is truncated away before appending continues. A checkpoint written
	// by a different spec (fingerprint mismatch) is refused.
	Resume bool
	// Log, when non-nil, receives one progress line per scenario.
	Log io.Writer
	// OnScenario, when non-nil, observes every completed scenario in
	// completion order; cached reports a checkpoint hit or a runner's
	// cache hit. Test hook and progress seam — must be safe for
	// concurrent calls when there is more than one slot.
	OnScenario func(sr *ScenarioResult, cached bool)
	// Ctx, when non-nil, cancels the campaign: in-flight scenarios abort
	// between engine chunks and Run returns the context's error.
	// Already-checkpointed scenarios stay checkpointed, so a canceled
	// run resumes where it left off.
	Ctx context.Context
	// Gate, when non-nil, bounds trace-synthesis concurrency across
	// every campaign and request sharing it (see engine.Gate).
	Gate *engine.Gate
}

// checkpointHeader is the first line of a checkpoint file.
type checkpointHeader struct {
	Campaign        string `json:"campaign"`
	Seed            int64  `json:"seed"`
	SpecFingerprint string `json:"spec_fingerprint"`
}

// openCheckpoint opens (or creates) the checkpoint at path for spec:
// one header line (campaign name, seed, spec fingerprint) followed by
// one ScenarioResult per line, each fsynced on its own. With resume
// set, previously completed scenarios are returned keyed by ID — a
// checkpoint written by a different spec is refused — and a torn final
// line from a hard kill is truncated away before appending continues.
// Without it, an existing file is truncated and started over.
func openCheckpoint(path string, spec *Spec, resume bool) (map[string]*ScenarioResult, *checkpointWriter, error) {
	header := checkpointHeader{Campaign: spec.Name, Seed: spec.Seed, SpecFingerprint: spec.Fingerprint()}
	var done map[string]*ScenarioResult
	if resume {
		var err error
		if done, err = loadCheckpoint(path, header); err != nil {
			return nil, nil, err
		}
	}
	w, err := newCheckpointWriter(path, header, len(done) > 0)
	if err != nil {
		return nil, nil, err
	}
	return done, w, nil
}

// loadCheckpoint reads a JSONL checkpoint, returning the completed
// scenarios keyed by ID. A missing file is an empty checkpoint.
func loadCheckpoint(path string, want checkpointHeader) (map[string]*ScenarioResult, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[string]*ScenarioResult{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	done := map[string]*ScenarioResult{}
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if first {
			first = false
			var h checkpointHeader
			if err := json.Unmarshal(line, &h); err != nil {
				return nil, fmt.Errorf("campaign: checkpoint %s: bad header: %w", path, err)
			}
			if h != want {
				return nil, fmt.Errorf("campaign: checkpoint %s belongs to a different spec (campaign %q, fingerprint %.12s…)",
					path, h.Campaign, h.SpecFingerprint)
			}
			continue
		}
		var sr ScenarioResult
		if err := json.Unmarshal(line, &sr); err != nil {
			// A torn line — the trailing one from an interrupted run, or
			// a mid-file short write — only loses its own entry; entries
			// are keyed by scenario ID, so everything else stays usable
			// and the missing scenario simply re-executes.
			continue
		}
		done[sr.ID] = &sr
	}
	return done, sc.Err()
}

// checkpointWriter appends scenario lines to the checkpoint file under a
// lock (slots complete in nondeterministic order; the file is a cache,
// not a canonical artifact — Results ordering is what is canonical).
type checkpointWriter struct {
	mu sync.Mutex
	f  *os.File
}

func newCheckpointWriter(path string, h checkpointHeader, resumed bool) (*checkpointWriter, error) {
	if resumed {
		raw, err := os.ReadFile(path)
		if err == nil {
			// A hard kill can leave a torn, newline-less final line;
			// truncate to the last complete line so new records never
			// merge into the torn bytes (which would corrupt the file
			// for the next resume).
			valid := 0
			if i := bytes.LastIndexByte(raw, '\n'); i >= 0 {
				valid = i + 1
			}
			f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
			if err != nil {
				return nil, err
			}
			if err := f.Truncate(int64(valid)); err != nil {
				f.Close()
				return nil, err
			}
			if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
				f.Close()
				return nil, err
			}
			return &checkpointWriter{f: f}, nil
		}
		if !os.IsNotExist(err) {
			return nil, err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		return nil, err
	}
	return &checkpointWriter{f: f}, nil
}

func (w *checkpointWriter) append(sr *ScenarioResult) error {
	raw, err := json.Marshal(sr)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(append(raw, '\n')); err != nil {
		return err
	}
	// Each line is durable on its own, so an interrupted campaign
	// resumes from the last finished scenario, not the last flush.
	return w.f.Sync()
}

func (w *checkpointWriter) close() error { return w.f.Close() }

// ErrSlotLost classifies a runner failure as "this slot is gone": the
// scenario did not complete there, so it goes back on the shared queue
// for the remaining slots. Any other runner error fails the run.
var ErrSlotLost = errors.New("campaign: slot lost")

// Runner executes one scenario on one slot of Drive. It returns the
// result (cached reporting that a cache served it rather than a
// computation), an error wrapping ErrSlotLost to surrender its slot, or
// any other error to fail the run.
type Runner func(ctx context.Context, sc *Scenario) (sr *ScenarioResult, cached bool, err error)

// Run executes every scenario the spec enumerates — skipping the ones a
// resumed checkpoint already holds — and returns the campaign results
// in enumeration order. It is Drive with Shards slots, each executing
// its scenarios in this process. The returned Results (and hence their
// JSON, CSV and Markdown renderings) are byte-identical for any worker
// count, shard count, and resume point.
func Run(spec *Spec, opt RunOptions) (*Results, error) {
	if err := engine.CheckLanes(opt.Lanes); err != nil {
		return nil, err
	}
	key, err := spec.AttackKey()
	if err != nil {
		return nil, err
	}
	workers := spec.Workers
	if opt.Workers > 0 {
		workers = opt.Workers
	}
	shards := spec.Shards
	if opt.Shards > 0 {
		shards = opt.Shards
	}
	run := engine.Config{Workers: workers, Lanes: opt.Lanes, Ctx: opt.Ctx, Gate: opt.Gate}
	local := func(_ context.Context, sc *Scenario) (*ScenarioResult, bool, error) {
		sr, err := Execute(sc, key, run)
		return sr, false, err
	}
	slots := make([]Runner, max(shards, 1))
	for i := range slots {
		slots[i] = local
	}
	return Drive(spec, opt, slots)
}

// Drive is the one scenario driver, behind both Run and the cluster
// coordinator. It validates and enumerates spec, settles the scenarios
// a resumed checkpoint already holds (reporting each to OnScenario as
// cached, in enumeration order, before any runner starts), and runs the
// rest on one goroutine per slot, every slot pulling from one shared
// queue in enumeration order. Each completed scenario is appended to
// the checkpoint, logged and passed to OnScenario; the results are
// merged in enumeration order, so completion order never reaches the
// artifacts.
//
// A slot whose runner returns ErrSlotLost is retired and its scenario
// goes back to the front of the queue; losing the last slot while work
// is outstanding fails the run. Any other runner error fails the run
// (the first error wins), as does cancelling opt.Ctx. Drive reads only
// CheckpointPath, Resume, Log, OnScenario and Ctx; the other options
// tune Run's slots.
func Drive(spec *Spec, opt RunOptions, slots []Runner) (*Results, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	scenarios, err := spec.Enumerate()
	if err != nil {
		return nil, err
	}
	var done map[string]*ScenarioResult
	var ckpt *checkpointWriter
	if opt.CheckpointPath != "" {
		if done, ckpt, err = openCheckpoint(opt.CheckpointPath, spec, opt.Resume); err != nil {
			return nil, err
		}
		defer ckpt.close()
	}
	logf := func(format string, args ...any) {
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, format+"\n", args...)
		}
	}

	results := make([]*ScenarioResult, len(scenarios))
	q := &queue{live: len(slots)}
	q.cond = sync.NewCond(&q.mu)
	for i := range scenarios {
		if sr, ok := done[scenarios[i].ID]; ok {
			results[i] = sr
			logf("[%3d/%d] %s: checkpointed, skipping", i+1, len(scenarios), scenarios[i].ID)
			if opt.OnScenario != nil {
				opt.OnScenario(sr, true)
			}
			continue
		}
		q.pending = append(q.pending, i)
	}
	q.outstanding = len(q.pending)

	complete := func(i int, sr *ScenarioResult, cached bool) error {
		if sr.ID != scenarios[i].ID {
			return fmt.Errorf("campaign: scenario %q came back as %q", scenarios[i].ID, sr.ID)
		}
		results[i] = sr
		if ckpt != nil {
			if err := ckpt.append(sr); err != nil {
				return fmt.Errorf("campaign: checkpoint: %w", err)
			}
		}
		headline := sr.Headline()
		if cached {
			headline += " (cache hit)"
		}
		logf("[%3d/%d] %s: %s", i+1, len(scenarios), sr.ID, headline)
		if opt.OnScenario != nil {
			opt.OnScenario(sr, cached)
		}
		return nil
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := q.run(ctx, scenarios, slots, complete); err != nil {
		return nil, err
	}

	out := &Results{Campaign: spec.Name, Seed: spec.Seed, SpecFingerprint: spec.Fingerprint()}
	for _, sr := range results {
		out.Scenarios = append(out.Scenarios, *sr)
	}
	return out, nil
}

// queue is Drive's scheduling state: the enumeration indexes no slot
// holds yet, the count of scenarios not yet completed, the slots not
// yet lost, and the first failure. Every transition holds mu; cond
// wakes idle slots on hand-back, completion and failure.
type queue struct {
	mu          sync.Mutex
	cond        *sync.Cond
	pending     []int
	outstanding int
	live        int
	err         error
}

// run drives every slot until the queue drains or the run fails, and
// returns the first failure.
func (q *queue) run(ctx context.Context, scenarios []Scenario, slots []Runner, complete func(int, *ScenarioResult, bool) error) error {
	q.mu.Lock()
	q.checkLiveLocked(ErrSlotLost) // no slot at all
	q.mu.Unlock()
	stop := context.AfterFunc(ctx, func() { q.fail(ctx.Err()) })
	defer stop()
	var wg sync.WaitGroup
	for _, slot := range slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := q.next()
				if !ok {
					return
				}
				sr, cached, err := slot(ctx, &scenarios[i])
				switch {
				case err == nil:
					q.finish(complete(i, sr, cached))
				case errors.Is(err, ErrSlotLost):
					q.lose(i, err)
					return
				default:
					q.fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return q.err
}

// next blocks until a scenario is pending and hands it out. It returns
// false once everything completed or the run failed; an idle slot keeps
// waiting while others hold scenarios, since a lost slot hands its
// scenario back.
func (q *queue) next() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.err != nil || q.outstanding == 0 {
			return 0, false
		}
		if len(q.pending) > 0 {
			i := q.pending[0]
			q.pending = q.pending[1:]
			return i, true
		}
		q.cond.Wait()
	}
}

// finish records one completion; err is the completion's own failure
// (a checkpoint write), which fails the run.
func (q *queue) finish(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.outstanding--
	q.failLocked(err)
}

// lose retires a slot and puts its scenario i back at the front of the
// queue: it has waited longest.
func (q *queue) lose(i int, cause error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.live--
	q.pending = slices.Insert(q.pending, 0, i)
	q.checkLiveLocked(cause)
	q.cond.Broadcast()
}

// checkLiveLocked fails the run when no slot is left for the
// outstanding scenarios.
func (q *queue) checkLiveLocked(cause error) {
	if q.live == 0 && q.outstanding > 0 {
		q.failLocked(fmt.Errorf("campaign: every slot lost with %d scenarios unfinished: %w", q.outstanding, cause))
	}
}

func (q *queue) fail(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.failLocked(err)
}

func (q *queue) failLocked(err error) {
	if q.err == nil {
		q.err = err
	}
	q.cond.Broadcast()
}

// EncodeJSON renders the results in the canonical indented form written
// to disk and compared byte-for-byte by the CI drift gate.
func (r *Results) EncodeJSON() []byte {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("campaign: encoding results: %v", err))
	}
	return append(raw, '\n')
}

// DecodeResults parses results previously written by EncodeJSON and
// validates the shape the renderers rely on — every scenario must carry
// the payload of its kind — so hand-edited or truncated files fail with
// an error instead of panicking a renderer.
func DecodeResults(raw []byte) (*Results, error) {
	var r Results
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("campaign: parsing results: %w", err)
	}
	for i := range r.Scenarios {
		sr := &r.Scenarios[i]
		var ok bool
		switch sr.Kind {
		case KindTable1:
			ok = sr.Table1 != nil
		case KindFigure2:
			ok = sr.Figure2 != nil
		case KindTable2:
			ok = sr.Table2 != nil
		case KindFig3:
			ok = sr.Fig3 != nil
		case KindFig4:
			ok = sr.Fig4 != nil
		case KindFullKey:
			ok = sr.FullKey != nil
		case KindRankEvo:
			ok = sr.RankEvo != nil && len(sr.RankEvo.Ranks) == len(sr.RankEvo.Counts)
		case KindMaskCPA:
			ok = sr.MaskCPA != nil
		case KindTVLA:
			ok = sr.TVLA != nil && len(sr.TVLA.Rows) > 0
		}
		if !ok {
			return nil, fmt.Errorf("campaign: scenario %d (%q) lacks a well-formed %s payload", i, sr.ID, sr.Kind)
		}
	}
	return &r, nil
}

// LoadResults reads a results JSON file.
func LoadResults(path string) (*Results, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeResults(raw)
}

// WriteArtifacts writes the canonical renderings of r into dir —
// results.json, results.csv and report.md — and returns their paths.
func WriteArtifacts(dir string, r *Results) ([]string, error) {
	var paths []string
	for _, f := range []struct {
		name string
		data []byte
	}{
		{"results.json", r.EncodeJSON()},
		{"results.csv", []byte(r.CSV())},
		{"report.md", []byte(Report(r))},
	} {
		path := filepath.Join(dir, f.name)
		if err := os.WriteFile(path, f.data, 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
