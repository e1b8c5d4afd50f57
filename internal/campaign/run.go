package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
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
	// Shards overrides the spec's scenario-level concurrency when > 0.
	// Results are bit-identical for any value.
	Shards int
	// CheckpointPath, when non-empty, appends each finished scenario to
	// a JSONL checkpoint file. With Resume set, scenarios already in the
	// file are loaded instead of re-executed.
	CheckpointPath string
	// Resume loads CheckpointPath before running. A checkpoint written
	// by a different spec (fingerprint mismatch) is refused.
	Resume bool
	// Log, when non-nil, receives one progress line per scenario.
	Log io.Writer
	// OnScenario, when non-nil, observes every completed scenario in
	// completion order; cached reports a checkpoint hit. Test hook and
	// progress seam — must be safe for concurrent calls when Shards > 1.
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

// Checkpoint is the exported checkpoint seam: the JSONL scenario log
// shared by Run and the cluster coordinator, so a campaign interrupted
// under one executor resumes under the other. The format is one header
// line (campaign name, seed, spec fingerprint) followed by one
// ScenarioResult per line; every line is fsynced on its own.
type Checkpoint struct {
	w *checkpointWriter
}

// OpenCheckpoint opens (or creates) the checkpoint at path for spec.
// With resume set, previously completed scenarios are returned keyed by
// ID — a checkpoint written by a different spec is refused — and a torn
// final line from a hard kill is truncated away before appending
// continues.
func OpenCheckpoint(path string, spec *Spec, resume bool) (done map[string]*ScenarioResult, ck *Checkpoint, err error) {
	header := checkpointHeader{Campaign: spec.Name, Seed: spec.Seed, SpecFingerprint: spec.Fingerprint()}
	done = map[string]*ScenarioResult{}
	if resume {
		if done, err = loadCheckpoint(path, header); err != nil {
			return nil, nil, err
		}
	}
	w, err := newCheckpointWriter(path, header, resume && len(done) > 0)
	if err != nil {
		return nil, nil, err
	}
	return done, &Checkpoint{w: w}, nil
}

// Append durably records one finished scenario.
func (c *Checkpoint) Append(sr *ScenarioResult) error { return c.w.append(sr) }

// Close releases the underlying file.
func (c *Checkpoint) Close() error { return c.w.close() }

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
// lock (shards complete in nondeterministic order; the file is a cache,
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

// runShards maps work over idxs on a pool of n goroutines. The first
// error wins and is returned after the pool drains; once an error is
// recorded, remaining indexes are received but skipped, so neither the
// feeder nor a worker can block forever on a failing run.
func runShards(n int, idxs []int, work func(idx int) error) error {
	if n > len(idxs) {
		n = len(idxs)
	}
	if n < 1 {
		n = 1
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	wg.Add(n)
	for s := 0; s < n; s++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				if failed() {
					continue // drain the queue without executing
				}
				if err := work(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, i := range idxs {
		if failed() {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

// Run executes every scenario the spec enumerates — skipping the ones a
// resumed checkpoint already holds — and returns the campaign results
// in enumeration order. The returned Results (and hence their JSON, CSV
// and Markdown renderings) are byte-identical for any worker count,
// shard count, and resume point.
func Run(spec *Spec, opt RunOptions) (*Results, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := engine.CheckLanes(opt.Lanes); err != nil {
		return nil, err
	}
	key, err := spec.AttackKey()
	if err != nil {
		return nil, err
	}
	scenarios, err := spec.Enumerate()
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
	if shards < 1 {
		shards = 1
	}
	if shards > len(scenarios) {
		shards = len(scenarios)
	}

	done := map[string]*ScenarioResult{}
	var ckpt *Checkpoint
	if opt.CheckpointPath != "" {
		if done, ckpt, err = OpenCheckpoint(opt.CheckpointPath, spec, opt.Resume); err != nil {
			return nil, err
		}
		defer ckpt.Close()
	}

	logf := func(format string, args ...any) {
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, format+"\n", args...)
		}
	}

	results := make([]*ScenarioResult, len(scenarios))
	var pendingIdx []int
	for i := range scenarios {
		if sr, ok := done[scenarios[i].ID]; ok {
			results[i] = sr
			logf("[%3d/%d] %s: checkpointed, skipping", i+1, len(scenarios), scenarios[i].ID)
			if opt.OnScenario != nil {
				opt.OnScenario(sr, true)
			}
			continue
		}
		pendingIdx = append(pendingIdx, i)
	}

	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	// Shards pull scenario indexes from a channel; results land in their
	// enumeration slot, so completion order never reaches the artifacts.
	err = runShards(shards, pendingIdx, func(i int) error {
		sc := &scenarios[i]
		sr, err := ExecuteContext(ctx, sc, key, workers, opt.Lanes, opt.Gate)
		if err != nil {
			return err
		}
		results[i] = sr
		if ckpt != nil {
			if err := ckpt.Append(sr); err != nil {
				return fmt.Errorf("campaign: checkpoint: %w", err)
			}
		}
		logf("[%3d/%d] %s: %s", i+1, len(scenarios), sc.ID, sr.Headline())
		if opt.OnScenario != nil {
			opt.OnScenario(sr, false)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &Results{Campaign: spec.Name, Seed: spec.Seed, SpecFingerprint: spec.Fingerprint()}
	for _, sr := range results {
		out.Scenarios = append(out.Scenarios, *sr)
	}
	return out, nil
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
