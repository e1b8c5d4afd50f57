// Command perfbench is the repository's benchmark: three workloads
// (attack-stream, campaigns, scad) run in one process, every output
// checked, every metric printed by name and unit. An untraced run
// (--trace 0) measures the end-to-end metrics of one workload; a traced
// run (--trace 1) runs every workload once with spans around each call
// into a layer, times each layer's public functions from outside, and
// prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is what every workload is built from.
type config struct {
	seed int64
	load int // engine workers, scad clients and scad MaxConcurrent
	// shrink selects test-sized passes.
	shrink bool
	// root is the repository checkout; tmp a scratch directory inside it.
	root, tmp string
}

// workload is one named benchmark load. setup builds its inputs from
// the seed and may run again; pass is one checked pass, traced when tr
// is non-nil. The untimed warm-up is a whole pass: a partial one left
// the first timed campaigns pass paying for heap growth (about 6% more
// CPU and 15% more GC cycles).
type workload interface {
	name() string
	setup() error
	pass(tr *tracer) *passResult
}

var workloadNames = []string{"attack-stream", "campaigns", "scad"}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "attack-stream":
		return newAttackStream(cfg), nil
	case "campaigns":
		return newCampaigns(cfg), nil
	case "scad":
		return newScad(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// passResult is one pass's measurements. Wall and CPU cover the timed
// work and exclude the output checks, whose own times are CheckWall and
// CheckCPU; Unstolen is Wall less the time the hypervisor stole. LatMs
// holds one latency per operation (an attack call, a campaign scenario,
// an HTTP request).
type passResult struct {
	Wall      float64            `json:"wall_s"`
	CPU       float64            `json:"cpu_s"`
	Unstolen  float64            `json:"unstolen_wall_s"`
	CheckWall float64            `json:"check_wall_s"`
	CheckCPU  float64            `json:"check_cpu_s"`
	Ops       int                `json:"ops"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Counters  map[string]any     `json:"counters"`
	Runtime   *runtimeDelta      `json:"runtime,omitempty"`
	LatMs     []float64          `json:"op_ms"`
	Root      int                `json:"-"` // root span when traced
}

func newPassResult() *passResult {
	return &passResult{Metrics: map[string]float64{}, Counters: map[string]any{}}
}

// fail counts one failed operation, keeping the first few reasons.
func (p *passResult) fail(format string, args ...any) {
	p.Failed++
	if len(p.Errors) < 5 {
		p.Errors = append(p.Errors, fmt.Sprintf(format, args...))
	}
}

// checked runs one output check and adds its wall and CPU time to the
// pass's check times. A pass that checks inside its timed part takes
// CheckWall out of Wall itself; measured takes CheckCPU out of CPU.
func (p *passResult) checked(check func()) {
	t0, c0 := time.Now(), cpuTime()
	check()
	p.CheckWall += time.Since(t0).Seconds()
	p.CheckCPU += cpuTime() - c0
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// rusage returns the process's resource usage. Linux reports Maxrss in
// KiB. CPU time, unlike wall time, excludes time the hypervisor stole
// from the virtual CPUs, which on a shared host swings from run to run.
func rusage() (cpuSeconds, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN(), math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, float64(ru.Maxrss) * 1024 / 1e6
}

// cpuTime returns the CPU seconds (user + system) the process has used.
func cpuTime() float64 {
	cpu, _ := rusage()
	return cpu
}

// stolenSeconds returns the time the hypervisor has stolen from the
// average virtual CPU: the steal column of /proc/stat's cpu line, in
// USER_HZ ticks (100 per second on Linux), over the number of CPUs
// listed. The process runs on all of them (GOMAXPROCS = nproc). Where
// /proc/stat is unreadable it returns 0, and unstolen wall time is
// plain wall time.
func stolenSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var steal float64
	cpus := 0
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 8 && f[0] == "cpu":
			steal, _ = strconv.ParseFloat(f[8], 64)
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			cpus++
		}
	}
	if cpus == 0 {
		return 0
	}
	return steal / 100 / float64(cpus)
}

// runtimeDelta is the Go runtime's bill for one pass. The heap peaks
// are sampled only when asked for.
type runtimeDelta struct {
	PeakLiveMB    float64 `json:"peak_live_heap_mb,omitempty"`
	PeakObjectsMB float64 `json:"peak_heap_objects_mb,omitempty"`
	AllocMB       float64 `json:"alloc_mb"`
	GCCycles      float64 `json:"gc_cycles"`
	GCPauseMs     float64 `json:"gc_pause_ms"`
}

// measured runs one pass of w after a forced GC, so the previous pass's
// garbage is not billed to it, and attaches the CPU time (checks
// excluded), the unstolen wall time and the runtime counters. With
// peaks it also samples the heap's peaks, at a small CPU cost to the
// pass.
func measured(w workload, tr *tracer, peaks bool) *passResult {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var heap *heapPeak
	if peaks {
		heap = startHeapPeak()
	}
	t0, cpu0, steal0 := time.Now(), cpuTime(), stolenSeconds()
	p := w.pass(tr)
	p.CPU = cpuTime() - cpu0 - p.CheckCPU
	// The share of the pass's wall time that was stolen, applied to the
	// wall time without checks.
	if span := time.Since(t0).Seconds(); span > 0 {
		p.Unstolen = p.Wall * max(0, 1-(stolenSeconds()-steal0)/span)
	}
	var live, objects float64
	if heap != nil {
		live, objects = heap.end()
	}
	runtime.ReadMemStats(&after)
	p.Runtime = &runtimeDelta{
		PeakLiveMB:    live,
		PeakObjectsMB: objects,
		AllocMB:       float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		GCCycles:      float64(after.NumGC - before.NumGC),
		GCPauseMs:     float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
	return p
}

// heapPeak samples the heap until stopped and keeps the maxima of the
// live heap (as marked by the latest GC cycle) and of all heap objects,
// live or not yet swept. Both depend on when the collector happened to
// run, so they are reported per pass, not bounded.
type heapPeak struct {
	stop          chan struct{}
	done          chan struct{}
	live, objects uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			h.live = max(h.live, samples[0].Value.Uint64())
			h.objects = max(h.objects, samples[1].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns both peaks in MB.
func (h *heapPeak) end() (live, objects float64) {
	close(h.stop)
	<-h.done
	return float64(h.live) / 1e6, float64(h.objects) / 1e6
}

// setupRuns returns how many times set-up repeats: at least three, and
// more while each repetition is cheap, so the reported median is steady.
func setupRuns(first time.Duration) int {
	switch {
	case first < 20*time.Millisecond:
		return 21
	case first < 200*time.Millisecond:
		return 7
	}
	return 3
}

// timedSetup runs w's set-up repeatedly, each time after a forced GC,
// and returns the wall and CPU seconds of each repetition.
func timedSetup(w workload) (wall, cpu []float64, err error) {
	for n := 1; len(wall) < n; {
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		if err := w.setup(); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name(), err)
		}
		d := time.Since(t0)
		wall = append(wall, d.Seconds())
		cpu = append(cpu, cpuTime()-c0)
		if len(wall) == 1 {
			n = setupRuns(d)
		}
	}
	return wall, cpu, nil
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally accumulates attempted and failed operations across passes.
type tally struct{ attempted, failed int }

func (t *tally) add(p *passResult) { t.attempted += p.Ops; t.failed += p.Failed }

func (t *tally) result(m map[string]metric) result {
	return result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// report prints one JSON line of detail ahead of the result line.
func report(key string, v any) {
	raw, err := json.Marshal(map[string]any{key: v})
	if err != nil {
		raw, _ = json.Marshal(map[string]string{key: err.Error()})
	}
	fmt.Println(string(raw))
}

// untraced measures one workload's end-to-end metrics: set-up (repeated,
// median), an untimed warm-up pass, then timed passes until seconds have
// elapsed. The bounded metrics are CPU seconds: on a shared host the
// hypervisor steals a varying share of the virtual CPUs, which moves
// wall times far more than any code change of interest. Wall times are
// printed beside them.
func untraced(w workload, seconds float64) (result, error) {
	setupWall, setupCPU, err := timedSetup(w)
	if err != nil {
		return result{}, err
	}
	var t tally
	warm := measured(w, nil, false)
	t.add(warm)
	report("warmup", map[string]any{"wall_s": warm.Wall, "cpu_s": warm.CPU, "ops": warm.Ops, "failed": warm.Failed, "errors": warm.Errors})

	var passes []*passResult
	var walls, cpus, unstolen, lat []float64
	t0 := time.Now()
	for len(passes) == 0 || time.Since(t0).Seconds() < seconds {
		p := measured(w, nil, false)
		passes = append(passes, p)
		walls = append(walls, p.Wall)
		cpus = append(cpus, p.CPU)
		unstolen = append(unstolen, p.Unstolen)
		lat = append(lat, p.LatMs...)
		t.add(p)
	}
	_, peakRSS := rusage()
	q1, q3 := quartiles(cpus)
	for i, p := range passes {
		report("pass", map[string]any{"index": i, "detail": p})
	}
	report("summary", map[string]any{
		"workload":             w.name(),
		"passes":               len(passes),
		"setup_wall_s":         setupWall,
		"setup_cpu_s":          setupCPU,
		"pass_cpu_s_quartiles": []float64{q1, q3},
		"pass_wall_s":          median(walls),
		"op_p50_wall_ms":       median(lat),
		"peak_rss_mb":          peakRSS,
		"fail_ratio": map[string]any{
			"failed": t.failed, "attempted": t.attempted,
			"value": float64(t.failed) / float64(max(t.attempted, 1)),
		},
	})
	m, err := declared(endToEnd, map[string]float64{
		"setup_s":              median(setupCPU),
		"pass_cpu_s":           median(cpus),
		"pass_unstolen_wall_s": median(unstolen),
	})
	if err != nil {
		return result{}, err
	}
	return t.result(m), nil
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: attack-stream, campaigns or scad")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "how long the timed passes run (untraced runs)")
	traced := fs.Int("trace", 0, "1: traced run of every workload plus layer probes")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	root, err := os.Getwd()
	if err != nil {
		return 1, err
	}
	if _, err := os.Stat(filepath.Join(root, "campaigns", "paper.json")); err != nil {
		return 2, errors.New("run from the repository root: committed campaigns not found")
	}
	out := os.Getenv("PERFBENCH_OUT")
	if out == "" {
		out = filepath.Join(root, ".bench_build")
	}
	if err := os.MkdirAll(filepath.Join(out, "tmp"), 0o755); err != nil {
		return 1, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(out, "tmp"), "run-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(tmp)
	if *traced != 0 && *traced != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	cfg := config{seed: *seed, load: load(), root: root, tmp: tmp}
	runtime.GOMAXPROCS(cfg.load)
	w, err := newWorkload(*name, cfg)
	if err != nil {
		return 2, err
	}
	report("env", readEnvironment())
	report("run", map[string]any{"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *traced})

	var res result
	if *traced == 1 {
		res, err = tracedRun(cfg, filepath.Join(out, fmt.Sprintf("spans-%s-%d.json", *name, *seed)))
	} else {
		res, err = untraced(w, *seconds)
	}
	if err != nil {
		return 1, err
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(raw))
	return 0, nil
}
