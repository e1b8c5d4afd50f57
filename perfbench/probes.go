package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/aes"
	"repro/internal/attack"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/leakscan"
	"repro/internal/masking"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/sca"
	"repro/internal/target"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/znorm"
)

// Probes time one layer's public function at a time, from outside, on
// the programs, models and shapes the workloads use. Each probe repeats
// its round until a time budget is spent and reports the median round.

// probeCosts are the per-unit costs the derived shares are built from.
type probeCosts struct {
	verifyMs, compileMs             float64
	batchVMUs, expandUs, classAddUs float64
}

// prober runs the probes of one traced run.
type prober struct {
	cfg    config
	tr     *tracer
	put    func(name string, v float64)
	budget time.Duration
	// batchRuns is Synthesizer.BatchRuns of the batch VM probe's
	// synthesizer: nonzero proves the probe timed the batch path.
	batchRuns int64
}

// rounds times round at least n times and until the budget is spent,
// and returns the median round in seconds, under a span named name.
func (p *prober) rounds(name string, n int, budget time.Duration, round func() error) (float64, error) {
	id, end := p.tr.begin(name, 0, "probe")
	defer end()
	var took []float64
	t0 := time.Now()
	for len(took) < n || time.Since(t0) < budget {
		start := time.Now()
		if err := round(); err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		stop := time.Now()
		p.tr.add(name+".round", id, "probe", start, stop)
		took = append(took, stop.Sub(start).Seconds())
	}
	return median(took), nil
}

// timed is rounds at the probe budget: at least five rounds.
func (p *prober) timed(name string, round func() error) (float64, error) {
	return p.rounds(name, 5, p.budget, round)
}

// normStream is a per-lane bulk normal source over a SplitMix64 state,
// the form the engine hands the fused expansion.
type normStream struct{ state uint64 }

func (n *normStream) FillNorm(dst []float64) { znorm.Fill(dst, &n.state) }

// run executes every probe and returns the costs the derived shares need.
func (p *prober) run(scad *scadWorkload) (probeCosts, error) {
	var pc probeCosts
	lanes := engine.DefaultLanes
	opt := attack.DefaultFig3Options()
	opt.Rounds, opt.Averages = 1, 1 // the attack-stream shape
	tgt, err := target.Get("aes")
	if err != nil {
		return pc, err
	}
	inst, err := tgt.New(opt.Core, tgt.Info().DefaultKey, opt.Rounds, 8)
	if err != nil {
		return pc, err
	}
	rng := rand.New(rand.NewSource(p.cfg.seed))
	pts := make([][]byte, lanes)
	classes := make([]int, lanes)
	for i := range pts {
		pts[i] = make([]byte, aes.BlockSize)
		rng.Read(pts[i])
		classes[i] = inst.Class(0, pts[i])
	}
	initLane := func(lane int, core *pipeline.Core) error { inst.InitCore(core, pts[lane]); return nil }
	noop := func(int, []float64, *pipeline.Core) error { return nil }

	// engine.verify_ms and replay.compile_ms: a fresh synthesizer's
	// verify window, then its first batch.
	var synth *engine.Synthesizer
	var verify, compile []float64
	_, err = p.timed("probe.engine.verify", func() error {
		s, err := engine.NewSynthesizer(engine.ModeAuto, opt.Core, inst.Program())
		if err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < engine.VerifyRuns; i++ {
			pt := pts[i%lanes]
			if err := s.Run(func(c *pipeline.Core) { inst.InitCore(c, pt) },
				func(pipeline.Timeline, *pipeline.Core) error { return nil }); err != nil {
				return err
			}
		}
		verify = append(verify, time.Since(t0).Seconds())
		t0 = time.Now()
		if err := s.RunBatch(&opt.Model, lanes, initLane, noop); err != nil {
			return fmt.Errorf("first batch after the verify window: %v (fallback %q, batch disabled %q)",
				err, s.FallbackReason(), s.BatchDisabledReason())
		}
		compile = append(compile, time.Since(t0).Seconds())
		synth = s
		return nil
	})
	if err != nil {
		return pc, err
	}
	pc.verifyMs, pc.compileMs = median(verify)*1e3, median(compile)*1e3
	p.put("engine.verify_ms", pc.verifyMs)
	p.put("replay.compile_ms", pc.compileMs)

	// replay.batch_vm_us_per_trace, keeping one batch's power rows.
	rows := make([][]float64, lanes)
	keep := func(lane int, cycles []float64, _ *pipeline.Core) error {
		rows[lane] = append(rows[lane][:0], cycles...)
		return nil
	}
	vm, err := p.timed("probe.replay.batch_vm", func() error { return synth.RunBatch(&opt.Model, lanes, initLane, keep) })
	if err != nil {
		return pc, err
	}
	p.batchRuns = synth.BatchRuns()
	pc.batchVMUs = vm / float64(lanes) * 1e6
	p.put("replay.batch_vm_us_per_trace", pc.batchVMUs)

	// power.expand_us_per_trace: fused expansion of that batch.
	be := power.BatchExpand{Rows: rows, Out: make([]trace.Trace, lanes), Noise: make([]power.NormSource, lanes), Lanes: lanes, Avg: opt.Averages}
	for i := range be.Noise {
		be.Noise[i] = &normStream{state: uint64(i) + 1}
	}
	ex, err := p.timed("probe.power.expand", func() error { opt.Model.ExpandCyclesBatch(&be); return nil })
	if err != nil {
		return pc, err
	}
	pc.expandUs = ex / float64(lanes) * 1e6
	p.put("power.expand_us_per_trace", pc.expandUs)

	// sca.class_add_us_per_trace and sca.rank_ms on the expanded traces.
	batch := make([][]float64, lanes)
	for i, t := range be.Out {
		batch[i] = t
	}
	acc, err := sca.NewClassCPA(len(batch[0]), inst.ClassTable(0))
	if err != nil {
		return pc, err
	}
	add, err := p.timed("probe.sca.class_add", func() error { return acc.AddBatch(classes, batch) })
	if err != nil {
		return pc, err
	}
	pc.classAddUs = add / float64(lanes) * 1e6
	p.put("sca.class_add_us_per_trace", pc.classAddUs)
	trueKey := int(inst.TrueKeyByte(0))
	rank, err := p.timed("probe.sca.rank", func() error { acc.Result(); acc.Peak(trueKey); return nil })
	if err != nil {
		return pc, err
	}
	p.put("sca.rank_ms", rank*1e3)

	if err := p.simulate(inst, opt.Core, pts); err != nil {
		return pc, err
	}
	if err := p.acquire(); err != nil {
		return pc, err
	}
	if err := p.masked(); err != nil {
		return pc, err
	}
	if err := p.store(scad); err != nil {
		return pc, err
	}
	return pc, nil
}

// simulate times pipeline.Core.Run on the one-round AES program.
func (p *prober) simulate(inst target.Instance, cfg pipeline.Config, pts [][]byte) error {
	core := pipeline.MustNew(cfg, nil)
	core.SetReuseBuffers(true)
	const runs = 16
	var cycles int64
	var perRun []float64
	_, err := p.timed("probe.pipeline.simulate", func() error {
		var busy time.Duration
		for i := 0; i < runs; i++ {
			core.ResetState()
			core.SetHierarchy(nil)
			core.Mem().Wipe()
			inst.InitCore(core, pts[i])
			t0 := time.Now()
			res, err := core.Run(inst.Program())
			busy += time.Since(t0)
			if err != nil {
				return err
			}
			cycles = res.Cycles
		}
		// Only the time inside Run counts; the round also resets state.
		perRun = append(perRun, busy.Seconds()/runs)
		return nil
	})
	if err != nil {
		return err
	}
	sec := median(perRun)
	p.put("pipeline.simulate_us_per_run", sec*1e6)
	p.put("pipeline.sim_cycles_per_s", float64(cycles)/sec)
	p.put("pipeline.cycles_per_run", float64(cycles))
	return nil
}

// acquire times power.Model.AveragedCyclesInto at table 2's averaging
// on the cycle powers of a table 2 sequence.
func (p *prober) acquire() error {
	b, ok := leakscan.BenchmarkByRow(1)
	if !ok {
		return fmt.Errorf("probe acquire: table 2 row 1 missing")
	}
	pad := strings.Repeat("nop\n", 12)
	prog, err := isa.Assemble(pad + b.Seq + "\n" + pad)
	if err != nil {
		return err
	}
	lopt := leakscan.DefaultOptions()
	core, err := pipeline.New(lopt.Core, nil)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(p.cfg.seed))
	b.Setup(rng, core)
	res, err := core.Run(prog)
	if err != nil {
		return err
	}
	cycles := lopt.Model.CyclePowers(nil, res.Timeline)
	const per = 64
	var dst, tmp trace.Trace
	sec, err := p.timed("probe.power.acquire", func() error {
		for i := 0; i < per; i++ {
			dst, tmp = lopt.Model.AveragedCyclesInto(dst, tmp, cycles, rng, lopt.Averages)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.put("power.acquire_us_per_trace", sec/per*1e6)
	return nil
}

// masked times the countermeasures campaign's per-trace layers: the
// masked lookup gadget's simulation, scalar synthesis over its
// timeline, and second-order class accumulation over its traces.
func (p *prober) masked() error {
	kopt := masking.DefaultKeyedOptions()
	g := masking.NewMaskedLookupGadget()
	rng := rand.New(rand.NewSource(p.cfg.seed))
	const per = 64
	var res *pipeline.Result
	sec, err := p.timed("probe.masking.gadget_run", func() error {
		for i := 0; i < per; i++ {
			var err error
			if res, _, err = g.Run(kopt.Core, rng, byte(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.put("masking.gadget_run_us", sec/per*1e6)

	traces := make([]trace.Trace, per)
	var tmp trace.Trace
	sec, err = p.timed("probe.power.synthesize", func() error {
		for i := range traces {
			traces[i], tmp = kopt.Model.SynthesizeAveragedInto(traces[i], tmp, res.Timeline, rng, kopt.Averages)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.put("power.synthesize_us_per_trace", sec/per*1e6)

	// The second-order window is the countermeasures campaign's widest:
	// the jitter-padded sbox schedule's 124 raw samples (7750 pairs).
	// Accumulation cost depends on the shape only, so the gadget traces
	// are zero-extended to it.
	const raw = 124
	means := make([]float64, raw)
	batch := make([][]float64, per)
	classes := make([]int, per)
	for i, t := range traces {
		batch[i] = t.Resize(raw)
		classes[i] = rng.Intn(256)
		for s, v := range batch[i] {
			means[s] += v / per
		}
	}
	acc, err := sca.NewClassCPA2(raw, aes.SubBytesClassTable(), means, 0, raw)
	if err != nil {
		return err
	}
	sec, err = p.timed("probe.sca.class2_add", func() error { return acc.AddBatch(classes, batch) })
	if err != nil {
		return err
	}
	p.put("sca.class2_add_us_per_trace", sec/per*1e6)
	return nil
}

// store times the trace store and the out-of-core CPA directly on the
// scad workload's upload bytes; the gaps to the scad figures are the
// serve layer's overhead.
func (p *prober) store(w *scadWorkload) error {
	dir, err := os.MkdirTemp(p.cfg.tmp, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	mb := float64(len(w.stream)) / 1e6
	n := 0
	var path string
	ingest, err := p.rounds("probe.tracestore.ingest", 3, 0, func() error {
		n++
		path = filepath.Join(dir, fmt.Sprint(n))
		return tracestore.Ingest(path, bytes.NewReader(w.stream), 0)
	})
	if err != nil {
		return err
	}
	p.put("tracestore.ingest_mb_per_s", mb/ingest)
	st, err := tracestore.Open(path)
	if err != nil {
		return err
	}
	defer st.Close()
	var quarantined int
	read, err := p.rounds("probe.tracestore.verify", 3, 0, func() error {
		stats, err := st.Verify()
		quarantined = stats.QuarantinedChunks
		return err
	})
	if err != nil {
		return err
	}
	p.put("tracestore.read_mb_per_s", mb/read)
	p.put("tracestore.quarantined_chunks", float64(quarantined))
	var res *attack.StoreCPAResult
	cpa, err := p.rounds("probe.attack.store_cpa", 3, 0, func() error {
		var err error
		res, err = attack.RunStoreCPA(st, attack.StoreCPAOptions{KeyByte: w.keyByte, Key: w.key})
		return err
	})
	if err != nil {
		return err
	}
	if !res.Complete || res.Rank != 0 {
		return fmt.Errorf("probe store_cpa: complete=%v rank=%d", res.Complete, res.Rank)
	}
	p.put("attack.store_cpa_traces_per_s", float64(res.Traces)/cpa)
	return nil
}
