package main

import (
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/target"
)

// attackStreamTraces is the acquisition count of every streaming CPA in
// the attack-stream list.
const attackStreamTraces = 10000

// attackCall is one streaming CPA of the attack-stream list.
type attackCall struct {
	span    string // span and per-layer metric stem, e.g. "attack.fig3_aes"
	target  string
	fullKey bool
	key     []byte
	opt     attack.Fig3Options
}

// banks is the number of class banks the call accumulates.
func (c *attackCall) banks() int {
	if !c.fullKey {
		return 1
	}
	tgt, _ := target.Get(c.target)
	return tgt.Info().AttackBytes
}

// attackStream runs a fixed list of streaming CPAs, each through the
// public attack API with a fresh synthesizer, so every call pays its own
// verify window as every real run does.
type attackStream struct {
	cfg   config
	calls []attackCall
	// want holds each call's response digest from the first pass; every
	// later pass must reproduce it.
	want []string
}

func newAttackStream(cfg config) *attackStream { return &attackStream{cfg: cfg} }

func (w *attackStream) name() string { return "attack-stream" }

// setup builds the call list — AES figure 3 on four seeds, AES full key,
// and figure 3 on each other registered cipher, every seed derived from
// the benchmark seed — and validates each call by building its target
// instance and checking one block against the reference cipher.
func (w *attackStream) setup() error {
	traces := attackStreamTraces
	if w.cfg.shrink {
		traces = 600
	}
	opt := func(label string) attack.Fig3Options {
		o := attack.DefaultFig3Options()
		o.Traces = traces
		o.Rounds = 1
		o.Averages = 1
		o.Workers = w.cfg.load
		o.Seed = engine.DeriveSeed(w.cfg.seed, "attack-stream/"+label)
		return o
	}
	var calls []attackCall
	add := func(span, name string, fullKey bool, label string) error {
		tgt, err := target.Get(name)
		if err != nil {
			return err
		}
		key, err := tgt.Info().ParseKey("")
		if err != nil {
			return err
		}
		c := attackCall{span: span, target: name, fullKey: fullKey, key: key, opt: opt(label)}
		inst, err := tgt.New(c.opt.Core, key, c.opt.Rounds, 8)
		if err != nil {
			return err
		}
		if _, err := target.Run(inst, c.opt.Core, make([]byte, tgt.Info().BlockSize)); err != nil {
			return fmt.Errorf("%s: %w", span, err)
		}
		calls = append(calls, c)
		return nil
	}
	for i := 0; i < 4; i++ {
		if err := add("attack.fig3_aes", "aes", false, fmt.Sprintf("fig3-aes-%d", i)); err != nil {
			return err
		}
	}
	if err := add("attack.fullkey_aes", "aes", true, "fullkey-aes"); err != nil {
		return err
	}
	for _, name := range []string{"present", "speck64", "chacha20"} {
		if err := add("attack.fig3_"+name, name, false, "fig3-"+name); err != nil {
			return err
		}
	}
	w.calls, w.want = calls, nil
	return nil
}

// pass runs every call once and checks it: every key byte recovered and
// the response digest identical to the first pass's.
func (w *attackStream) pass(tr *tracer) *passResult {
	p := newPassResult()
	root, end := tr.begin("attack-stream.pass", 0, "")
	var digests []string
	traces, cpaRuns, replayed, batched := 0, 0, 0, 0
	fallbacks := map[string]int{}
	t0 := time.Now()
	for i, c := range w.calls {
		req := fmt.Sprintf("call-%d", i)
		start := time.Now()
		out, ok, path, err := c.run()
		stop := time.Now()
		tr.add(c.span, root, req, start, stop)
		p.LatMs = append(p.LatMs, ms(stop.Sub(start)))
		p.Ops++
		traces += c.opt.Traces
		if path != nil {
			cpaRuns++
			if path.Replayed {
				replayed++
			}
			if path.Batched {
				batched++
			}
			fallbacks[path.FallbackReason]++
		}
		p.checked(func() {
			digest := ""
			if err == nil {
				digest = campaign.CanonicalDigest(out)
			}
			digests = append(digests, digest)
			switch {
			case err != nil:
				p.fail("%s: %v", c.span, err)
			case !ok:
				p.fail("%s: key not recovered", c.span)
			case w.want != nil && digest != w.want[i]:
				p.fail("%s: response digest changed across passes", c.span)
			}
		})
	}
	p.Wall = time.Since(t0).Seconds() - p.CheckWall
	end()
	p.Root = root
	if w.want == nil {
		w.want = digests
	}
	p.Metrics["attack_traces_per_s"] = float64(traces) / p.Wall
	p.Counters["traces"] = traces
	p.Counters["cpa_runs"] = cpaRuns
	p.Counters["replayed_runs"] = replayed
	p.Counters["batched_runs"] = batched
	p.Counters["fallback_reasons"] = fallbacks
	return p
}

// run performs the call and returns the response to digest, whether
// every attacked key byte ranked first, and — for single-byte CPAs,
// whose result reports it — the synthesis path taken.
func (c *attackCall) run() (out any, ok bool, path *attack.Fig3Result, err error) {
	if c.fullKey {
		res, err := attack.RecoverKey(c.target, c.key, c.opt)
		if err != nil {
			return nil, false, nil, err
		}
		return res, res.Success(), nil, nil
	}
	res, err := attack.RunCPA(c.target, c.key, c.opt)
	if err != nil {
		return nil, false, nil, err
	}
	// The path fields depend on scheduling, never on the result bits;
	// they are reported as counters and kept out of the digest.
	resp := *res
	resp.Replayed, resp.Batched, resp.FallbackReason = false, false, ""
	return &resp, res.Rank == 0, res, nil
}
