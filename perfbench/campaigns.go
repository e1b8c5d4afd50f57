package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
)

// campaignSpecs are the committed campaign specs, in pass order.
var campaignSpecs = []string{"paper", "countermeasures", "multicipher", "smoke"}

// committedCampaign is one committed spec with the result bytes every
// run of it must reproduce.
type committedCampaign struct {
	name string
	spec *campaign.Spec
	want []byte
}

// campaigns runs the committed specs through campaign.Run at Shards 1
// and byte-compares each encoding with its committed results file. The
// seeds are the specs' own: the check is the committed bytes.
type campaigns struct {
	cfg   config
	specs []committedCampaign
}

func newCampaigns(cfg config) *campaigns { return &campaigns{cfg: cfg} }

func (w *campaigns) name() string { return "campaigns" }

// setup loads, validates and enumerates every committed spec and reads
// its committed results.
func (w *campaigns) setup() error {
	names := campaignSpecs
	if w.cfg.shrink {
		names = []string{"smoke"}
	}
	w.specs = w.specs[:0]
	for _, name := range names {
		base := filepath.Join(w.cfg.root, "campaigns", name)
		spec, err := campaign.LoadSpec(base + ".json")
		if err != nil {
			return err
		}
		if _, err := spec.Enumerate(); err != nil {
			return fmt.Errorf("campaign %s: %w", name, err)
		}
		want, err := os.ReadFile(base + ".results.json")
		if err != nil {
			return err
		}
		if _, err := campaign.DecodeResults(want); err != nil {
			return fmt.Errorf("campaign %s: committed results: %w", name, err)
		}
		w.specs = append(w.specs, committedCampaign{name: name, spec: spec, want: want})
	}
	return nil
}

// pass runs every spec once. Scenario latencies come from OnScenario
// deltas, which at Shards 1 tile each spec's run.
func (w *campaigns) pass(tr *tracer) *passResult {
	p := newPassResult()
	root, end := tr.begin("campaigns.pass", 0, "")
	kinds := map[string]float64{}
	var wall time.Duration
	for _, c := range w.specs {
		specID, endSpec := tr.begin("campaign."+c.name, root, c.name)
		last := time.Now()
		start := last
		opt := campaign.RunOptions{
			Workers: w.cfg.load,
			Shards:  1,
			OnScenario: func(sr *campaign.ScenarioResult, _ bool) {
				now := time.Now()
				tr.add("campaign.scenario."+string(sr.Kind), specID, c.name+"/"+sr.ID, last, now)
				p.LatMs = append(p.LatMs, ms(now.Sub(last)))
				kinds[string(sr.Kind)] += now.Sub(last).Seconds()
				last = now
			},
		}
		res, err := campaign.Run(c.spec, opt)
		took := time.Since(start)
		endSpec()
		wall += took
		p.Metrics["campaign."+c.name+"_s"] = took.Seconds()
		p.Ops++
		if err != nil {
			p.fail("campaign %s: %v", c.name, err)
			continue
		}
		p.checked(func() {
			if bad := diffCampaign(res, c.want); bad != "" {
				p.fail("campaign %s: %s", c.name, bad)
			}
		})
	}
	end()
	p.Root = root
	p.Wall = wall.Seconds()
	p.Metrics["campaign_s"] = p.Wall
	for k, v := range kinds {
		p.Metrics["campaign."+k+"_s"] = v
	}
	p.Counters["scenarios"] = len(p.LatMs)
	return p
}

// diffCampaign returns "" when res encodes to exactly want, and
// otherwise names the first scenario that differs (or the header).
func diffCampaign(res *campaign.Results, want []byte) string {
	got := res.EncodeJSON()
	if bytes.Equal(got, want) {
		return ""
	}
	committed, err := campaign.DecodeResults(want)
	if err != nil {
		return "committed results unreadable: " + err.Error()
	}
	for i := range res.Scenarios {
		if i >= len(committed.Scenarios) {
			return fmt.Sprintf("extra scenario %s", res.Scenarios[i].ID)
		}
		a, _ := json.Marshal(&res.Scenarios[i])
		b, _ := json.Marshal(&committed.Scenarios[i])
		if !bytes.Equal(a, b) {
			return fmt.Sprintf("scenario %s differs from the committed result", res.Scenarios[i].ID)
		}
	}
	return "encoding differs from the committed bytes"
}
