package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run writes them out. A nil
// *tracer records nothing, so untraced passes call the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID and the function that closes it.
func (t *tracer) begin(name string, parent int, req string) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: -1})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// add records a span whose interval was measured by the caller.
func (t *tracer) add(name string, parent int, req string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations in milliseconds of every span named
// name whose parent is under root (root 0 matches everything).
func durations(spans []span, name string, root int) []float64 {
	under := descendants(spans, root)
	var out []float64
	for i := range spans {
		if spans[i].Name == name && (root == 0 || under[spans[i].ID]) {
			out = append(out, float64(spans[i].dur())/1e6)
		}
	}
	return out
}

// descendants returns the set of span IDs below root.
func descendants(spans []span, root int) map[int]bool {
	in := map[int]bool{root: true}
	// Spans are appended after their parents open, so one ordered sweep
	// sees every parent before its children.
	for _, s := range spans {
		if in[s.Parent] {
			in[s.ID] = true
		}
	}
	delete(in, root)
	return in
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children's intervals covers.
// Concurrent children (closed-loop clients) overlap, so the union, not
// the sum, is subtracted.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		covered, curLo, curHi := int64(0), int64(-1), int64(-1)
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		covered += curHi - curLo
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layerSummary aggregates spans by name: call count, total and self
// milliseconds.
type layerSummary struct {
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func summarize(spans []span) map[string]*layerSummary {
	self := selfTimes(spans)
	out := map[string]*layerSummary{}
	for _, s := range spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerSummary{}
			out[s.Name] = ls
		}
		ls.Calls++
		ls.TotalMs += float64(s.dur()) / 1e6
		ls.SelfMs += float64(self[s.ID]) / 1e6
	}
	return out
}

// writeSpans writes the spans and their per-name summary as one JSON
// document.
func writeSpans(path string, spans []span) error {
	raw, err := json.Marshal(struct {
		Spans   []span                   `json:"spans"`
		Summary map[string]*layerSummary `json:"summary"`
	}{spans, summarize(spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
