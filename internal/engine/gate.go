package engine

import "context"

// Gate bounds the number of chunks synthesizing concurrently across
// every Run that shares it. A long-running process serving many
// overlapping jobs hands the same Gate to each job's Config, so total
// CPU pressure stays at the gate's width no matter how many jobs are in
// flight — each individual job still produces bit-identical results,
// because a gate only delays chunk synthesis, never reorders the
// reducer's strictly ascending chunk accumulation.
//
// A nil *Gate is valid and admits everything.
type Gate struct {
	slots chan struct{}
}

// NewGate returns a gate admitting at most width concurrent chunk
// syntheses; width <= 0 selects 1.
func NewGate(width int) *Gate {
	if width < 1 {
		width = 1
	}
	return &Gate{slots: make(chan struct{}, width)}
}

// Width reports the gate's concurrency bound (0 for a nil gate).
func (g *Gate) Width() int {
	if g == nil {
		return 0
	}
	return cap(g.slots)
}

// acquire takes one slot, abandoning the wait when ctx is done.
func (g *Gate) acquire(ctx context.Context) error {
	if g == nil {
		return nil
	}
	if ctx == nil {
		g.slots <- struct{}{}
		return nil
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// tryAcquire takes one slot if one is free at this moment and reports
// whether it did; it never waits.
func (g *Gate) tryAcquire() bool {
	if g == nil {
		return true
	}
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// release returns a slot taken by acquire or tryAcquire.
func (g *Gate) release() {
	if g == nil {
		return
	}
	<-g.slots
}
