package cluster

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// RetryPolicy bounds how hard the coordinator leans on one worker
// before giving up on it. Attempts beyond the first back off
// exponentially with full jitter, so N coordinator goroutines retrying
// against one recovering worker spread out instead of stampeding it.
// The policy is scheduling-only: results are byte-identical whatever
// the values.
type RetryPolicy struct {
	// MaxAttempts is the execution-attempt budget per (scenario, worker)
	// before the worker is declared lost and the scenario goes back on
	// the queue (0: 6).
	MaxAttempts int
	// BackoffBase is the pre-jitter delay after the first failure; each
	// further failure doubles it (0: 100ms).
	BackoffBase time.Duration
	// BackoffMax caps the pre-jitter delay — and any server-suggested
	// Retry-After wait (0: 5s).
	BackoffMax time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 6
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 100 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 5 * time.Second
	}
	return p
}

// jitterSource is a lockable scheduling-only RNG shared by the worker
// clients. It never touches result bytes — determinism of the merged
// artifacts comes from the engine, not from scheduling.
type jitterSource struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newJitterSource(seed int64) *jitterSource {
	if seed == 0 {
		seed = 1
	}
	return &jitterSource{rng: rand.New(rand.NewSource(seed))}
}

// backoff returns the jittered delay before retry number attempt
// (1-based): exponential growth capped at BackoffMax, then full jitter
// over [d/2, d).
func (j *jitterSource) backoff(p RetryPolicy, attempt int) time.Duration {
	d := p.BackoffBase
	for i := 1; i < attempt && d < p.BackoffMax; i++ {
		d *= 2
	}
	if d > p.BackoffMax {
		d = p.BackoffMax
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return d/2 + time.Duration(j.rng.Int63n(int64(d/2)+1))
}

// sleep waits for d or until ctx fires, reporting whether the full wait
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
