package engine

import (
	"sync"
	"sync/atomic"
)

// orderedChunks is the scheduler under runChunked: a pool of workers
// maps work over the chunk indexes [0, n) while the caller's
// reduce consumes the results in strictly ascending index order.
//
// Dispatch is windowed: at most workers+2 chunks may be in flight
// beyond the reduce frontier, so even when one early chunk is slow the
// out-of-order results parked in the reorder buffer stay bounded by the
// pool size — memory never grows with the total chunk count.
//
// While serial(idx) reports true, chunks are dispatched one at a time,
// each only after the previous one was reduced: the synthesizers'
// verification windows must see their executions in trace order. serial
// is asked before each dispatch, with every earlier chunk reduced, until
// it first reports false — it is never asked again — so which chunks run
// serially depends only on what the earlier chunks did. A nil serial
// never serializes.
// The feeder waits before dispatching, so no worker holds a Gate slot
// while the barrier is closed.
//
// The first error from work or reduce cancels the pool and is returned.
func orderedChunks[T any](workers, n int, serial func(idx int) bool, work func(idx int) (T, error), reduce func(idx int, v T) error) error {
	if workers > n {
		workers = n
	}
	type result struct {
		idx int
		v   T
		err error
	}
	jobs := make(chan int)
	results := make(chan result, workers)
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for idx := range jobs {
				v, err := work(idx)
				select {
				case results <- result{idx, v, err}:
				case <-done:
					return
				}
			}
		}()
	}

	// The dispatch window: one token per chunk allowed past the reduce
	// frontier. The feeder takes a token per dispatched chunk; the
	// reducer returns it once that chunk is folded in.
	window := workers + 2
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}
	// reduced carries one signal per serial chunk folded in; nSerial
	// counts the leading chunks dispatched serially.
	reduced := make(chan struct{}, 1)
	var nSerial atomic.Int64
	go func() {
		defer close(jobs)
		for idx := 0; idx < n; idx++ {
			if idx > 0 && int64(idx) == nSerial.Load() {
				select {
				case <-reduced:
				case <-done:
					return
				}
			}
			if int64(idx) == nSerial.Load() && serial != nil && serial(idx) {
				nSerial.Store(int64(idx) + 1)
			}
			select {
			case <-tokens:
			case <-done:
				return
			}
			select {
			case jobs <- idx:
			case <-done:
				return
			}
		}
	}()

	defer func() {
		close(done)
		wg.Wait()
	}()
	pending := make(map[int]T, window)
	for next := 0; next < n; {
		r := <-results
		if r.err != nil {
			return r.err
		}
		pending[r.idx] = r.v
		for {
			v, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if err := reduce(next, v); err != nil {
				return err
			}
			if int64(next) < nSerial.Load() {
				// Never blocks: the feeder takes each signal before it
				// dispatches the next chunk.
				reduced <- struct{}{}
			}
			next++
			// Never blocks: the chunk just reduced held a token.
			tokens <- struct{}{}
		}
	}
	return nil
}
