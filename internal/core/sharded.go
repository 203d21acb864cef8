package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"uncertts/internal/qerr"
)

// RunSharded executes fn over contiguous chunks of the index space [0, n):
// the space is split into ceil(n/chunk) chunks and workers goroutines pull
// the next unclaimed chunk off a shared atomic cursor until none remain —
// chunked work stealing, without a channel send per item. Callers shard
// whatever they like (queries, candidate ranges, query x shard pairs) into
// the flat index space.
//
// chunk <= 0 picks a size that gives each worker several chunks to steal
// (good load balancing without contention on the cursor); workers <= 0 uses
// GOMAXPROCS. fn is called as fn(lo, hi) for each chunk [lo, hi) and must
// be safe for concurrent invocation on disjoint ranges. After the first
// error, workers stop claiming new chunks; the error reported is the one
// from the lowest-indexed failed chunk.
func RunSharded(n, chunk, workers int, fn func(lo, hi int) error) error {
	return RunShardedCtx(context.Background(), n, chunk, workers, fn)
}

// RunShardedCtx is RunSharded under a context: workers poll ctx at every
// chunk boundary, stop claiming chunks once it is cancelled, drain (the
// call does not return while any fn invocation is still running) and
// report a qerr.Cancelled error wrapping ctx.Err(). Work already completed
// is not rolled back; a run whose last chunk was claimed before the
// cancellation landed completes normally and returns nil. Promptness
// within a chunk is the callee's business: long-running fn bodies that
// want mid-chunk cancellation should poll ctx.Done() themselves.
func RunShardedCtx(ctx context.Context, n, chunk, workers int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if chunk <= 0 {
		chunk = n / (workers * 4)
		if chunk < 1 {
			chunk = 1
		}
	}
	numChunks := (n + chunk - 1) / chunk
	if workers > numChunks {
		workers = numChunks
	}
	done := ctx.Done()
	if workers <= 1 {
		for c := 0; c < numChunks; c++ {
			select {
			case <-done:
				return qerr.Cancelled(ctx.Err())
			default:
			}
			lo := c * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if err := fn(lo, hi); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, numChunks)
	var cursor atomic.Int64
	var failed atomic.Bool
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					cancelled.Store(true)
					return
				default:
				}
				c := int(cursor.Add(1)) - 1
				if c >= numChunks || failed.Load() {
					return
				}
				lo := c * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				if err := fn(lo, hi); err != nil {
					errs[c] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if cancelled.Load() {
		return qerr.Cancelled(ctx.Err())
	}
	return nil
}
