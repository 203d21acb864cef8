package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"uncertts/internal/qerr"
)

func TestRunShardedCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000} {
		for _, chunk := range []int{0, 1, 3, 64, 5000} {
			for _, workers := range []int{0, 1, 2, 8, 64} {
				hits := make([]int32, n)
				err := RunShardedCtx(context.Background(), n, chunk, workers, func(lo, hi int) error {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("bad range [%d, %d) for n=%d", lo, hi, n)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("n=%d chunk=%d workers=%d: %v", n, chunk, workers, err)
				}
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("n=%d chunk=%d workers=%d: index %d hit %d times", n, chunk, workers, i, h)
					}
				}
			}
		}
	}
}

func TestRunShardedPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := RunShardedCtx(context.Background(), 100, 10, workers, func(lo, hi int) error {
			if lo == 50 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want boom", workers, err)
		}
	}
}

func TestRunShardedReportsTheLowestFailedChunk(t *testing.T) {
	// Every chunk from the sixth on fails, on many workers racing to claim:
	// the error must be the sixth chunk's, as a serial loop would report.
	for round := 0; round < 2000; round++ {
		err := RunShardedCtx(context.Background(), 64, 1, 8, func(lo, hi int) error {
			if lo >= 5 {
				return fmt.Errorf("chunk %d", lo)
			}
			return nil
		})
		if err == nil || err.Error() != "chunk 5" {
			t.Fatalf("round %d: err = %v, want chunk 5", round, err)
		}
	}
}

func TestRunShardedStopsClaimingAfterError(t *testing.T) {
	// With a single worker the executor must stop at the failing chunk.
	var ran atomic.Int64
	err := RunShardedCtx(context.Background(), 100, 10, 1, func(lo, hi int) error {
		ran.Add(1)
		if lo == 20 {
			return errors.New("stop here")
		}
		return nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("single worker ran %d chunks after failure at the third, want 3", got)
	}
}

func TestRunShardedCtxCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		errCh := make(chan error, 1)
		var releaseOnce sync.Once
		release := make(chan struct{})
		go func() {
			errCh <- RunShardedCtx(ctx, 1000, 1, workers, func(lo, hi int) error {
				ran.Add(1)
				releaseOnce.Do(func() { close(release) })
				<-ctx.Done() // hold every claimed chunk until the cancel
				return nil
			})
		}()
		<-release
		cancel()
		err := <-errCh
		if !errors.Is(err, qerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCancelled wrapping context.Canceled", workers, err)
		}
		// Workers must stop claiming promptly: far fewer chunks than the
		// total ran.
		if got := ran.Load(); got >= 1000 {
			t.Fatalf("workers=%d: all %d chunks ran despite cancellation", workers, got)
		}
	}
}

func TestRunShardedCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := RunShardedCtx(ctx, 100, 10, 4, func(lo, hi int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, qerr.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d chunks ran under a pre-cancelled context", got)
	}
}

func TestRunShardedCtxCompletesWithoutCancel(t *testing.T) {
	var ran atomic.Int64
	err := RunShardedCtx(context.Background(), 100, 10, 4, func(lo, hi int) error {
		ran.Add(int64(hi - lo))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 100 {
		t.Fatalf("ran %d items, want 100", got)
	}
}
