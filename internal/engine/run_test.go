package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"uncertts/internal/munich"
	"uncertts/internal/qerr"
)

// runConfigs pairs every measure with the engine options its Run tests
// use; the prob workload (which carries samples) serves all seven.
func runConfigs() []Options {
	return []Options{
		{Measure: MeasureEuclidean},
		{Measure: MeasureUMA},
		{Measure: MeasureUEMA},
		{Measure: MeasureDTW},
		{Measure: MeasureDUST},
		{Measure: MeasurePROUD},
		{Measure: MeasureMUNICH, MUNICH: munich.Options{Bins: 512}},
	}
}

func TestRunValidationSentinels(t *testing.T) {
	w := probWorkload(t, 12, 16)
	e := newEngine(t, w.Snapshot(), Options{Measure: MeasureEuclidean})
	qi := 0
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"measure mismatch", Request{Measure: MeasureDTW, Kind: KindTopK, Index: &qi, K: 3}, qerr.ErrBadRequest},
		{"unknown kind", Request{Kind: Kind(99), Index: &qi}, qerr.ErrBadRequest},
		{"prob kind on distance measure", Request{Kind: KindProbRange, Index: &qi, Eps: 1, Tau: 0.5}, qerr.ErrBadRequest},
		{"no target", Request{Kind: KindTopK, K: 3}, qerr.ErrBadRequest},
		{"two targets", Request{Kind: KindTopK, K: 3, Index: &qi, AdHoc: &Query{}}, qerr.ErrBadRequest},
		{"k = 0", Request{Kind: KindTopK, Index: &qi}, qerr.ErrBadRequest},
		{"negative eps", Request{Kind: KindRange, Index: &qi, Eps: -1}, qerr.ErrBadRequest},
		{"negative workers", Request{Kind: KindTopK, Index: &qi, K: 3, Workers: -1}, qerr.ErrBadRequest},
		{"negative offset", Request{Kind: KindTopK, Index: &qi, K: 3, Offset: -1}, qerr.ErrBadRequest},
		{"negative limit", Request{Kind: KindTopK, Index: &qi, K: 3, Limit: -1}, qerr.ErrBadRequest},
		{"ad-hoc length mismatch", Request{Kind: KindTopK, K: 3, AdHoc: &Query{Values: make([]float64, 5)}}, qerr.ErrLengthMismatch},
	}
	for _, tc := range cases {
		if _, err := e.Run(context.Background(), tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// Tau domain errors are measure-specific and typed.
	pe := newEngine(t, w.Snapshot(), Options{Measure: MeasurePROUD})
	for _, tau := range []float64{-0.1, 0, 1, 1.5} {
		req := Request{Measure: MeasurePROUD, Kind: KindProbRange, Index: &qi, Eps: 1, Tau: tau}
		if _, err := pe.Run(context.Background(), req); !errors.Is(err, qerr.ErrBadRequest) {
			t.Errorf("PROUD tau=%v: err = %v, want ErrBadRequest", tau, err)
		}
	}

	// Parsers classify failures too.
	if _, err := ParseMeasure("cosine"); !errors.Is(err, qerr.ErrUnknownMeasure) {
		t.Errorf("ParseMeasure: err = %v, want ErrUnknownMeasure", err)
	}
	if _, err := ParseKind("knn"); !errors.Is(err, qerr.ErrBadRequest) {
		t.Errorf("ParseKind: err = %v, want ErrBadRequest", err)
	}
}

func TestRunPaginationWindow(t *testing.T) {
	w := probWorkload(t, 20, 16)
	e := newEngine(t, w.Snapshot(), Options{Measure: MeasureEuclidean})
	qi := 2
	full, err := e.Run(context.Background(), Request{Kind: KindTopK, Index: &qi, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if full.Total != len(full.Neighbors) {
		t.Fatalf("Total = %d, want %d", full.Total, len(full.Neighbors))
	}
	page, err := e.Run(context.Background(), Request{Kind: KindTopK, Index: &qi, K: 10, Offset: 3, Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != full.Total {
		t.Errorf("windowed Total = %d, want %d", page.Total, full.Total)
	}
	if want := full.Neighbors[3:7]; !reflect.DeepEqual(page.Neighbors, want) {
		t.Errorf("page = %v, want %v", page.Neighbors, want)
	}
	// Offset past the end yields an empty page, not an error.
	empty, err := e.Run(context.Background(), Request{Kind: KindTopK, Index: &qi, K: 10, Offset: 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Neighbors) != 0 || empty.Total != full.Total {
		t.Errorf("past-the-end page = %v (total %d), want empty with total %d", empty.Neighbors, empty.Total, full.Total)
	}
}

// TestRunStreamMatchesRun asserts streamed items agree with the final
// result for every kind: ordered equality for the top-k kinds (emitted at
// the merge), set equality for the range kinds (emitted mid-scan, in
// shard-completion order).
func TestRunStreamMatchesRun(t *testing.T) {
	w := probWorkload(t, 24, 32)
	qi := 1

	e := newEngine(t, w.Snapshot(), Options{Measure: MeasureUEMA, Workers: 4, ShardSize: 4})
	var items []Item
	collect := func(it Item) error { items = append(items, it); return nil }

	res, err := e.RunStream(context.Background(), Request{Measure: MeasureUEMA, Kind: KindTopK, Index: &qi, K: 5}, collect)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(res.Neighbors) {
		t.Fatalf("topk streamed %d items, result has %d", len(items), len(res.Neighbors))
	}
	for i, n := range res.Neighbors {
		if items[i].ID != n.ID || items[i].Distance != n.Distance {
			t.Errorf("topk item %d = %+v, want %+v", i, items[i], n)
		}
	}

	eps := res.Neighbors[len(res.Neighbors)-1].Distance
	items = nil
	res, err = e.RunStream(context.Background(), Request{Measure: MeasureUEMA, Kind: KindRange, Index: &qi, Eps: eps}, collect)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(items))
	for i, it := range items {
		got[i] = it.ID
	}
	sort.Ints(got)
	if !reflect.DeepEqual(got, res.IDs) {
		t.Errorf("range streamed %v, result %v", got, res.IDs)
	}

	// Probabilistic kinds stream too.
	pe := newEngine(t, w.Snapshot(), Options{Measure: MeasurePROUD, Workers: 4, ShardSize: 4})
	items = nil
	res, err = pe.RunStream(context.Background(), Request{Measure: MeasurePROUD, Kind: KindProbRange, Index: &qi, Eps: w.EpsEucl(qi), Tau: 0.3}, collect)
	if err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for _, it := range items {
		got = append(got, it.ID)
	}
	sort.Ints(got)
	if !reflect.DeepEqual(got, res.IDs) {
		t.Errorf("probrange streamed %v, result %v", got, res.IDs)
	}

	// An emit error aborts the query and surfaces verbatim.
	sentinel := errors.New("client gone")
	_, err = e.RunStream(context.Background(), Request{Measure: MeasureUEMA, Kind: KindRange, Index: &qi, Eps: eps}, func(Item) error {
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("emit error: got %v, want %v", err, sentinel)
	}
}

// TestRunPreCancelledContext asserts a context cancelled before Run starts
// stops the query before any candidate is examined, for all seven measures
// at workers {1, 2, 8}, with the error carrying both sentinels.
func TestRunPreCancelledContext(t *testing.T) {
	w := probWorkload(t, 24, 32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	qi := 0
	for _, opts := range runConfigs() {
		for _, workers := range []int{1, 2, 8} {
			e := newEngine(t, w.Snapshot(), opts)
			req := Request{Measure: opts.Measure, Index: &qi, Workers: workers}
			if opts.Measure.Probabilistic() {
				req.Kind, req.Eps, req.Tau = KindProbRange, 1, 0.5
			} else {
				req.Kind, req.K = KindTopK, 3
			}
			_, err := e.Run(ctx, req)
			if !errors.Is(err, qerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
				t.Errorf("%v w=%d: err = %v, want ErrCancelled wrapping context.Canceled", opts.Measure, workers, err)
			}
			if got := e.Stats().Candidates; got != 0 {
				t.Errorf("%v w=%d: %d candidates examined under a pre-cancelled context", opts.Measure, workers, got)
			}
		}
	}
}

// TestRunCancelMidQueryEveryMeasure cancels a running query for all seven
// measures at workers {1, 2, 8}, in two shapes. At one candidate a batch a
// watcher cancels as soon as the first batch's tally lands in Stats, so the
// executor meets the cancel between batches. At the default batch size the
// 47 candidates are one batch, and a timer cancels half-way through a
// measured uncancelled run, so only the polls inside the kernels can stop
// it. Either way Run must return promptly the cancellation error or — when
// the scan beat the cancel — a result identical to an uncancelled run.
func TestRunCancelMidQueryEveryMeasure(t *testing.T) {
	w := probWorkload(t, 48, 64)
	qi := 0
	for _, opts := range runConfigs() {
		for _, workers := range []int{1, 2, 8} {
			req := Request{Measure: opts.Measure, Index: &qi, Workers: workers}
			if opts.Measure.Probabilistic() {
				req.Kind, req.Eps, req.Tau = KindProbRange, w.EpsEucl(qi), 0.3
			} else {
				req.Kind, req.K = KindTopK, 3
			}
			name := fmt.Sprintf("%v w=%d", opts.Measure, workers)

			perCandidate := opts
			perCandidate.ShardSize = 1
			pe := newEngine(t, w.Snapshot(), perCandidate)
			ctx, cancel := context.WithCancel(context.Background())
			go func(cancel context.CancelFunc) {
				for pe.Stats().Candidates == 0 {
					time.Sleep(10 * time.Microsecond)
				}
				cancel()
			}(cancel)
			checkCancelledRun(t, name+" shard=1", pe, ctx, cancel, req)

			e := newEngine(t, w.Snapshot(), opts)
			began := time.Now()
			if _, err := e.Run(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			ctx, cancel = context.WithCancel(context.Background())
			time.AfterFunc(time.Since(began)/2, cancel)
			checkCancelledRun(t, name+" one batch", e, ctx, cancel, req)
		}
	}
}

// checkCancelledRun runs req under ctx, which is being cancelled mid-query,
// and wants the cancellation, returned promptly, or the uncancelled answer.
func checkCancelledRun(t *testing.T, name string, e *Engine, ctx context.Context, cancel context.CancelFunc, req Request) {
	t.Helper()
	start := time.Now()
	res, err := e.Run(ctx, req)
	elapsed := time.Since(start)
	cancel()
	if elapsed > 10*time.Second {
		t.Fatalf("%s: Run held the executor %v after cancellation", name, elapsed)
	}
	if err != nil {
		if !errors.Is(err, qerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want a cancellation", name, err)
		}
		return
	}
	// The scan finished before the cancel landed: the result must be the
	// real answer.
	ref, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Errorf("%s: completed-under-cancel result differs from reference", name)
	}
}

// TestRunCancelInsideABatch cancels from inside the one batch of a range
// scan, deterministically: the first match emitted cancels the context, so
// the rest of the batch runs under a cancelled context that only the polls
// inside the kernels see. DTW, PROUD and MUNICH poll (between DP rows,
// prefix strides and convolution steps), so they must stop with the
// cancellation, and Stats must hold some but not all of the candidates: the
// ones the batch resolved before the cancel, which reach the counters only
// because a failed batch still adds its tally. The measures whose kernels do
// not poll may finish the batch, with the uncancelled answer.
func TestRunCancelInsideABatch(t *testing.T) {
	w := probWorkload(t, 48, 64)
	qi := 0
	total := int64(w.Len() - 1)
	polls := map[Measure]bool{MeasureDTW: true, MeasurePROUD: true, MeasureMUNICH: true}
	for _, opts := range runConfigs() {
		e := newEngine(t, w.Snapshot(), opts)
		// Widen eps until about ten candidates match, the first of them
		// well before the last candidate.
		req := Request{Measure: opts.Measure, Kind: KindRange, Index: &qi, Eps: w.EpsEucl(qi)}
		if opts.Measure.Probabilistic() {
			req.Kind, req.Tau = KindProbRange, 0.3
		}
		var ref *Result
		for {
			var err error
			if ref, err = e.Run(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			if len(ref.IDs) >= 10 {
				break
			}
			req.Eps *= 1.25
		}
		e.ResetStats()
		ctx, cancel := context.WithCancel(context.Background())
		res, err := e.RunStream(ctx, req, func(Item) error { cancel(); return nil })
		cancel()
		switch {
		case err != nil:
			if !errors.Is(err, qerr.ErrCancelled) || !errors.Is(err, context.Canceled) {
				t.Errorf("%v: err = %v, want a cancellation", opts.Measure, err)
			}
			if got := e.Stats().Candidates; got == 0 || got >= total {
				t.Errorf("%v: %d of %d candidates in Stats after a cancel inside the batch, want some but not all", opts.Measure, got, total)
			}
		case polls[opts.Measure]:
			t.Errorf("%v: the batch ran to its end under a cancelled context", opts.Measure)
		case !reflect.DeepEqual(res, ref):
			t.Errorf("%v: completed-under-cancel result differs from reference", opts.Measure)
		}
	}
}

// TestRunCancellationInterruptsLongKernels pins the mid-kernel polling: a
// DTW scan over series long enough that even one distance computation
// dwarfs the cancellation latency must stop early and return the
// cancellation quickly. Eps is so large that every candidate runs its full
// DP, and all 31 candidates are one batch, so only a poll inside the batch
// can stop it short; the timer cancels after about three measured DPs,
// leaving a wide margin on either side. Stats must then hold some but not
// all of the candidates: the batch's tally reaches them when it fails too.
// Under -race the run's first DP can outlast three timed outside it, and the
// cancel then lands before any candidate: such an attempt runs again on a
// fresh engine with the delay doubled, up to five attempts.
func TestRunCancellationInterruptsLongKernels(t *testing.T) {
	w := testWorkload(t, 32, 1024, -1) // unconstrained: n^2 DP per pair
	qi := 0
	var delay time.Duration
	for attempt := 0; attempt < 5; attempt++ {
		e := newEngine(t, w.Snapshot(), Options{Measure: MeasureDTW})
		if attempt == 0 {
			began := time.Now()
			if _, err := e.Distance(qi, 1); err != nil {
				t.Fatal(err)
			}
			delay = 3 * time.Since(began)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var watcherDone atomic.Bool
		go func() {
			defer watcherDone.Store(true)
			time.Sleep(delay)
			cancel()
		}()
		start := time.Now()
		_, err := e.Run(ctx, Request{Measure: MeasureDTW, Kind: KindRange, Index: &qi, Eps: math.MaxFloat64, Workers: 1})
		elapsed := time.Since(start)
		cancel()
		for !watcherDone.Load() {
			time.Sleep(time.Millisecond)
		}
		if !errors.Is(err, qerr.ErrCancelled) {
			t.Fatalf("attempt %d: err = %v, want cancellation (elapsed %v)", attempt, err, elapsed)
		}
		if elapsed > 5*time.Second {
			t.Errorf("attempt %d: cancellation took %v to take effect", attempt, elapsed)
		}
		// The accounting identity must survive cancellation: the interrupted
		// candidate is retracted, not left dangling in Candidates.
		st := e.Stats()
		if st.Candidates != st.Completed+st.AbandonedEarly+st.PrunedByEnvelope+st.ResolvedByBounds+st.ResolvedEarly {
			t.Errorf("attempt %d: stats identity broken after cancellation: %+v", attempt, st)
		}
		total := int64(w.Len() - 1)
		if st.Candidates > 0 && st.Candidates < total {
			return
		}
		if st.Candidates != 0 {
			t.Fatalf("attempt %d: %d of %d candidates in Stats after the cancel at %v, want some but not all", attempt, st.Candidates, total, delay)
		}
		t.Logf("attempt %d: the cancel at %v came before the first candidate; doubling the delay", attempt, delay)
		delay *= 2
	}
	t.Errorf("no attempt cancelled mid-scan: every cancel, the last at %v, came before the first candidate", delay/2)
}

// TestRunDeadlineExceeded asserts an expired deadline surfaces as both
// ErrCancelled and context.DeadlineExceeded.
func TestRunDeadlineExceeded(t *testing.T) {
	w := testWorkload(t, 16, 1024, -1)
	e := newEngine(t, w.Snapshot(), Options{Measure: MeasureDTW})
	qi := 0
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := e.Run(ctx, Request{Measure: MeasureDTW, Kind: KindTopK, Index: &qi, K: 3, Workers: 2})
	if !errors.Is(err, qerr.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want ErrCancelled wrapping context.DeadlineExceeded", err)
	}
}

func TestKindParseAndString(t *testing.T) {
	for _, k := range Kinds() {
		parsed, err := ParseKind(k.String())
		if err != nil || parsed != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), parsed, err)
		}
	}
	if KindTopK.Probabilistic() || KindRange.Probabilistic() {
		t.Error("distance kinds must not report probabilistic")
	}
	if !KindProbTopK.Probabilistic() || !KindProbRange.Probabilistic() {
		t.Error("probabilistic kinds must report probabilistic")
	}
}
