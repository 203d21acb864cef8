package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"uncertts/bench/gen"
	"uncertts/bench/stat"
)

// sample is one completed request of a measured phase.
type sample struct {
	op     string        // gen.Op name, or "insert" / "delete" for the writer
	at     time.Duration // completion, since the phase started
	lat    time.Duration
	reader int   // which closed-loop reader sent it
	cycle  int   // which cycle of that reader's stream it belongs to
	series int   // series inserted (writer samples)
	err    error // nil when the request succeeded and its answer has the right shape
}

// checkShape is the per-response check of the measured phases: cheap
// structural invariants only (the brute-force comparison runs on the verify
// set, outside the timed phases). Every corpus holds more than K+1 series, so
// a top-k answer always has K entries.
func checkShape(q gen.Query, r *queryResponse) error {
	if r.Degraded {
		return fmt.Errorf("degraded answer")
	}
	switch q.Op.Kind {
	case "topk":
		if len(r.Neighbors) != gen.K || r.Total != gen.K {
			return fmt.Errorf("%d neighbours, total %d, want %d", len(r.Neighbors), r.Total, gen.K)
		}
		for i, n := range r.Neighbors {
			if n.ID == q.ID {
				return fmt.Errorf("answer holds the query's own id %d", q.ID)
			}
			if i > 0 && n.Distance < r.Neighbors[i-1].Distance {
				return fmt.Errorf("neighbours not sorted at %d", i)
			}
		}
	default: // range, probrange
		if r.Total != len(r.IDs) {
			return fmt.Errorf("%d ids but total %d", len(r.IDs), r.Total)
		}
		for i, id := range r.IDs {
			if id == q.ID {
				return fmt.Errorf("answer holds the query's own id %d", q.ID)
			}
			if i > 0 && id <= r.IDs[i-1] {
				return fmt.Errorf("ids not ascending at %d", i)
			}
		}
	}
	return nil
}

// reader is one closed-loop query client: it sends its next request only
// after the previous one completed.
func reader(cl *client, id int, st *gen.Stream, start time.Time, dur time.Duration) []sample {
	var out []sample
	for time.Since(start) < dur {
		q, cycle := st.Next()
		var r queryResponse
		t0 := time.Now()
		err := cl.post("/query", q.Body, &r)
		lat := time.Since(t0)
		if err == nil {
			err = checkShape(q, &r)
		}
		out = append(out, sample{op: q.Op.Name, at: time.Since(start), lat: lat, reader: id, cycle: cycle, err: err})
	}
	return out
}

// Writer cycle of mixed_durable: seven inserts of eight series, then one
// delete of the 56 oldest of its own inserts, so the corpus size is the same
// after every cycle. Mutations are paced, one every writeInterval, so that
// the reader is measured under the same write load on every commit: a writer
// going as fast as it can made a faster write path look like a slower read
// path, and moved the reader's throughput by 24% between runs of the same
// code. A mutation that takes longer than the interval delays the next one;
// latency is measured from the intended send time, so the delay is counted.
const (
	writeBatch       = 8
	insertsPerDelete = 7
	writeInterval    = 100 * time.Millisecond
)

// writer is the closed-loop mutation client. It remembers what it inserted
// and not yet deleted: those series are part of the ground truth, and each of
// them must still answer after the crash.
type writer struct {
	c    *gen.Corpus
	rng  *rand.Rand
	live []inserted // oldest first
	step int
}

type inserted struct {
	id     int
	values []float64
}

func newWriter(c *gen.Corpus, seed int64) *writer {
	return &writer{c: c, rng: rand.New(rand.NewSource(seed))}
}

func (w *writer) run(cl *client, start time.Time, dur time.Duration) []sample {
	var out []sample
	for i := 0; ; i++ {
		due := time.Duration(i) * writeInterval
		if due >= dur {
			return out
		}
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		s := w.once(cl)
		s.at = time.Since(start)
		s.lat = s.at - due
		out = append(out, s)
	}
}

// once sends the next mutation of the cycle and checks its acknowledgement.
func (w *writer) once(cl *client) sample {
	w.step++
	if w.step%(insertsPerDelete+1) == 0 {
		n := writeBatch * insertsPerDelete
		req := gen.SeriesRequest{Delete: make([]int, n)}
		for i := range req.Delete {
			req.Delete[i] = w.live[i].id
		}
		var r seriesResponse
		err := cl.post("/series", gen.MustJSON(req), &r)
		if err == nil && r.Deleted != n {
			err = fmt.Errorf("deleted %d, want %d", r.Deleted, n)
		}
		if err == nil {
			w.live = w.live[n:]
		}
		return sample{op: "delete", err: err}
	}
	req := gen.SeriesRequest{Insert: make([]gen.SeriesJSON, writeBatch)}
	for i := range req.Insert {
		v, s := w.c.NewSeries(w.rng)
		req.Insert[i] = gen.SeriesJSON{Values: v, Samples: s}
	}
	var r seriesResponse
	err := cl.post("/series", gen.MustJSON(req), &r)
	if err == nil && len(r.IDs) != writeBatch {
		err = fmt.Errorf("%d ids acknowledged, want %d", len(r.IDs), writeBatch)
	}
	if err == nil {
		for i, id := range r.IDs {
			w.live = append(w.live, inserted{id: id, values: req.Insert[i].Values})
		}
	}
	return sample{op: "insert", series: writeBatch, err: err}
}

// closedLoop runs the readers (one per stream) and, when w is not nil, the
// writer, each on a connection of its own, for dur. It returns the query
// samples and the writer's samples.
func closedLoop(cl *client, streams []*gen.Stream, w *writer, dur time.Duration) (queries, writes []sample) {
	var wg sync.WaitGroup
	perReader := make([][]sample, len(streams))
	start := time.Now()
	for i, st := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perReader[i] = reader(cl, i, st, start, dur)
		}()
	}
	if w != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes = w.run(cl, start, dur)
		}()
	}
	wg.Wait()
	for _, s := range perReader {
		queries = append(queries, s...)
	}
	return queries, writes
}

// openResult is one fixed-rate phase.
type openResult struct {
	rate     int
	samples  []sample        // lat is measured from the intended send time
	lateness []time.Duration // actual send time minus intended send time
	unsent   int             // due requests never dispatched before the cut-off
	// backlogEarly and backlogLate are the mean backlog — lateness times the
	// rate: the requests that came due while one waited to be sent — over
	// the second and the last quarter of the schedule; a backlog that grows
	// between them means the rate is not sustained. Only requests that were
	// sent count; unsent ones fail the rate by themselves.
	backlogEarly, backlogLate float64
}

// openLoop sends n = rate x dur requests on a fixed schedule, request i due
// at start + i/rate, dispatched by `connections` goroutines over the same
// connections the closed loop uses. Latency runs from the due time, so a
// stall is charged to every request it delays. Dispatching stops at 1.5 x
// dur: what is still unsent then is reported, not sent.
func openLoop(send func(q gen.Query) error, queries []gen.Query, rate int, dur time.Duration) openResult {
	interval := time.Second / time.Duration(rate)
	n := len(queries)
	res := openResult{rate: rate}
	var (
		next    atomic.Int64
		mu      sync.Mutex
		backlog = make([]float64, n)
		wg      sync.WaitGroup
	)
	start := time.Now()
	cutoff := dur + dur/2
	for range connections {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				// How many requests came due while this one waited to be sent.
				behind := float64(sent-due) / float64(interval)
				if sent > cutoff {
					mu.Lock()
					res.unsent++
					mu.Unlock()
					continue
				}
				err := send(queries[i])
				done := time.Since(start)
				mu.Lock()
				res.samples = append(res.samples, sample{op: queries[i].Op.Name, at: done, lat: done - due, err: err})
				res.lateness = append(res.lateness, sent-due)
				backlog[i] = behind
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Requests are dispatched in index order, so the unsent ones are the tail.
	sent := backlog[:n-res.unsent]
	res.backlogEarly = stat.Mean(sent[len(sent)/4 : len(sent)/2])
	res.backlogLate = stat.Mean(sent[len(sent)-len(sent)/4:])
	return res
}
