package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"uncertts/bench/gen"
)

// truth is the harness's own copy of what the server must hold: every
// acknowledged, not deleted series by id.
type truth struct {
	ids     []int // ascending
	values  map[int][]float64
	written []int // the writer's live inserts, a subset of ids
}

func newTruth(c *gen.Corpus, ids []int, wr *writer) *truth {
	t := &truth{values: make(map[int][]float64, len(ids))}
	for i, id := range ids {
		t.values[id] = c.Values[i]
	}
	if wr != nil {
		for _, ins := range wr.live {
			t.values[ins.id] = ins.values
			t.written = append(t.written, ins.id)
		}
	}
	for id := range t.values {
		t.ids = append(t.ids, id)
	}
	sort.Ints(t.ids)
	return t
}

// relTol absorbs the last-bit differences between the server's pruned,
// reordered summation and the definitional loop here.
const relTol = 1e-9

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

type neighbour struct {
	id   int
	dist float64
}

// bruteForce evaluates the query against every live series but itself,
// ascending by (distance, id).
func (t *truth) bruteForce(q gen.Query) []neighbour {
	out := make([]neighbour, 0, len(t.ids))
	for _, id := range t.ids {
		if id != q.ID {
			out = append(out, neighbour{id, gen.Euclidean(q.Values, t.values[id])})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].dist != out[j].dist {
			return out[i].dist < out[j].dist
		}
		return out[i].id < out[j].id
	})
	return out
}

// checkAnswer checks one verify-set answer. Every measure: the structural
// invariants of checkShape, and only live ids. Euclidean top-k and range
// also: ids and distances against the brute-force evaluation.
func (t *truth) checkAnswer(q gen.Query, r *queryResponse) error {
	if err := checkShape(q, r); err != nil {
		return err
	}
	for _, n := range r.Neighbors {
		if _, live := t.values[n.ID]; !live {
			return fmt.Errorf("neighbour %d is not a live id", n.ID)
		}
	}
	for _, id := range r.IDs {
		if _, live := t.values[id]; !live {
			return fmt.Errorf("id %d is not a live id", id)
		}
	}
	if q.Op.Measure != "euclidean" {
		return nil
	}
	want := t.bruteForce(q)
	switch q.Op.Kind {
	case "topk":
		for i, n := range r.Neighbors {
			if d := gen.Euclidean(q.Values, t.values[n.ID]); !closeTo(d, n.Distance) {
				return fmt.Errorf("neighbour %d: server says distance %v, brute force %v", n.ID, n.Distance, d)
			}
			// Ranks may swap only between series whose distances tie.
			if !closeTo(n.Distance, want[i].dist) {
				return fmt.Errorf("rank %d: server has %d at %v, brute force has %d at %v", i, n.ID, n.Distance, want[i].id, want[i].dist)
			}
		}
	case "range":
		got := make(map[int]bool, len(r.IDs))
		for _, id := range r.IDs {
			got[id] = true
		}
		for _, w := range want {
			inside := w.dist <= q.Eps
			if got[w.id] != inside && !closeTo(w.dist, q.Eps) {
				return fmt.Errorf("series %d at distance %v, eps %v: server says in=%v", w.id, w.dist, q.Eps, got[w.id])
			}
		}
	}
	return nil
}

// verify runs the seeded verify set, checks each answer and folds all of them
// into one hash.
func (res *workloadResult) verify(cl *client, set []gen.Query, t *truth) {
	h := sha256.New()
	var checks []sample
	for _, q := range set {
		var r queryResponse
		err := cl.post("/query", q.Body, &r)
		if err == nil {
			err = t.checkAnswer(q, &r)
		}
		if err != nil {
			err = fmt.Errorf("verify %s (id %d): %w", q.Op.Name, q.ID, err)
			res.fail(err.Error())
		}
		checks = append(checks, sample{op: q.Op.Name, err: err})
		hashAnswer(h, q, &r)
	}
	res.addPhase("verify", checks)
	res.AnswersSHA256 = hex.EncodeToString(h.Sum(nil))
}

// hashAnswer folds what an answer says — ids, exact distance and probability
// bits, total — into the hash; the epoch is left out because a cluster's
// epoch is not a single node's.
func hashAnswer(h interface{ Write([]byte) (int, error) }, q gen.Query, r *queryResponse) {
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	h.Write([]byte(q.Op.Name))
	put(uint64(int64(q.ID)))
	put(uint64(len(r.Neighbors)))
	for _, n := range r.Neighbors {
		put(uint64(int64(n.ID)))
		put(math.Float64bits(n.Distance))
	}
	put(uint64(len(r.IDs)))
	for _, id := range r.IDs {
		put(uint64(int64(id)))
	}
	put(uint64(len(r.Matches)))
	for _, m := range r.Matches {
		put(uint64(int64(m.ID)))
		put(math.Float64bits(m.Prob))
	}
	put(uint64(int64(r.Total)))
}
