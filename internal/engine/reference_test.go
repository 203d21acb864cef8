package engine

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"
)

// The reference scans the engine's answers are checked against: every
// candidate but the query, through an arbitrary distance function, with no
// pruning.

// rangeQueryFunc returns, ascending, the positions in [0, n) other than
// queryID whose distance is at most eps.
func rangeQueryFunc(n int, queryID int, dist func(i int) (float64, error), eps float64) ([]int, error) {
	if math.IsNaN(eps) || eps < 0 {
		return nil, errors.New("eps must be non-negative")
	}
	var out []int
	for i := 0; i < n; i++ {
		if i == queryID {
			continue
		}
		d, err := dist(i)
		if err != nil {
			return nil, fmt.Errorf("candidate %d: %w", i, err)
		}
		if d <= eps {
			out = append(out, i)
		}
	}
	return out, nil
}

// topK returns the k positions in [0, n) other than queryID with the
// smallest distance, ascending, ties broken by position.
func topK(n int, queryID int, dist func(i int) (float64, error), k int) ([]Neighbor, error) {
	if k < 1 {
		return nil, fmt.Errorf("k = %d must be positive", k)
	}
	neighbors := make([]Neighbor, 0, n)
	for i := 0; i < n; i++ {
		if i == queryID {
			continue
		}
		d, err := dist(i)
		if err != nil {
			return nil, fmt.Errorf("candidate %d: %w", i, err)
		}
		neighbors = append(neighbors, Neighbor{ID: i, Distance: d})
	}
	sort.Slice(neighbors, func(i, j int) bool {
		if neighbors[i].Distance != neighbors[j].Distance {
			return neighbors[i].Distance < neighbors[j].Distance
		}
		return neighbors[i].ID < neighbors[j].ID
	})
	if k > len(neighbors) {
		k = len(neighbors)
	}
	return neighbors[:k], nil
}

func TestRangeQueryFunc(t *testing.T) {
	dist := func(i int) (float64, error) { return float64(i), nil }
	got, err := rangeQueryFunc(5, 0, dist, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("got %v, want [1 2]", got)
	}
	failing := func(i int) (float64, error) { return 0, errors.New("boom") }
	if _, err := rangeQueryFunc(3, 0, failing, 1); err == nil {
		t.Error("distance errors should propagate")
	}
	if _, err := rangeQueryFunc(3, 0, dist, -1); err == nil {
		t.Error("negative eps should error")
	}
}

func TestTopK(t *testing.T) {
	dist := func(i int) (float64, error) { return float64((i * 7) % 5), nil }
	got, err := topK(5, 0, dist, 2)
	if err != nil {
		t.Fatal(err)
	}
	// distances: 1->2, 2->4, 3->1, 4->3. Top2: 3 (d=1), 1 (d=2).
	if len(got) != 2 || got[0].ID != 3 || got[1].ID != 1 {
		t.Errorf("topk = %+v", got)
	}
	if _, err := topK(5, 0, dist, 0); err == nil {
		t.Error("k=0 should error")
	}
	over, err := topK(3, 0, dist, 10)
	if err != nil || len(over) != 2 {
		t.Errorf("k over n should clamp: %v %v", over, err)
	}
	failing := func(i int) (float64, error) { return 0, errors.New("boom") }
	if _, err := topK(3, 0, failing, 1); err == nil {
		t.Error("distance errors should propagate")
	}
}

func TestTopKDeterministicTies(t *testing.T) {
	dist := func(i int) (float64, error) { return 1, nil }
	a, _ := topK(6, 0, dist, 3)
	b, _ := topK(6, 0, dist, 3)
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("tied results must be deterministic")
		}
	}
	if a[0].ID != 1 || a[1].ID != 2 || a[2].ID != 3 {
		t.Errorf("ties should break by ID: %+v", a)
	}
}
