package core

import (
	"math"
	"reflect"
	"testing"

	"uncertts/internal/timeseries"
)

func mkCollection() []timeseries.Series {
	mk := func(id int, vals ...float64) timeseries.Series {
		s := timeseries.New(vals)
		s.ID = id
		return s
	}
	return []timeseries.Series{
		mk(0, 0, 0),
		mk(1, 1, 0),
		mk(2, 0, 2),
		mk(3, 3, 4),
	}
}

func TestNearestNeighbors(t *testing.T) {
	coll := mkCollection()
	nn, kth, err := NearestNeighbors(coll[0], coll, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nn, []int{1, 2}) {
		t.Errorf("nn = %v, want ids 1 then 2", nn)
	}
	if math.Abs(kth-2) > 1e-12 {
		t.Errorf("2nd NN distance = %v, want 2", kth)
	}
	if _, _, err := NearestNeighbors(coll[0], coll, 0); err == nil {
		t.Error("k=0 should error")
	}
}

func TestNearestNeighborsKthDistance(t *testing.T) {
	coll := mkCollection()
	nn, kth, err := NearestNeighbors(coll[0], coll, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 3 || math.Abs(kth-5) > 1e-12 {
		t.Errorf("3rd NN: got %v at %v, want 3 neighbours, the last at 5", nn, kth)
	}
	// Self excluded even when k exceeds the collection: the K-th distance
	// is then that of the last neighbour there is.
	all, kth, err := NearestNeighbors(coll[0], coll, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || math.Abs(kth-5) > 1e-12 {
		t.Errorf("want 3 neighbours, the last at 5; got %v at %v", all, kth)
	}
}

func TestRangeQuery(t *testing.T) {
	coll := mkCollection()
	got, err := RangeQuery(coll[0], coll, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("range query = %v, want [1 2]", got)
	}
	// eps exactly at a distance includes the boundary.
	got, err = RangeQuery(coll[0], coll, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("boundary eps should include the exact hit: %v", got)
	}
	if _, err := RangeQuery(coll[0], coll, -1); err == nil {
		t.Error("negative eps should error")
	}
	if _, err := RangeQuery(coll[0], coll, math.NaN()); err == nil {
		t.Error("NaN eps should error")
	}
}

func TestRangeQueryLengthMismatch(t *testing.T) {
	coll := mkCollection()
	bad := timeseries.New([]float64{1, 2, 3})
	bad.ID = 9
	if _, err := RangeQuery(bad, coll, 1); err == nil {
		t.Error("mismatched lengths should error")
	}
}
