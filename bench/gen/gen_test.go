package gen

import (
	"bytes"
	"testing"
)

func smallCorpus() (*Corpus, []int) {
	c := NewCorpus(DatasetSeed, 64, 2)
	ids := make([]int, len(c.Values))
	for i := range ids {
		ids[i] = i + 100
	}
	return c, ids
}

func bodies(seed int64, set []Query, n int) [][]byte {
	st := NewStream(seed, set)
	out := make([][]byte, n)
	for i := range out {
		q, _ := st.Next()
		out[i] = q.Body
	}
	return out
}

func TestSameSeedSameBytes(t *testing.T) {
	c1, ids := smallCorpus()
	c2, _ := smallCorpus()
	for i, b := range c1.IngestBodies() {
		if !bytes.Equal(b, c2.IngestBodies()[i]) {
			t.Fatalf("ingest body %d differs between two generations of the dataset", i)
		}
	}
	set1, set2 := LightMix.QuerySet(c1, ids), LightMix.QuerySet(c2, ids)
	n := 2*len(set1) + 7 // across a cycle boundary
	a, b := bodies(7, set1, n), bodies(7, set2, n)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("request %d differs under the same seed", i)
		}
	}
	same := 0
	for i, body := range bodies(8, set1, n) {
		if bytes.Equal(a[i], body) {
			same++
		}
	}
	if same > n/2 {
		t.Fatalf("another seed repeated %d of %d requests in place", same, n)
	}
	v1, v2, v3 := LightMix.VerifySet(3, c1, ids, 4), LightMix.VerifySet(3, c2, ids, 4), LightMix.VerifySet(4, c1, ids, 4)
	differs := false
	for i := range v1 {
		if !bytes.Equal(v1[i].Body, v2[i].Body) {
			t.Fatalf("verify query %d differs under the same seed", i)
		}
		differs = differs || !bytes.Equal(v1[i].Body, v3[i].Body)
	}
	if !differs {
		t.Fatal("another seed gave the same verify set")
	}
}

// Every cycle of every stream sends the whole query set exactly once, in the
// mix's proportions: that is what makes cycles rounds of equal work.
func TestCycleIsTheQuerySet(t *testing.T) {
	c, ids := smallCorpus()
	for _, mix := range []Mix{LightMix, HeavyMix} {
		set := mix.QuerySet(c, ids)
		weights := 0
		for _, op := range mix.Ops {
			weights += op.Weight
		}
		if len(set) != weights*mix.Pool {
			t.Fatalf("query set has %d queries, want %d", len(set), weights*mix.Pool)
		}
		st := NewStream(1, set)
		for cycle := range 3 {
			perOp := map[string]int{}
			seen := map[string]int{}
			for range set {
				q, cyc := st.Next()
				if cyc != cycle {
					t.Fatalf("query of cycle %d reported as cycle %d", cycle, cyc)
				}
				perOp[q.Op.Name]++
				seen[string(q.Body)]++
			}
			for _, op := range mix.Ops {
				if perOp[op.Name] != op.Weight*mix.Pool {
					t.Fatalf("cycle %d sent %d %s, want %d", cycle, perOp[op.Name], op.Name, op.Weight*mix.Pool)
				}
			}
			for _, q := range set {
				if seen[string(q.Body)] == 0 {
					t.Fatalf("cycle %d left a query of the set out", cycle)
				}
			}
		}
	}
}

func TestQueriesTargetGivenIDs(t *testing.T) {
	c, ids := smallCorpus()
	for _, q := range append(LightMix.QuerySet(c, ids), HeavyMix.QuerySet(c, ids)...) {
		switch {
		case q.Op.AdHoc && q.ID != -1:
			t.Fatalf("ad-hoc query carries id %d", q.ID)
		case !q.Op.AdHoc && (q.ID < 100 || q.ID >= 100+len(ids)):
			t.Fatalf("query targets id %d, not one of the resident ids", q.ID)
		case len(q.Values) != Length:
			t.Fatalf("query has %d values", len(q.Values))
		}
	}
	if c.Eps <= 0 {
		t.Fatalf("eps calibration gave %v", c.Eps)
	}
}
