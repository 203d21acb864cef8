package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"uncertts/internal/corpus"
	"uncertts/internal/munich"
	"uncertts/internal/stats"
	"uncertts/internal/store"
)

// testSeries derives a deterministic series with samples from a seed.
func testSeries(length int, seed int64) SeriesJSON {
	rng := stats.NewRand(seed + 400)
	s := SeriesJSON{Values: make([]float64, length), Samples: make([][]float64, length), Sigma: 0.3}
	for i := range s.Values {
		s.Values[i] = math.Cos(float64(seed)*0.9+float64(i)*0.27) + 0.2*rng.NormFloat64()
		row := make([]float64, 3)
		for j := range row {
			row[j] = s.Values[i] + 0.15*rng.NormFloat64()
		}
		s.Samples[i] = row
	}
	return s
}

func testServer(t testing.TB, series, length int) (*Server, *httptest.Server) {
	t.Helper()
	c := corpus.New(corpus.Config{ReportedSigma: 0.3})
	srv := New(c, Options{MUNICH: munich.Options{Bins: 256}})
	var batch []corpus.Series
	for i := 0; i < series; i++ {
		cs, err := testSeries(length, int64(i)).toCorpus()
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, cs)
	}
	if _, err := c.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t testing.TB, url string, body interface{}, out interface{}) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestQueryEndpointEveryMeasureAndType(t *testing.T) {
	_, ts := testServer(t, 16, 24)
	cases := []QueryRequest{
		{Measure: "euclidean", Type: "topk", K: 5},
		{Measure: "uma", Type: "topk", K: 3},
		{Measure: "uema", Type: "range", Eps: 3},
		{Measure: "dtw", Type: "topk", K: 4},
		{Measure: "dust", Type: "range", Eps: 5},
		{Measure: "proud", Type: "probrange", Eps: 2, Tau: 0.1},
		{Measure: "proud", Type: "probtopk", Eps: 2, K: 4},
		{Measure: "munich", Type: "probrange", Eps: 2, Tau: 0.1},
		{Measure: "munich", Type: "probtopk", Eps: 2, K: 4},
	}
	for _, req := range cases {
		// Once as a resident-series query, once ad-hoc.
		id := 2
		req.ID = &id
		var resp QueryResponse
		if r := postJSON(t, ts.URL+"/query", req, &resp); r.StatusCode != http.StatusOK {
			t.Fatalf("%s/%s by ID: status %d", req.Measure, req.Type, r.StatusCode)
		}
		if resp.Epoch == 0 || resp.Measure == "" {
			t.Errorf("%s/%s: incomplete response %+v", req.Measure, req.Type, resp)
		}
		req.ID = nil
		q := testSeries(24, 77)
		req.Series = &q
		var adhoc QueryResponse
		if r := postJSON(t, ts.URL+"/query", req, &adhoc); r.StatusCode != http.StatusOK {
			t.Fatalf("%s/%s ad-hoc: status %d", req.Measure, req.Type, r.StatusCode)
		}
		req.Series = nil
	}
}

func TestQueryByIDExcludesSelfAndUsesStableIDs(t *testing.T) {
	srv, ts := testServer(t, 10, 16)
	// Delete a series so positions and stable IDs diverge.
	firstID := srv.Corpus().Snapshot().IDAt(0)
	if err := srv.Corpus().Delete(firstID); err != nil {
		t.Fatal(err)
	}
	id := srv.Corpus().Snapshot().IDAt(3) // some resident stable ID
	var resp QueryResponse
	req := QueryRequest{Measure: "euclidean", Type: "topk", K: 20, ID: &id}
	if r := postJSON(t, ts.URL+"/query", req, &resp); r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	snap := srv.Corpus().Snapshot()
	for _, n := range resp.Neighbors {
		if n.ID == id {
			t.Error("query series appeared in its own answer")
		}
		if _, ok := snap.PosOf(n.ID); !ok {
			t.Errorf("answer ID %d is not a stable resident ID", n.ID)
		}
		if n.ID == firstID {
			t.Error("deleted series appeared in the answer")
		}
	}
	if len(resp.Neighbors) != snap.Len()-1 {
		t.Errorf("topk(k=20) returned %d of %d candidates", len(resp.Neighbors), snap.Len()-1)
	}
}

// TestQueryResponsesAreCompact: a /query answer is one line of compact JSON
// (no indentation newline inside it), byte for byte the encoding of the
// answer the server computes in process, and it decodes to that answer.
func TestQueryResponsesAreCompact(t *testing.T) {
	srv, ts := testServer(t, 16, 24)
	id := 2
	for _, req := range []QueryRequest{
		{Measure: "euclidean", Type: "topk", K: 5, ID: &id},
		{Measure: "uema", Type: "range", Eps: 3, ID: &id},
		{Measure: "proud", Type: "probrange", Eps: 2, Tau: 0.1, ID: &id},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("%s/%s: status %d, %v", req.Measure, req.Type, r.StatusCode, err)
		}
		if i := bytes.IndexByte(got, '\n'); i != len(got)-1 {
			t.Errorf("%s/%s: a newline at byte %d of %d: %q", req.Measure, req.Type, i, len(got), got)
		}
		want, err := srv.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(enc, '\n')) {
			t.Errorf("%s/%s: answered %s, want %s", req.Measure, req.Type, got, enc)
		}
		var dec QueryResponse
		if err := json.Unmarshal(got, &dec); err != nil || !reflect.DeepEqual(&dec, want) {
			t.Errorf("%s/%s: decodes to %+v (%v), want %+v", req.Measure, req.Type, dec, err, *want)
		}
	}
}

// TestHugeKAnswersEveryNeighbour: a k far past the corpus size is the k = N
// query, not an allocation of k slots (which used to kill the process with a
// fatal out-of-memory error net/http cannot recover). k is the largest int,
// so the request decodes on 32-bit platforms too.
func TestHugeKAnswersEveryNeighbour(t *testing.T) {
	srv, ts := testServer(t, 10, 16)
	id := srv.Corpus().Snapshot().IDAt(3)
	for _, body := range []string{
		fmt.Sprintf(`{"measure":"euclidean","type":"topk","k":%d,"id":%d}`, math.MaxInt, id),
		fmt.Sprintf(`{"measure":"proud","type":"probtopk","eps":2,"k":%d,"id":%d}`, math.MaxInt, id),
	} {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out QueryResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("%s: status %d, %v", body, resp.StatusCode, err)
		}
		if n := len(out.Neighbors) + len(out.Matches); n != 9 {
			t.Errorf("%s: %d answers, want every one of the 9 other series", body, n)
		}
	}
}

func TestSeriesEndpointInsertDelete(t *testing.T) {
	srv, ts := testServer(t, 6, 16)
	var resp SeriesResponse
	req := SeriesRequest{Insert: []SeriesJSON{testSeries(16, 100), testSeries(16, 101)}}
	if r := postJSON(t, ts.URL+"/series", req, &resp); r.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", r.StatusCode)
	}
	if len(resp.IDs) != 2 || resp.Series != 8 {
		t.Fatalf("insert response %+v", resp)
	}
	var del SeriesResponse
	if r := postJSON(t, ts.URL+"/series", SeriesRequest{Delete: resp.IDs[:1]}, &del); r.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", r.StatusCode)
	}
	if del.Deleted != 1 || del.Series != 7 {
		t.Fatalf("delete response %+v", del)
	}
	if srv.Corpus().Len() != 7 {
		t.Errorf("corpus length %d, want 7", srv.Corpus().Len())
	}
	// Unknown deletes are 404.
	if r := postJSON(t, ts.URL+"/series", SeriesRequest{Delete: []int{9999}}, nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown delete: status %d, want 404", r.StatusCode)
	}
	// A mixed request with an unknown delete is atomic: the insert must
	// not land either.
	before := srv.Corpus().Snapshot()
	mixed := SeriesRequest{Insert: []SeriesJSON{testSeries(16, 300)}, Delete: []int{9999}}
	if r := postJSON(t, ts.URL+"/series", mixed, nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("mixed with unknown delete: status %d, want 404", r.StatusCode)
	}
	if after := srv.Corpus().Snapshot(); after.Epoch() != before.Epoch() || after.Len() != before.Len() {
		t.Error("failed mixed mutation changed the corpus")
	}
}

// TestSigmaSeriesBoxesItsErrorModelOnce: a series posted with a sigma
// carries one boxed error distribution at every timestamp, so converting it
// allocates the slice and the box, not one box per timestamp.
func TestSigmaSeriesBoxesItsErrorModelOnce(t *testing.T) {
	sj := SeriesJSON{Values: make([]float64, 128), Sigma: 0.3}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sj.toCorpus(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("converting a 128-point sigma series allocates %v objects, want at most 2", allocs)
	}
}

func TestStatsEndpointAccumulatesAcrossRebuilds(t *testing.T) {
	_, ts := testServer(t, 10, 16)
	id := 1
	q := QueryRequest{Measure: "euclidean", Type: "topk", K: 3, ID: &id}
	postJSON(t, ts.URL+"/query", q, &QueryResponse{})

	var st1 StatsResponse
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st1); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st1.Series != 10 || st1.Measures["Euclidean"].Candidates == 0 {
		t.Fatalf("stats after one query: %+v", st1)
	}
	if st1.Measures["Euclidean"].Summary == "" {
		t.Error("summary missing")
	}

	// Mutate (forcing an engine rebuild), query again: counters must not
	// reset.
	postJSON(t, ts.URL+"/series", SeriesRequest{Insert: []SeriesJSON{testSeries(16, 200)}}, &SeriesResponse{})
	postJSON(t, ts.URL+"/query", q, &QueryResponse{})
	var st2 StatsResponse
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st2.Measures["Euclidean"].Candidates <= st1.Measures["Euclidean"].Candidates {
		t.Errorf("stats did not accumulate across the engine rebuild: %d then %d",
			st1.Measures["Euclidean"].Candidates, st2.Measures["Euclidean"].Candidates)
	}
	if st2.Epoch <= st1.Epoch {
		t.Errorf("epoch did not advance: %d then %d", st1.Epoch, st2.Epoch)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := testServer(t, 6, 16)
	id := 0
	for name, req := range map[string]QueryRequest{
		"unknown measure":    {Measure: "cosine", Type: "topk", K: 3, ID: &id},
		"unknown type":       {Measure: "euclidean", Type: "knn", K: 3, ID: &id},
		"no query":           {Measure: "euclidean", Type: "topk", K: 3},
		"both id and series": {Measure: "euclidean", Type: "topk", K: 3, ID: &id, Series: &SeriesJSON{Values: make([]float64, 16)}},
		"prob on distance":   {Measure: "euclidean", Type: "probrange", Eps: 1, Tau: 0.5, ID: &id},
		"bad tau":            {Measure: "munich", Type: "probrange", Eps: 1, Tau: 1.5, ID: &id},
		"bad k":              {Measure: "euclidean", Type: "topk", K: 0, ID: &id},
		"wrong length":       {Measure: "euclidean", Type: "topk", K: 3, Series: &SeriesJSON{Values: make([]float64, 5)}},
	} {
		if r := postJSON(t, ts.URL+"/query", req, nil); r.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, r.StatusCode)
		}
	}
	missing := 12345
	if r := postJSON(t, ts.URL+"/query", QueryRequest{Measure: "euclidean", Type: "topk", K: 3, ID: &missing}, nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown ID: status %d, want 404", r.StatusCode)
	}
	if r := postJSON(t, ts.URL+"/series", SeriesRequest{}, nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("empty mutation: status %d, want 400", r.StatusCode)
	}
}

// TestConcurrentMixedTraffic is the acceptance test for the serving tier:
// at least 64 concurrent requests mixing every query family with
// ingestion and deletion, under -race in CI. Queries run against whatever
// snapshot is current; snapshot isolation keeps every request coherent.
func TestConcurrentMixedTraffic(t *testing.T) {
	srv, ts := testServer(t, 16, 24)
	const requests = 80
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 8 {
			case 0: // ingest
				var resp SeriesResponse
				r := postJSON(t, ts.URL+"/series", SeriesRequest{Insert: []SeriesJSON{testSeries(24, int64(1000+i))}}, &resp)
				if r.StatusCode != http.StatusOK {
					t.Errorf("ingest %d: status %d", i, r.StatusCode)
					return
				}
				// Delete half of what we ingested, concurrently with
				// queries that may be using the snapshot it lived in.
				if i%16 == 0 {
					if r := postJSON(t, ts.URL+"/series", SeriesRequest{Delete: resp.IDs}, nil); r.StatusCode != http.StatusOK {
						t.Errorf("delete %d: status %d", i, r.StatusCode)
					}
				}
			case 1:
				q := testSeries(24, int64(3000+i))
				req := QueryRequest{Measure: "proud", Type: "probrange", Eps: 2, Tau: 0.1, Series: &q, Workers: 2}
				if r := postJSON(t, ts.URL+"/query", req, &QueryResponse{}); r.StatusCode != http.StatusOK {
					t.Errorf("proud %d: status %d", i, r.StatusCode)
				}
			case 2:
				q := testSeries(24, int64(3000+i))
				req := QueryRequest{Measure: "munich", Type: "probtopk", Eps: 2, K: 3, Series: &q}
				if r := postJSON(t, ts.URL+"/query", req, &QueryResponse{}); r.StatusCode != http.StatusOK {
					t.Errorf("munich %d: status %d", i, r.StatusCode)
				}
			case 3:
				q := testSeries(24, int64(3000+i))
				req := QueryRequest{Measure: "dtw", Type: "topk", K: 5, Series: &q, Workers: 4}
				if r := postJSON(t, ts.URL+"/query", req, &QueryResponse{}); r.StatusCode != http.StatusOK {
					t.Errorf("dtw %d: status %d", i, r.StatusCode)
				}
			case 4:
				q := testSeries(24, int64(3000+i))
				req := QueryRequest{Measure: "dust", Type: "range", Eps: 6, Series: &q}
				if r := postJSON(t, ts.URL+"/query", req, &QueryResponse{}); r.StatusCode != http.StatusOK {
					t.Errorf("dust %d: status %d", i, r.StatusCode)
				}
			case 5:
				// Query a resident series by stable ID; it may have been
				// deleted by a concurrent request, so 404 is acceptable.
				id := i % 16
				req := QueryRequest{Measure: "euclidean", Type: "topk", K: 4, ID: &id}
				if r := postJSON(t, ts.URL+"/query", req, &QueryResponse{}); r.StatusCode != http.StatusOK && r.StatusCode != http.StatusNotFound {
					t.Errorf("byid %d: status %d", i, r.StatusCode)
				}
			case 6:
				q := testSeries(24, int64(3000+i))
				req := QueryRequest{Measure: "uema", Type: "topk", K: 4, Series: &q}
				if r := postJSON(t, ts.URL+"/query", req, &QueryResponse{}); r.StatusCode != http.StatusOK {
					t.Errorf("uema %d: status %d", i, r.StatusCode)
				}
			case 7:
				resp, err := http.Get(ts.URL + "/stats")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("stats %d: status %d", i, resp.StatusCode)
				}
			}
		}(i)
	}
	wg.Wait()

	if srv.Corpus().Snapshot().Epoch() == 0 {
		t.Fatal("no mutation was published; the test proved nothing")
	}
	st := srv.Stats()
	total := int64(0)
	for _, ms := range st.Measures {
		total += ms.Candidates
	}
	if total == 0 {
		t.Fatal("no query work was accounted")
	}
	_ = fmt.Sprintf("%+v", st)
}

func TestHealthzWithoutStore(t *testing.T) {
	_, ts := testServer(t, 4, 16)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Durable || h.Store != nil {
		t.Fatalf("healthz = %+v, want ok and not durable", h)
	}
	if h.Series != 4 {
		t.Fatalf("healthz reports %d series, want 4", h.Series)
	}

	// Without a store, /admin/checkpoint must refuse rather than pretend.
	cp, err := http.Post(ts.URL+"/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	cp.Body.Close()
	if cp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /admin/checkpoint without store = %d, want 503", cp.StatusCode)
	}
}

func TestHealthzAndCheckpointWithStore(t *testing.T) {
	st, err := store.Open(t.TempDir(), corpus.Config{ReportedSigma: 0.3}, store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := New(st.Corpus(), Options{Store: st})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var ins SeriesResponse
	if resp := postJSON(t, ts.URL+"/series", SeriesRequest{Insert: []SeriesJSON{testSeries(16, 1), testSeries(16, 2)}}, &ins); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert = %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || !h.Durable || h.Store == nil {
		t.Fatalf("healthz = %+v, want ok and durable", h)
	}
	if h.Store.WALBytesSinceCheckpoint == 0 {
		t.Fatal("healthz reports no WAL bytes after an acknowledged ingest")
	}
	if h.Epoch != ins.Epoch {
		t.Fatalf("healthz epoch %d, ingest answered epoch %d", h.Epoch, ins.Epoch)
	}

	cp, err := http.Post(ts.URL+"/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cpStatus store.Status
	if err := json.NewDecoder(cp.Body).Decode(&cpStatus); err != nil {
		t.Fatal(err)
	}
	cp.Body.Close()
	if cp.StatusCode != http.StatusOK {
		t.Fatalf("POST /admin/checkpoint = %d", cp.StatusCode)
	}
	if cpStatus.LastCheckpointEpoch != ins.Epoch || cpStatus.WALBytesSinceCheckpoint != 0 {
		t.Fatalf("post-checkpoint status = %+v, want checkpoint at epoch %d and empty WAL", cpStatus, ins.Epoch)
	}

	// After close the server keeps answering queries but healthz degrades.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h2 HealthResponse
	if err := json.NewDecoder(resp2.Body).Decode(&h2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if h2.Status != "degraded" {
		t.Fatalf("healthz after store close = %q, want degraded", h2.Status)
	}
}

// TestUnrepresentableAnswersAreTypedErrors drives the two requests that used
// to escape the error taxonomy: samples whose squared differences overflow
// (MUNICH's convolution has no bin width left — it panicked, dropping the
// connection) and values whose Euclidean distance overflows to +Inf (JSON
// cannot carry it — the answer was 200 OK with no bytes). Both are typed
// errors now, and the server answers the request after each.
func TestUnrepresentableAnswersAreTypedErrors(t *testing.T) {
	const length = 16
	srv := New(corpus.New(corpus.Config{}), Options{})
	ins := SeriesRequest{}
	for i := 0; i < 3; i++ {
		s := SeriesJSON{Values: make([]float64, length), Samples: make([][]float64, length)}
		for j := range s.Values {
			s.Values[j] = 1e160 * float64(i-1)
			s.Samples[j] = []float64{-1e154, 0, 1e154}
		}
		ins.Insert = append(ins.Insert, s)
	}
	if _, err := srv.Mutate(ins); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(req QueryRequest) (int, string) {
		t.Helper()
		buf, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%s %s: %v (the server dropped the connection)", req.Measure, req.Type, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	id := 0
	status, body := post(QueryRequest{Measure: "munich", Type: "probrange", Eps: 1e154, Tau: 0.1, ID: &id})
	if status != http.StatusBadRequest || !strings.Contains(body, "bad request: munich:") {
		t.Errorf("overflowing MUNICH domain: status %d, body %q; want 400 naming the histogram", status, body)
	}
	encodeErrors := queryErrors.With("encode").Value()
	status, body = post(QueryRequest{Measure: "euclidean", Type: "topk", K: 1, ID: &id})
	var typed struct{ Kind, Error string }
	if err := json.Unmarshal([]byte(body), &typed); status != http.StatusInternalServerError || err != nil || typed.Kind != "encode" || typed.Error == "" {
		t.Errorf("+Inf distance: status %d, body %q (%v); want 500 with a JSON error of kind encode", status, body, err)
	}
	if got := queryErrors.With("encode").Value() - encodeErrors; got != 1 {
		t.Errorf("uncertts_server_query_errors_total{error=\"encode\"} moved by %d, want 1", got)
	}
	if status, body = post(QueryRequest{Measure: "euclidean", Type: "range", Eps: 1, ID: &id}); status != http.StatusOK || !strings.Contains(body, `"epoch"`) {
		t.Errorf("the request after the failures: status %d, body %q", status, body)
	}
}
