package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"uncertts/internal/corpus"
	"uncertts/internal/qerr"
)

// slowServer builds a corpus whose DTW queries take long enough (hundreds
// of milliseconds: unconstrained warping over long series) that timeouts
// and disconnects reliably land mid-query.
func slowServer(t testing.TB, series, length int) (*Server, *atomic.Int64, *httptest.Server) {
	t.Helper()
	c := corpus.New(corpus.Config{ReportedSigma: 0.3, Length: length, Band: -1}) // unconstrained DTW: O(n^2) per pair
	var batch []corpus.Series
	for i := 0; i < series; i++ {
		vals := make([]float64, length)
		for j := range vals {
			vals[j] = math.Sin(float64(i)*0.7 + float64(j)*0.05)
		}
		batch = append(batch, corpus.Series{Values: vals})
	}
	if _, err := c.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	srv := New(c, Options{})
	// inFlight counts requests currently inside the handler, so tests can
	// assert the executor drained after a disconnect.
	var inFlight atomic.Int64
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inFlight.Add(1)
		defer inFlight.Add(-1)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return srv, &inFlight, ts
}

func slowQuery() QueryRequest {
	id := 0
	return QueryRequest{Measure: "dtw", Type: "topk", K: 3, ID: &id}
}

func TestQueryTimeoutAnswers504(t *testing.T) {
	_, _, ts := slowServer(t, 12, 1024)
	req := slowQuery()
	req.TimeoutMS = 1
	start := time.Now()
	resp := postJSON(t, ts.URL+"/query", req, nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("timed-out query held the request %v", elapsed)
	}
}

func TestServerDefaultTimeout(t *testing.T) {
	srv, _, _ := slowServer(t, 12, 1024)
	srv.opts.DefaultTimeout = time.Millisecond
	// queryContext applies the server default when the request carries no
	// timeout_ms of its own; the derived deadline must stop the query.
	ctx, cancel := srv.queryContext(context.Background(), slowQuery())
	defer cancel()
	if _, err := srv.Run(ctx, slowQuery()); !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, qerr.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.DeadlineExceeded", err)
	}
}

// TestClientDisconnectCancelsQueryAndDrains is the serving-side
// cancellation acceptance test: a client that hangs up mid-/query stops
// the executor — the handler (and with it the engine scan) returns
// promptly instead of finishing the scan for a dead connection.
func TestClientDisconnectCancelsQueryAndDrains(t *testing.T) {
	_, inFlight, ts := slowServer(t, 12, 2048)
	body, err := json.Marshal(slowQuery())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errCh <- err
	}()
	// Wait until the request is inside the handler, then hang up.
	deadline := time.Now().Add(5 * time.Second)
	for inFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("client should observe its own cancellation")
	}
	// The handler must drain promptly: the engine saw the cancellation
	// and released its executor shards.
	start := time.Now()
	for inFlight.Load() != 0 {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("handler still running %v after client disconnect", time.Since(start))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestQueryStreamNDJSON(t *testing.T) {
	srv, ts := testServer(t, 10, 24)
	id := 2
	// Reference answer through the non-streaming path.
	ref, err := srv.Query(QueryRequest{Measure: "euclidean", Type: "range", Eps: 50, ID: &id})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.IDs) == 0 {
		t.Fatal("test needs a non-empty range answer")
	}

	resp := postJSON(t, ts.URL+"/query/stream", QueryRequest{Measure: "euclidean", Type: "range", Eps: 50, ID: &id}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	buf, err := http.Get(ts.URL + "/stats") // sanity: server still alive
	if err != nil {
		t.Fatal(err)
	}
	buf.Body.Close()

	// postJSON drained the body; re-issue and parse by hand.
	raw, err := json.Marshal(QueryRequest{Measure: "euclidean", Type: "range", Eps: 50, ID: &id})
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/query/stream", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var ids []int
	var done StreamDoneJSON
	sawDone := false
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if sawDone {
			t.Fatalf("record after the done record: %s", line)
		}
		if bytes.Contains(line, []byte(`"done"`)) {
			if err := json.Unmarshal(line, &done); err != nil {
				t.Fatal(err)
			}
			sawDone = true
			continue
		}
		var it StreamItemJSON
		if err := json.Unmarshal(line, &it); err != nil {
			t.Fatalf("bad item line %q: %v", line, err)
		}
		if it.Distance == nil {
			t.Errorf("range stream item %d without distance", it.ID)
		}
		ids = append(ids, it.ID)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawDone {
		t.Fatal("stream ended without a done record")
	}
	if done.Total != len(ids) || done.Type != "range" || done.Stats == "" {
		t.Errorf("done record = %+v with %d items", done, len(ids))
	}
	sort.Ints(ids)
	if !reflect.DeepEqual(ids, ref.IDs) {
		t.Errorf("streamed IDs %v != /query answer %v", ids, ref.IDs)
	}

	// Top-k streams its ranked answer in order.
	res2, err := http.Post(ts.URL+"/query/stream", "application/json",
		bytes.NewReader(mustJSON(t, QueryRequest{Measure: "euclidean", Type: "topk", K: 3, ID: &id})))
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	refTopK, err := srv.Query(QueryRequest{Measure: "euclidean", Type: "topk", K: 3, ID: &id})
	if err != nil {
		t.Fatal(err)
	}
	var rank []int
	sc = bufio.NewScanner(res2.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || bytes.Contains(line, []byte(`"done"`)) {
			continue
		}
		var it StreamItemJSON
		if err := json.Unmarshal(line, &it); err != nil {
			t.Fatal(err)
		}
		rank = append(rank, it.ID)
	}
	want := make([]int, len(refTopK.Neighbors))
	for i, n := range refTopK.Neighbors {
		want[i] = n.ID
	}
	if !reflect.DeepEqual(rank, want) {
		t.Errorf("topk stream order %v, want %v", rank, want)
	}
}

func mustJSON(t testing.TB, v interface{}) []byte {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestQueryPaginationAndTotal(t *testing.T) {
	srv, _ := testServer(t, 12, 24)
	id := 0
	full, err := srv.Query(QueryRequest{Measure: "uema", Type: "topk", K: 8, ID: &id})
	if err != nil {
		t.Fatal(err)
	}
	if full.Total != len(full.Neighbors) {
		t.Fatalf("total = %d, want %d", full.Total, len(full.Neighbors))
	}
	page, err := srv.Query(QueryRequest{Measure: "uema", Type: "topk", K: 8, ID: &id, Offset: 2, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != full.Total {
		t.Errorf("page total = %d, want %d", page.Total, full.Total)
	}
	if !reflect.DeepEqual(page.Neighbors, full.Neighbors[2:5]) {
		t.Errorf("page = %v, want %v", page.Neighbors, full.Neighbors[2:5])
	}
}

func TestStatusMapping(t *testing.T) {
	_, ts := testServer(t, 8, 24)
	id, missing := 0, 9999
	cases := []struct {
		name string
		req  QueryRequest
		want int
	}{
		{"unknown measure", QueryRequest{Measure: "cosine", Type: "topk", K: 3, ID: &id}, http.StatusBadRequest},
		{"unknown kind", QueryRequest{Measure: "uema", Type: "knn", K: 3, ID: &id}, http.StatusBadRequest},
		{"unknown id", QueryRequest{Measure: "uema", Type: "topk", K: 3, ID: &missing}, http.StatusNotFound},
		{"k = 0", QueryRequest{Measure: "uema", Type: "topk", ID: &id}, http.StatusBadRequest},
		{"bad tau", QueryRequest{Measure: "proud", Type: "probrange", Eps: 1, Tau: 7, ID: &id}, http.StatusBadRequest},
		{"length mismatch", QueryRequest{Measure: "uema", Type: "topk", K: 3, Series: &SeriesJSON{Values: []float64{1, 2}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/query", tc.req, nil)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// Pagination is a /query concern; the stream endpoint rejects it
	// instead of silently delivering the unwindowed stream.
	paged := QueryRequest{Measure: "uema", Type: "topk", K: 3, ID: &id, Limit: 1}
	if resp := postJSON(t, ts.URL+"/query/stream", paged, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("stream with limit: status = %d, want 400", resp.StatusCode)
	}
}
