package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"uncertts/internal/server"
)

// TestRoutesCheckMethods is the routing contract of both tiers, route by
// route: the mux checks the method, so a request with another one answers
// 405 with an Allow header naming the method that works, and a request with
// that method (or HEAD, on a GET route) reaches its handler.
func TestRoutesCheckMethods(t *testing.T) {
	co, servers := localCluster(t, 1, Options{})
	handlers := map[string]http.Handler{"server": servers[0].Handler(), "coordinator": co.Handler()}
	for _, tc := range []struct {
		handler, method, path string
	}{
		{"server", "POST", "/query"},
		{"server", "POST", "/query/stream"},
		{"server", "POST", "/series"},
		{"server", "GET", "/stats"},
		{"server", "GET", "/healthz"},
		{"server", "GET", "/metrics"},
		{"server", "GET", "/debug/trace"},
		{"server", "POST", "/admin/checkpoint"},
		{"server", "GET", "/cluster/series"},
		{"coordinator", "POST", "/query"},
		{"coordinator", "POST", "/series"},
		{"coordinator", "GET", "/stats"},
		{"coordinator", "GET", "/healthz"},
		{"coordinator", "GET", "/metrics"},
		{"coordinator", "GET", "/debug/trace"},
	} {
		wrong, allow := "GET", "POST"
		if tc.method == "GET" {
			wrong, allow = "POST", "GET, HEAD"
		}
		h := handlers[tc.handler]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(wrong, tc.path, strings.NewReader("{}")))
		if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != allow {
			t.Errorf("%s: %s %s answered %d, Allow %q; want 405, Allow %q", tc.handler, wrong, tc.path, rec.Code, rec.Header().Get("Allow"), allow)
		}
		methods := []string{tc.method}
		if tc.method == "GET" {
			methods = append(methods, "HEAD") // the mux serves HEAD wherever it serves GET
		}
		for _, method := range methods {
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, tc.path, strings.NewReader("{}")))
			if rec.Code == http.StatusMethodNotAllowed || rec.Code == http.StatusNotFound {
				t.Errorf("%s: %s %s answered %d, want it routed to its handler", tc.handler, method, tc.path, rec.Code)
			}
		}
	}
}

// TestUnknownDeleteAnswers404: deleting an ID no series carries is 404 through
// a single node's /series and through an in-process coordinator's, whose
// shard reports the corpus' qerr.ErrNotFound with no HTTP status of its own.
func TestUnknownDeleteAnswers404(t *testing.T) {
	co, _ := localCluster(t, 2, Options{})
	ingest(t, co, 4, 16)
	for name, h := range map[string]http.Handler{"single node": singleNode(t, 4, 16).Handler(), "coordinator": co.Handler()} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/series", strings.NewReader(`{"delete":[99]}`)))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s: deleting an unknown ID answered %d (%s), want 404", name, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	}
}

// TestUnrepresentableAnswerIsATypedError is the coordinator's side of
// internal/server's TestUnrepresentableAnswersAreTypedErrors: the
// Euclidean distances between series of +-1e160 overflow to +Inf, the
// shards hand them to the merge as they are, and JSON cannot carry the
// merged answer. It is a 500 with a typed error body, never a 200 with no
// bytes, and the coordinator answers the next request.
func TestUnrepresentableAnswerIsATypedError(t *testing.T) {
	const length = 16
	co, _ := localCluster(t, 2, Options{})
	ins := server.SeriesRequest{}
	for i := 0; i < 3; i++ {
		s := server.SeriesJSON{Values: make([]float64, length)}
		for j := range s.Values {
			s.Values[j] = 1e160 * float64(i-1)
		}
		ins.Insert = append(ins.Insert, s)
	}
	if _, err := co.Mutate(context.Background(), ins); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()
	post := func(req server.QueryRequest) (int, string) {
		t.Helper()
		buf, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	id := 0
	status, body := post(server.QueryRequest{Measure: "euclidean", Type: "topk", K: 2, ID: &id})
	var typed struct{ Kind, Error string }
	if err := json.Unmarshal([]byte(body), &typed); status != http.StatusInternalServerError || err != nil || typed.Kind != "encode" || typed.Error == "" {
		t.Errorf("+Inf distance: status %d, body %q (%v); want 500 with a JSON error of kind encode", status, body, err)
	}
	if status, body = post(server.QueryRequest{Measure: "euclidean", Type: "range", Eps: 1, ID: &id}); status != http.StatusOK || !strings.Contains(body, `"epoch"`) {
		t.Errorf("the request after the failure: status %d, body %q", status, body)
	}
}
