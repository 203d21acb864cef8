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
