package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"uncertts/internal/corpus"
	"uncertts/internal/stats"
)

// zeroCommas reads "0,0,0,..." for ever, generated as it is read: the tail
// of a JSON array that never closes.
type zeroCommas struct{ off int }

func (z *zeroCommas) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = "0,"[z.off%2]
		z.off++
	}
	return len(p), nil
}

// TestOversizeBodiesAnswer413: a body past MaxBodyBytes on /series or on
// /query is refused with 413 naming the limit, without buffering it whole or
// touching the corpus, and the server answers the next request as usual.
func TestOversizeBodiesAnswer413(t *testing.T) {
	srv, _ := testServer(t, 8, 16)
	h := srv.Handler()
	serve := func(path string, body io.Reader) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		return rec
	}
	epoch := srv.Corpus().Snapshot().Epoch()
	for path, prefix := range map[string]string{
		"/series": `{"insert":[{"values":[`,
		"/query":  `{"measure":"euclidean","type":"topk","k":1,"series":{"values":[`,
	} {
		body := io.MultiReader(strings.NewReader(prefix), io.LimitReader(&zeroCommas{}, MaxBodyBytes))
		rec := serve(path, body)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "64 MiB") {
			t.Errorf("%s: oversize body answered %d %q, want 413 naming the 64 MiB limit", path, rec.Code, rec.Body.String())
		}
		if got := srv.Corpus().Snapshot().Epoch(); got != epoch {
			t.Errorf("%s: the refused body moved the corpus epoch %d -> %d", path, epoch, got)
		}
	}
	ingest := `{"insert":[{"values":[` + strings.Repeat("0.5,", 15) + `0.5]}]}`
	if rec := serve("/series", strings.NewReader(ingest)); rec.Code != http.StatusOK {
		t.Errorf("/series after the refusals: %d %q", rec.Code, rec.Body.String())
	}
	if rec := serve("/query", strings.NewReader(`{"measure":"euclidean","type":"topk","k":1,"id":0}`)); rec.Code != http.StatusOK {
		t.Errorf("/query after the refusals: %d %q", rec.Code, rec.Body.String())
	}
}

// TestFetchSeriesOverHTTP drives GET /cluster/series, the coordinator's
// forwarding path: a series' own constant sigma comes back bit for bit
// (re-derived from its error model), a series on the corpus defaults carries
// none, one with per-timestamp errors a constant cannot express is a 422,
// and values and samples round-trip.
func TestFetchSeriesOverHTTP(t *testing.T) {
	const n = 16
	c := corpus.New(corpus.Config{ReportedSigma: 0.3})
	ts := httptest.NewServer(New(c, Options{}).Handler())
	t.Cleanup(ts.Close)

	own := testSeries(n, 1)
	own.Sigma = 0.7123456789
	bare := testSeries(n, 2)
	bare.Sigma, bare.Samples = 0, nil
	var batch []corpus.Series
	for _, sj := range []SeriesJSON{own, bare} {
		cs, err := sj.toCorpus()
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, cs)
	}
	mixed, err := testSeries(n, 3).toCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for i := range mixed.Errors {
		mixed.Errors[i] = stats.NewNormal(0, 0.1+0.01*float64(i))
	}
	batch = append(batch, mixed)
	if _, err := c.InsertBatch(batch); err != nil { // IDs 0, 1, 2
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, id string
		status   int
		want     *SeriesJSON
	}{
		{"own constant sigma", "0", http.StatusOK, &own},
		{"default errors", "1", http.StatusOK, &bare},
		{"per-timestamp errors", "2", http.StatusUnprocessableEntity, nil},
		{"unknown id", "3", http.StatusNotFound, nil},
		{"non-integer id", "x", http.StatusBadRequest, nil},
	} {
		resp, err := http.Get(ts.URL + "/cluster/series?id=" + tc.id)
		if err != nil {
			t.Fatal(err)
		}
		var got ClusterSeriesJSON
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&got)
		}
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
			continue
		}
		if tc.want == nil {
			continue
		}
		if math.Float64bits(got.Series.Sigma) != math.Float64bits(tc.want.Sigma) {
			t.Errorf("%s: sigma %v, want %v bit for bit", tc.name, got.Series.Sigma, tc.want.Sigma)
		}
		if !reflect.DeepEqual(got.Series.Values, tc.want.Values) || !reflect.DeepEqual(got.Series.Samples, tc.want.Samples) {
			t.Errorf("%s: values or samples did not round-trip", tc.name)
		}
	}
}
