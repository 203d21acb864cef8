package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
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

// floatBits lists every float of a request as bits, in order: reflect.DeepEqual
// compares floats with ==, which does not tell -0 from 0.
func floatBits(req SeriesRequest) []uint64 {
	var out []uint64
	for _, s := range req.Insert {
		out = append(out, math.Float64bits(s.Sigma))
		for _, v := range s.Values {
			out = append(out, math.Float64bits(v))
		}
		for _, row := range s.Samples {
			for _, v := range row {
				out = append(out, math.Float64bits(v))
			}
		}
	}
	return out
}

// sameRequest: reflect.DeepEqual, with every float equal bit for bit.
func sameRequest(a, b SeriesRequest) bool {
	return reflect.DeepEqual(a, b) && reflect.DeepEqual(floatBits(a), floatBits(b))
}

// decodeBody runs DecodeBody over body as the handlers do.
func decodeBody(body io.Reader) (SeriesRequest, *httptest.ResponseRecorder, bool) {
	rec := httptest.NewRecorder()
	var req SeriesRequest
	ok := DecodeBody(rec, httptest.NewRequest(http.MethodPost, "/series", body), &req)
	return req, rec, ok
}

// TestSeriesBodiesOffShapeFallBack: DecodeBody answers every /series body as
// json.Decoder alone did — the same status, and the same decoded request or
// message — whether the one-pass reader takes it (fast) or hands the bytes on.
func TestSeriesBodiesOffShapeFallBack(t *testing.T) {
	plain := string(mustJSON(t, SeriesRequest{Insert: []SeriesJSON{testSeries(4, 1), testSeries(4, 2)}, InsertIDs: []int{7, 9}}))
	for _, tc := range []struct {
		name, body string
		fast, ok   bool
		check      func(SeriesRequest) bool
	}{
		{"plain batch", plain, true, true, func(r SeriesRequest) bool { return len(r.Insert) == 2 && len(r.Insert[1].Samples) == 4 }},
		{"empty arrays", `{"insert":[],"delete":[], "insert_ids" : [ ]}`, true, true, func(r SeriesRequest) bool { return r.Insert != nil && r.Delete != nil && r.InsertIDs != nil }},
		{"negative zero keeps its sign", `{"insert":[{"values":[-0,0,-0.0],"samples":[[-0],[]],"sigma":-0,"label":-0}]}`, true, true, func(r SeriesRequest) bool {
			return math.Signbit(r.Insert[0].Values[0]) && !math.Signbit(r.Insert[0].Values[1]) && math.Signbit(r.Insert[0].Values[2]) &&
				math.Signbit(r.Insert[0].Samples[0][0]) && r.Insert[0].Samples[1] != nil && math.Signbit(r.Insert[0].Sigma)
		}},
		{"whitespace around everything", " \t\r\n{ \"delete\" :\n[ 1 , 2 ]\t} \n", true, true, nil},
		{"another key spelling is accepted", `{"insert":[{"Values":[1,2]}]}`, false, true, func(r SeriesRequest) bool { return len(r.Insert[0].Values) == 2 }},
		{"an unknown key is ignored", `{"insert":[{"values":[1],"weight":[3]}],"note":"x"}`, false, true, func(r SeriesRequest) bool { return len(r.Insert) == 1 }},
		{"an escaped key", `{"d\u0065lete":[4]}`, false, true, func(r SeriesRequest) bool { return len(r.Delete) == 1 }},
		{"a repeated key", `{"insert":[{"values":[1,2],"label":3}],"insert":[{"values":[5]}]}`, false, true, nil},
		{"null insert decodes to nothing", `{"insert":null}`, false, true, func(r SeriesRequest) bool { return r.Insert == nil }},
		{"null values", `{"insert":[{"values":null}]}`, false, true, nil},
		{"trailing bytes after the object", `{"delete":[1]}garbage`, false, true, func(r SeriesRequest) bool { return len(r.Delete) == 1 }},
		{"a second object after the first", `{"delete":[1]} {"delete":[2]}`, false, true, nil},
		{"a number out of range", `{"insert":[{"values":[1e400]}]}`, false, false, nil},
		{"a leading zero", `{"delete":[01]}`, false, false, nil},
		{"a fraction into an int", `{"insert":[{"values":[1],"label":1.5}]}`, false, false, nil},
		{"a string number", `{"delete":["1"]}`, false, false, nil},
		{"a bare dot", `{"insert":[{"values":[1.]}]}`, false, false, nil},
		{"a trailing comma", `{"delete":[1,]}`, false, false, nil},
		{"a truncated body", `{"insert":[{"values":[0.5,`, false, false, nil},
		{"an empty body", ``, false, false, nil},
		{"not an object", `[1,2]`, false, false, nil},
	} {
		var want SeriesRequest
		werr := json.NewDecoder(strings.NewReader(tc.body)).Decode(&want)
		if (werr == nil) != tc.ok {
			t.Fatalf("%s: encoding/json says %v; the case expects ok=%v", tc.name, werr, tc.ok)
		}
		if _, fast := decodeSeries([]byte(tc.body)); fast != tc.fast {
			t.Errorf("%s: one-pass reader took it: %v, want %v", tc.name, fast, tc.fast)
		}
		got, rec, ok := decodeBody(strings.NewReader(tc.body))
		switch {
		case ok != tc.ok:
			t.Errorf("%s: DecodeBody ok=%v (%d %q), want %v", tc.name, ok, rec.Code, rec.Body.String(), tc.ok)
		case ok && !sameRequest(got, want):
			t.Errorf("%s: decoded %+v, encoding/json %+v", tc.name, got, want)
		case ok && tc.check != nil && !tc.check(got):
			t.Errorf("%s: decoded %+v", tc.name, got)
		case !ok && (rec.Code != http.StatusBadRequest || rec.Body.String() != "malformed JSON: "+werr.Error()+"\n"):
			t.Errorf("%s: answered %d %q, want 400 %q", tc.name, rec.Code, rec.Body.String(), "malformed JSON: "+werr.Error())
		}
	}

	// Through the handler, a null insert is a request with nothing in it.
	srv, _ := testServer(t, 2, 16)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/series", strings.NewReader(`{"insert":null}`)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "nothing to insert or delete") {
		t.Errorf(`{"insert":null}: %d %q, want 400 "nothing to insert or delete"`, rec.Code, rec.Body.String())
	}
}

// TestNumbersMatchStrconv: every number the one-pass reader accepts reads as
// strconv.ParseFloat's bits, on both sides of where the in-pass conversion
// stops (exact) and strconv takes over; numbers off the JSON grammar leave
// the body to encoding/json.
func TestNumbersMatchStrconv(t *testing.T) {
	for _, tc := range []struct {
		num   string
		exact bool
	}{
		{"0.1234", true}, {"-12.3456", true}, {"-0.0001", true}, {"7", true},
		{"-0", true}, {"0.0", true}, {"-0.0", true}, {"1.2500000", true}, {"100.000", true},
		{"4503599627370495", true}, {"4503599627370496", false}, {"4503599627370497", false},
		{"0.4503599627370495", true}, {"-450359962737049.6", false}, {"4503599627.370497", false},
		{"0.123456789012345", true},      // 15 digits
		{"-0.1234567890123456", true},    // 16
		{"0.12345678901234567", false},   // 17
		{"1234567890.123456789", false},  // 19
		{"-12345678901234567890", false}, // 20
		{"0.1000000000000000055511151231257827021181583404541015625", false},
		{"0.0000000000000000000123", true},    // 22 after the point
		{"-0.00000000000000000001234", false}, // 23
		{"1e5", false}, {"1E-3", false}, {"1.5e+2", false}, {"-0e0", false},
	} {
		want, err := strconv.ParseFloat(tc.num, 64)
		if err != nil {
			t.Fatal(err)
		}
		p := &seriesReader{b: []byte(tc.num)}
		if _, _, _, exact := p.number(); exact != tc.exact || p.i != len(tc.num) {
			t.Errorf("%s: read %d bytes, exact %v, want all and %v", tc.num, p.i, exact, tc.exact)
		}
		body := fmt.Sprintf(`{"insert":[{"values":[%s,%[1]s],"samples":[[%[1]s],[1,%[1]s]],"sigma":%[1]s}]}`, tc.num)
		req, fast := decodeSeries([]byte(body))
		if !fast {
			t.Fatalf("%s: the one-pass reader refused it", tc.num)
		}
		s := req.Insert[0]
		for _, got := range []float64{s.Values[0], s.Values[1], s.Samples[0][0], s.Samples[1][1], s.Sigma} {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: read %v (%#x), strconv %v (%#x)", tc.num, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	for _, num := range []string{".5", "1.", "01", "-", "+1", "1.e5", "--1"} {
		body := fmt.Sprintf(`{"insert":[{"values":[%s]}]}`, num)
		if _, fast := decodeSeries([]byte(body)); fast {
			t.Errorf("%s: the one-pass reader took it", num)
		}
		var want SeriesRequest
		werr := json.NewDecoder(strings.NewReader(body)).Decode(&want)
		_, rec, ok := decodeBody(strings.NewReader(body))
		if werr == nil || ok || rec.Body.String() != "malformed JSON: "+werr.Error()+"\n" {
			t.Errorf("%s: answered %d %q, encoding/json %v", num, rec.Code, rec.Body.String(), werr)
		}
	}
}

// TestSeriesBodyReadErrors: a body cut short by a read error answers as
// json.Decoder did: with the error where the bytes end inside the object or
// turn malformed first, and with the request where the object closes before.
func TestSeriesBodyReadErrors(t *testing.T) {
	cut := errors.New("connection reset")
	for _, tc := range []struct {
		name, body string
		ok         bool
	}{
		{"inside an array", `{"insert":[{"values":[0.5,`, false},
		{"inside a number", `{"insert":[{"values":[0.5`, false},
		{"inside a key", `{"insert":[{"valu`, false},
		{"off the shape first", `{"insert":[{"values":[0.5,"x"`, false},
		{"after the object", `{"delete":[3]} `, true},
	} {
		var want SeriesRequest
		werr := json.NewDecoder(io.MultiReader(strings.NewReader(tc.body), errReader{cut})).Decode(&want)
		got, rec, ok := decodeBody(io.MultiReader(strings.NewReader(tc.body), errReader{cut}))
		if ok != tc.ok || (werr == nil) != tc.ok {
			t.Fatalf("%s: DecodeBody ok=%v, encoding/json %v; want ok=%v", tc.name, ok, werr, tc.ok)
		}
		if ok && !sameRequest(got, want) {
			t.Errorf("%s: decoded %+v, encoding/json %+v", tc.name, got, want)
		}
		if !ok && rec.Body.String() != "malformed JSON: "+werr.Error()+"\n" {
			t.Errorf("%s: answered %q, want %q", tc.name, rec.Body.String(), "malformed JSON: "+werr.Error())
		}
	}
}

// FuzzDecodeSeriesRequest: whatever the body, a request the one-pass reader
// accepts is one encoding/json accepts and decodes identically, bit for bit.
func FuzzDecodeSeriesRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		got, fast := decodeSeries(body)
		if !fast {
			return
		}
		var want SeriesRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
			t.Fatalf("one-pass reader accepted %q, encoding/json: %v", body, err)
		}
		if !sameRequest(got, want) {
			t.Fatalf("%q: one-pass reader decoded %+v, encoding/json %+v", body, got, want)
		}
	})
}

// seriesBody is a 512-series /series body as the repository benchmark sends
// it: 128 values a series rounded to four decimals, and with samples three
// observations per timestamp. Unrounded, every number is a float64's
// shortest representation, mostly 16-17 digits.
func seriesBody(tb testing.TB, sampled, rounded bool) []byte {
	round := func(v float64) float64 {
		if !rounded {
			return v
		}
		return math.Round(v*1e4) / 1e4
	}
	req := SeriesRequest{Insert: make([]SeriesJSON, 512)}
	for i := range req.Insert {
		s := testSeries(128, int64(i))
		for t, v := range s.Values {
			s.Values[t] = round(v)
			for j, x := range s.Samples[t] {
				s.Samples[t][j] = round(x)
			}
		}
		s.Sigma = 0
		if !sampled {
			s.Samples = nil
		}
		req.Insert[i] = s
	}
	return mustJSON(tb, req)
}

// exactShare is the share of a body's numbers that the one-pass reader
// converts in its own pass, without strconv.
func exactShare(body []byte) float64 {
	p := &seriesReader{b: body}
	var n, exact int
	for p.i < len(body) {
		if c := body[p.i]; c != '-' && !digit(c) {
			p.i++
			continue
		}
		_, _, _, ok := p.number()
		if n++; ok {
			exact++
		}
	}
	return float64(exact) / float64(n)
}

// BenchmarkDecodeSeriesBody: a 512-series body, plain, sampled and at full
// precision, through DecodeBody (fast) and through json.Decoder as DecodeBody
// used to read it. exact/number is the share of the body's numbers converted
// without strconv.
func BenchmarkDecodeSeriesBody(b *testing.B) {
	for _, kind := range []struct {
		name             string
		sampled, rounded bool
	}{{"sampled=false", false, true}, {"sampled=true", true, true}, {"full_precision", false, false}} {
		body := seriesBody(b, kind.sampled, kind.rounded)
		for _, arm := range []string{"fast", "encoding_json"} {
			b.Run(kind.name+"/"+arm, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(body)))
				r := httptest.NewRequest(http.MethodPost, "/series", nil)
				w := httptest.NewRecorder()
				for range b.N {
					r.Body = io.NopCloser(bytes.NewReader(body))
					var req SeriesRequest
					var err error
					if arm == "fast" {
						if !DecodeBody(w, r, &req) {
							err = errors.New(w.Body.String())
						}
					} else {
						err = json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(&req)
					}
					if err != nil || len(req.Insert) != 512 {
						b.Fatalf("decoded %d series: %v", len(req.Insert), err)
					}
				}
				b.ReportMetric(exactShare(body), "exact/number")
			})
		}
	}
}
