package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"uncertts/internal/server"
	"uncertts/internal/store"
)

// jsonEqual compares two decoded JSON values structurally.
func jsonEqual(a, b interface{}) bool { return reflect.DeepEqual(a, b) }

func TestParseFlagsValidation(t *testing.T) {
	for name, args := range map[string][]string{
		"bad length":  {"-length", "0"},
		"bad sigma":   {"-sigma", "-1"},
		"bad samples": {"-samples", "-2"},
		"bad series":  {"-series", "0"},
		"bad timeout": {"-timeout", "-1s"},
		"unknown":     {"-nope"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("%s (%v): expected an error", name, args)
		}
	}
	for name, args := range map[string][]string{
		"bad fsync":            {"-fsync", "sometimes"},
		"bad fsync interval":   {"-fsync-interval", "0s"},
		"bad grace":            {"-shutdown-grace", "-1s"},
		"bad shards":           {"-shards", "0"},
		"bad shard timeout":    {"-shard-timeout", "-1s"},
		"coordinator + shards": {"-coordinator", "http://localhost:1", "-shards", "2"},
		"coordinator + data":   {"-coordinator", "http://localhost:1", "-data", "/tmp/x"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("%s (%v): expected an error", name, args)
		}
	}
	cfg, err := parseFlags([]string{"-series", "8", "-length", "32", "-samples", "0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.series != 8 || cfg.length != 32 || cfg.samples != 0 {
		t.Errorf("parsed config %+v", cfg)
	}
	if cfg.fsync != "interval" || cfg.dataDir != "" {
		t.Errorf("durability defaults %+v", cfg)
	}
}

// TestMunichBinsBounded: -munich-bins sizes three histograms per MUNICH
// refine, so a count past maxMunichBins is a usage error (main exits 2 before
// listening) instead of a process killed by its first MUNICH query.
func TestMunichBinsBounded(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want int // -1: a usage error
	}{
		{"0", 0},
		{"1", 1},
		{"4096", 4096},
		{"1048576", 1 << 20},
		{"1048577", -1},
		{"1099511627776", -1},
		{"-1", -1},
	} {
		cfg, err := parseFlags([]string{"-munich-bins", tc.arg}, io.Discard)
		switch {
		case tc.want < 0 && err == nil:
			t.Errorf("-munich-bins %s: accepted as %d, want a usage error", tc.arg, cfg.munichBins)
		case tc.want < 0 && !strings.Contains(err.Error(), "-munich-bins"):
			t.Errorf("-munich-bins %s: error %q does not name the flag", tc.arg, err)
		case tc.want >= 0 && err != nil:
			t.Errorf("-munich-bins %s: %v", tc.arg, err)
		case tc.want >= 0 && cfg.munichBins != tc.want:
			t.Errorf("-munich-bins %s: parsed %d, want %d", tc.arg, cfg.munichBins, tc.want)
		}
	}
}

// TestEndToEnd builds the server on a tiny dataset and runs one query of
// each family through the HTTP handler.
func TestEndToEnd(t *testing.T) {
	cfg, err := parseFlags([]string{"-series", "12", "-length", "24", "-sigma", "0.5", "-samples", "3", "-munich-bins", "256"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Corpus().Len() != 12 {
		t.Fatalf("preloaded %d series, want 12", srv.Corpus().Len())
	}
	h := srv.Handler()
	for _, body := range []string{
		`{"measure":"euclidean","type":"topk","k":3,"id":0}`,
		`{"measure":"dtw","type":"topk","k":3,"id":1,"workers":2}`,
		`{"measure":"proud","type":"probrange","eps":3,"tau":0.1,"id":2}`,
		`{"measure":"munich","type":"probtopk","eps":3,"k":3,"id":3}`,
	} {
		req := httptest.NewRequest("POST", "/query", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("query %s: status %d: %s", body, rec.Code, rec.Body.String())
		}
		var resp map[string]interface{}
		if err := json.NewDecoder(bytes.NewReader(rec.Body.Bytes())).Decode(&resp); err != nil {
			t.Fatalf("query %s: bad JSON: %v", body, err)
		}
	}
	// An empty-dataset server starts with an empty corpus.
	empty, _, err := buildServer(config{dataset: "", length: 24, sigma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if empty.Corpus().Len() != 0 {
		t.Error("empty server should start with no series")
	}
}

// TestShardedServerMatchesSingleNode builds the same preloaded workload
// twice — once as a plain single node, once as a durable 3-shard cluster
// in one binary — and checks that every query family answers
// bit-identically through both handlers (the cluster epoch differs by
// construction). It then rebuilds the cluster from the shard store
// directories and checks the answers survive the restart.
func TestShardedServerMatchesSingleNode(t *testing.T) {
	base := []string{"-series", "12", "-length", "24", "-sigma", "0.5", "-samples", "3", "-munich-bins", "256"}
	cfg, err := parseFlags(base, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	single, _, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	clusterArgs := append(append([]string{}, base...), "-shards", "3", "-data", dir)
	ccfg, err := parseFlags(clusterArgs, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sharded, stores, err := buildHandler(ccfg)
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{
		`{"measure":"euclidean","type":"topk","k":4,"id":0}`,
		`{"measure":"uema","type":"range","eps":4,"id":1}`,
		`{"measure":"dust","type":"topk","k":3,"id":2}`,
		`{"measure":"proud","type":"probrange","eps":3,"tau":0.1,"id":2}`,
		`{"measure":"munich","type":"probtopk","eps":3,"k":3,"id":3}`,
	}
	query := func(t *testing.T, h http.Handler, body string) map[string]interface{} {
		t.Helper()
		req := httptest.NewRequest("POST", "/query", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("query %s: status %d: %s", body, rec.Code, rec.Body.String())
		}
		var resp map[string]interface{}
		if err := json.NewDecoder(bytes.NewReader(rec.Body.Bytes())).Decode(&resp); err != nil {
			t.Fatalf("query %s: bad JSON: %v", body, err)
		}
		delete(resp, "epoch")
		return resp
	}
	for _, body := range queries {
		want := query(t, single.Handler(), body)
		got := query(t, sharded, body)
		if !jsonEqual(want, got) {
			t.Errorf("query %s: cluster answer diverges\n want %v\n  got %v", body, want, got)
		}
	}

	for _, st := range stores {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	recovered, stores2, err := buildHandler(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, st := range stores2 {
			st.Close()
		}
	}()
	for _, body := range queries {
		want := query(t, single.Handler(), body)
		got := query(t, recovered, body)
		if !jsonEqual(want, got) {
			t.Errorf("query %s after restart: cluster answer diverges\n want %v\n  got %v", body, want, got)
		}
	}
}

// TestDurableServerSurvivesRestart builds a durable server, ingests
// through the HTTP handler, tears everything down, and rebuilds from the
// same directory: the preload must be skipped and the ingested series
// must be back.
func TestDurableServerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	mk := func() (sv *server.Server, st *store.Store) {
		cfg, err := parseFlags([]string{"-series", "6", "-length", "16", "-sigma", "0.5", "-samples", "2", "-data", dir, "-fsync", "always"}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		sv, st, err = buildServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sv, st
	}
	srv, st := mk()
	if srv.Corpus().Len() != 6 {
		t.Fatalf("preloaded %d series, want 6", srv.Corpus().Len())
	}
	vals := strings.Repeat("0.5,", 15) + "0.5"
	req := httptest.NewRequest("POST", "/series", strings.NewReader(`{"insert":[{"values":[`+vals+`],"sigma":0.4}]}`))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.String())
	}
	wantEpoch := srv.Corpus().Snapshot().Epoch()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, st2 := mk()
	defer st2.Close()
	if got := srv2.Corpus().Len(); got != 7 {
		t.Fatalf("recovered %d series, want 7 (6 preloaded + 1 ingested, no re-preload)", got)
	}
	if got := srv2.Corpus().Snapshot().Epoch(); got != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", got, wantEpoch)
	}
	q := httptest.NewRequest("POST", "/query", strings.NewReader(`{"measure":"euclidean","type":"topk","k":3,"id":6}`))
	qrec := httptest.NewRecorder()
	srv2.Handler().ServeHTTP(qrec, q)
	if qrec.Code != 200 {
		t.Fatalf("query after recovery: status %d: %s", qrec.Code, qrec.Body.String())
	}

	// Durably deleting everything must stick across a restart: an emptied
	// store is not pristine, so the preload must not resurrect the
	// synthetic dataset.
	ids := srv2.Corpus().Snapshot().IDs()
	if err := srv2.Corpus().Delete(ids...); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	srv3, st3 := mk()
	defer st3.Close()
	if got := srv3.Corpus().Len(); got != 0 {
		t.Fatalf("restart after delete-all resurrected %d series, want 0", got)
	}
}

// TestStalledHeadersAreCutOff: a client that connects and never finishes its
// request headers must not hold the connection open for ever (ROADMAP 4(e)).
// The production server carries the ten-second bound; the test shortens it on
// the same server value and watches a stalled connection get closed while a
// complete request on another connection is still answered.
func TestStalledHeadersAreCutOff(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Fatalf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "GET / HTTP/1.1\r\nHost: x\r\n"); err != nil { // no blank line: headers never end
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a complete request got status %d", resp.StatusCode)
	}
	// The server gives up on the stalled connection: the read ends (with an
	// error response or a bare close) long before the test's own deadline.
	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := io.ReadAll(stalled); err != nil {
		t.Fatalf("the stalled connection was still open after %v: %v", time.Since(start), err)
	}
}
