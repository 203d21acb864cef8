package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uncertts/internal/corpus"
)

var update = flag.Bool("update", false, "rewrite testdata/work.json from the engine as it stands")

// workRecord is one query of the work golden: its exact Stats and a hash of
// its Result.
type workRecord struct {
	Query  string `json:"query"`
	Stats  Stats  `json:"stats"`
	Answer string `json:"answer_sha256"`
}

// TestWorkGolden pins the work every measure does, not only its answers:
// each query's exact Stats and a sha256 of its Result, over 1100 series of
// 64 timestamps (past defaultIndexThreshold, so every prefilter engages as in
// production) on a dense snapshot and on one with interior holes, where a
// position is not its arena row. At Workers: 1 every count is deterministic,
// so the golden is exact. A change that means to alter the work rewrites it
// with -update and says so; a refactor must pass it unchanged.
func TestWorkGolden(t *testing.T) {
	c := testCorpus(t, 1100, 64)
	dense := c.Snapshot()
	if err := c.Delete(3, 400, 401, 777); err != nil {
		t.Fatal(err)
	}
	hole := c.Snapshot()
	if rows := hole.Arena().Rows; rows == nil || int(rows[3]) == 3 {
		t.Fatal("the deletes left no interior hole at row 3")
	}
	adhoc := adhocQueryFor(64)
	adhoc.Sigma = 0.25
	// kindRequests' eps leaves DUST's range and PROUD's probrange empty at
	// this length; these give both some tens of matches.
	eps := map[Measure]float64{MeasureDUST: 3.8, MeasurePROUD: 3.8}
	type target struct {
		name string
		req  Request
	}
	targets := []target{{"adhoc", Request{AdHoc: &adhoc}}}
	for _, qi := range []int{0, 5, 1000} {
		targets = append(targets, target{fmt.Sprintf("index=%d", qi), Request{Index: &qi}})
	}
	var got []workRecord
	for _, sc := range []struct {
		name string
		snap *corpus.Snapshot
	}{{"dense", dense}, {"interior-hole", hole}} {
		for _, base := range allMeasureOptions() {
			opts := base
			opts.Workers, opts.ShardSize = 1, 0
			e := newEngine(t, sc.snap, opts)
			for _, kr := range kindRequests() {
				if kr.Kind.Probabilistic() != opts.Measure.Probabilistic() {
					continue
				}
				for _, tgt := range targets {
					req := kr
					if v, ok := eps[opts.Measure]; ok {
						req.Eps = v
					}
					req.Index, req.AdHoc = tgt.req.Index, tgt.req.AdHoc
					e.ResetStats()
					res := mustRun(t, e, req)
					got = append(got, workRecord{
						Query:  fmt.Sprintf("%s/%v/%v/%s", sc.name, opts.Measure, req.Kind, tgt.name),
						Stats:  e.Stats(),
						Answer: fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", *res)))),
					})
				}
			}
		}
	}

	var b bytes.Buffer
	b.WriteString("[\n")
	for i, r := range got {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		if i < len(got)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	path := filepath.Join("testdata", "work.json")
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if bytes.Equal(want, b.Bytes()) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(b.String(), "\n")
	if len(wl) != len(gl) {
		t.Errorf("golden has %d lines, the engine gives %d", len(wl), len(gl))
	}
	for i := 0; i < min(len(wl), len(gl)); i++ {
		if wl[i] != gl[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
}
