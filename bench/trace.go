package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"uncertts/bench/stat"
)

// seriesSum adds up one sample name of a /metrics scrape over all its label
// sets, e.g. the _sum or the _count series of a histogram family.
func seriesSum(exposition []byte, name string) float64 {
	total := 0.0
	for _, line := range strings.Split(string(exposition), "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64); err == nil {
			total += v
		}
	}
	return total
}

// probeOutput is what bench/layerprobe prints.
type probeOutput struct {
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	ReplayMeanMS float64 `json:"replay_mean_ms"`
}

// runTraced is the --trace 1 run of one workload. It never reports
// end-to-end numbers: a third of the measured time goes to an untraced closed
// loop over HTTP, which yields the client-side mean and, from /metrics deltas,
// the server-side mean; the rest goes to the layer probe, which times
// every layer's public functions in-process and replays one cycle of the
// workload's query set with spans. The budget then says how much of the
// client-side figure the layers explain.
func (rc runConfig) runTraced(wl workload) (*workloadResult, error) {
	res := newResult(wl.Name, rc)
	res.Traced = true
	corpus, err := rc.corpusOf(wl)
	if err != nil {
		return nil, err
	}
	in, _, err := rc.setUp(wl, corpus.IngestBodies(), len(corpus.Values))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { in.discard() }()
	tr := rc.trafficOf(wl, corpus, in.ids)
	tr.closed(in.cl, "warm", rc.sc.Warmup)

	scrape := func() ([]byte, error) {
		var body []byte
		err := in.cl.get("/metrics", &body)
		return body, err
	}
	before, err := scrape()
	if err != nil {
		return nil, err
	}
	queries, writes := tr.closed(in.cl, "closed", time.Duration(rc.seconds/3*float64(time.Second)))
	res.addPhase("closed", append(queries, writes...))
	var scrapes []float64
	var after []byte
	for range 9 {
		t0 := time.Now()
		if after, err = scrape(); err != nil {
			return nil, err
		}
		scrapes = append(scrapes, float64(time.Since(t0))/float64(time.Millisecond))
	}
	if err := in.ch.alive(); err != nil {
		return nil, err
	}
	in.discard() // free the cores and the memory for the probe

	const family = "uncertts_server_query_duration_seconds"
	observed := seriesSum(after, family+"_count") - seriesSum(before, family+"_count")
	if observed <= 0 {
		return nil, fmt.Errorf("/metrics shows no %s observations during the closed loop", family)
	}
	serverMeanMS := (seriesSum(after, family+"_sum") - seriesSum(before, family+"_sum")) / observed * 1000
	clientMeanMS := stat.Mean(latenciesMS(queries, anyOp))

	tmp, err := newTempDir(rc.env.buildDir, "probe-")
	if err != nil {
		return nil, err
	}
	defer removeTempDir(tmp)
	traceFile := filepath.Join(rc.outDir(), "trace-"+wl.Name+".json")
	cmd := exec.Command(rc.env.probeBin,
		"-workload", wl.Name, "-seed", strconv.FormatInt(rc.seed, 10),
		"-base", strconv.Itoa(rc.sc.Base), "-sampled", strconv.Itoa(rc.sc.Sampled), "-samples", strconv.Itoa(samplesPerTimestamp),
		"-budget", strconv.FormatFloat(rc.seconds*2/3, 'g', -1, 64), "-trace-out", traceFile, "-tmp", tmp)
	cmd.Stderr = os.Stderr // its progress log and, on failure, the reason
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("layerprobe: %w", err)
	}
	var po probeOutput
	if err := json.Unmarshal(stdout, &po); err != nil {
		return nil, fmt.Errorf("layerprobe output: %w", err)
	}
	for name, v := range po.Metrics {
		res.Metrics[name] = metricValue{Value: v.Value, Unit: v.Unit, Samples: 1}
	}

	// On sharded the server-side histogram sees the shard legs, which run in
	// parallel: the overhead there includes the coordinator's scatter and merge.
	overhead := clientMeanMS - serverMeanMS
	explained := (overhead + po.ReplayMeanMS) / clientMeanMS
	res.Metrics["http.overhead_ms"] = metricValue{Value: overhead, Unit: "ms", Samples: 1, N: len(queries)}
	res.Metrics["telemetry.scrape_ms"] = summarise("ms", scrapes, len(scrapes))
	res.Metrics["budget.explained_ratio"] = metricValue{Value: explained, Unit: "ratio", Samples: 1}
	res.Metrics["trace.overhead_ratio"] = metricValue{Value: po.ReplayMeanMS / serverMeanMS, Unit: "ratio", Samples: 1}
	res.Diagnostics["client_mean_ms"] = metricValue{Value: clientMeanMS, Unit: "ms", Samples: 1, N: len(queries)}
	res.Diagnostics["server_mean_ms"] = metricValue{Value: serverMeanMS, Unit: "ms", Samples: 1, N: int(observed)}
	res.Diagnostics["replay_mean_ms"] = metricValue{Value: po.ReplayMeanMS, Unit: "ms", Samples: 1, N: len(tr.set)}
	if explained < 0.8 || explained > 1.2 {
		res.note(fmt.Sprintf("budget: transport overhead %.3f ms + replayed layers %.3f ms explain %.0f%% of the client-side mean %.3f ms (server-side mean %.3f ms): the rest is unexplained",
			overhead, po.ReplayMeanMS, 100*explained, clientMeanMS, serverMeanMS))
	}
	logf("%s: spans in %s", wl.Name, traceFile)
	res.finish()
	return res, nil
}
