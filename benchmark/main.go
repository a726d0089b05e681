// Command benchmark measures the pimkd program end to end and layer by
// layer on three workloads, checking every answer it gets.
//
//	go build -o pimkd-benchmark . && ./pimkd-benchmark --workload tree-batch --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; standard error gets a JSON
// report line with per-kind accounting, generator lateness, tail latencies
// and the runtime's settings. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// toy shrinks every input, and makes one set-up per run, so the test
	// suite runs each workload in seconds; its figures are not comparable
	// to full runs.
	toy bool
	// workDir holds durable state; it lives inside the working directory.
	workDir string
}

// outcome is what one workload run found.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted map[string]int64
	failed    map[string]int64
	info      map[string]any
}

func newOutcome() *outcome {
	return &outcome{
		e2e:       map[string]float64{},
		layer:     map[string]float64{},
		attempted: map[string]int64{},
		failed:    map[string]int64{},
		info:      map[string]any{},
	}
}

func (o *outcome) attempt(kind string, n int64) { o.attempted[kind] += n }

var workloads = map[string]func(options) (*outcome, error){
	"tree-batch":   runTreeBatch,
	"serve-open":   func(o options) (*outcome, error) { return runOpen(serveOpen, o) },
	"cluster-open": func(o options) (*outcome, error) { return runOpen(clusterOpen, o) },
}

// e2eUnits and layerUnits name every metric the benchmark reports, with
// its unit; BENCHMARK.json lists the same names.
var e2eUnits = map[string]string{
	"setup_s":                 "s",
	"live_heap_mb":            "MB",
	"knn_per_cpu_s":           "1/ref-cpu-s",
	"range_per_cpu_s":         "1/ref-cpu-s",
	"update_per_cpu_s":        "1/ref-cpu-s",
	"ops_per_cpu_s":           "1/ref-cpu-s",
	"read_p50_ms":             "ms",
	"write_p50_ms":            "ms",
	"model_comm_words_per_op": "words/op",
	"model_comm_time_per_op":  "words/op",
	"model_pim_time_per_op":   "work/op",
}

var layerUnits = map[string]string{
	"pim.rounds_per_op":   "rounds/op",
	"pim.round_wall_us":   "us",
	"pim.round_wall_frac": "fraction",
	"pim.empty_round_us":  "us",

	"core.build_s":         "s",
	"core.knn_batch_ms":    "ms",
	"core.range_batch_ms":  "ms",
	"core.insert_batch_ms": "ms",
	"core.delete_batch_ms": "ms",
	"core.host_frac":       "fraction",

	"runtime.alloc_bytes_per_op": "B/op",
	"runtime.allocs_per_op":      "allocs/op",
	"runtime.gc_cpu_frac":        "fraction",

	"serve.batch_size_mean.knn":      "req/batch",
	"serve.batch_size_mean.range":    "req/batch",
	"serve.batch_size_mean.insert":   "req/batch",
	"serve.batch_size_mean.delete":   "req/batch",
	"serve.linger_ms_p50":            "ms",
	"serve.sealed_full_frac":         "fraction",
	"serve.model_comm_words_per_req": "words/req",
	"serve.api_read_p50_ms":          "ms",

	"persist.appends_per_write":   "appends/write",
	"persist.wal_bytes_per_write": "B/write",
	"persist.checkpoints":         "count",
	"persist.log_batch_us":        "us",

	"http.self_us": "us",

	"shard.calls_per_read":     "calls/read",
	"shard.pruned_per_read":    "cells/read",
	"shard.wire_bytes_per_op":  "B/op",
	"shard.hedges":             "count",
	"shard.router_read_p50_ms": "ms",
	"shard.client_rtt_us":      "us",
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var o options
	var seconds int
	var trace int
	flag.StringVar(&o.workload, "workload", "", "tree-batch, serve-open or cluster-open")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.workDir, "workdir", ".bench_build/work", "directory for durable state")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: --workload tree-batch|serve-open|cluster-open --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	res, report, err := execute(run, o)
	if report != nil {
		line, _ := json.Marshal(report)
		fmt.Fprintln(os.Stderr, string(line))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// execute runs one workload and shapes its outcome into the result line
// and the report line. A failed check is an error: the run prints no
// result.
func execute(run func(options) (*outcome, error), o options) (*result, map[string]any, error) {
	out, err := run(o)
	if err != nil {
		return nil, nil, err
	}
	want, got := e2eUnits, out.e2e
	if o.trace {
		want, got = layerUnits, out.layer
	}
	res := &result{Correct: true, Metrics: map[string]metricOut{}}
	var missing []string
	for name, unit := range want {
		v, ok := got[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, name)
			continue
		}
		res.Metrics[name] = metricOut{Value: v, Unit: unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, nil, fmt.Errorf("%s: no finite value for %v", o.workload, missing)
	}
	for k, n := range out.attempted {
		res.Attempted += n
		res.Failed += out.failed[k]
	}
	report := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"trace":      o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"attempted":  out.attempted,
		"failed":     out.failed,
		"e2e":        out.e2e,
		"info":       out.info,
	}
	// A workload that sets its own GOMAXPROCS records it in info.
	if v, ok := out.info["gomaxprocs"]; ok {
		report["gomaxprocs"] = v
	}
	if o.trace {
		report["layer"] = out.layer
	}
	return res, report, nil
}
