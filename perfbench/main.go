// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed measurement window, checks every output it
// produced, and prints one JSON result line:
//
//	perfbench --workload table-pipeline --seed 7 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the same workload runs with in-memory spans around every library call
// and the result carries the per-layer metrics instead. The workload seed
// is the only source of input variation; the program under test only ever
// sees the inputs generated from it. See README.md for the workloads, the
// metric map and the predicted "no move" pairings.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is the catalog of untraced metrics; every workload reports
// every one of them (units are cells, designs or requests, by workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"slo_ok_ratio", "ratio"},
	{"rss_p95_mb", "MB"},
}

// perLayer is the catalog of traced metrics. A layer a workload does not
// exercise reads 0 on that workload.
var perLayer = []metricDef{
	{"core.busy_s", "s"},
	{"core.evaluations", "count"},
	{"core.prunes", "count"},
	{"core.cache.build.hit_ratio", "ratio"},
	{"core.cache.build.lookups", "count"},
	{"core.cache.metrics.hit_ratio", "ratio"},
	{"core.cache.metrics.lookups", "count"},
	{"core.cache.sched.hit_ratio", "ratio"},
	{"core.cache.sched.lookups", "count"},
	{"core.cache.exec.hit_ratio", "ratio"},
	{"core.cache.exec.lookups", "count"},
	{"sched.busy_s", "s"},
	{"cost.floorplan_busy_s", "s"},
	{"testability.busy_s", "s"},
	{"petri.reach_busy_s", "s"},
	{"rtl.busy_s", "s"},
	{"gates.count", "count"},
	{"fault.collapse_busy_s", "s"},
	{"fault.count", "count"},
	{"atpg.busy_s", "s"},
	{"atpg.effort_kge", "kge"},
	{"atpg.random_detected", "count"},
	{"atpg.podem_detected", "count"},
	{"atpg.podem_aborted", "count"},
	{"atpg.podem_yield", "ratio"},
	{"atpg.podem_searched", "count"},
	{"atpg.bist_busy_s", "s"},
	{"atpg.bist_passes", "count"},
	{"logicsim.replay_busy_s", "s"},
	{"dfggen.busy_s", "s"},
	{"server.hit_ms.p50", "ms"},
	{"server.hits", "count"},
	{"server.miss_ms.p50", "ms"},
	{"server.miss_ms.p99", "ms"},
	{"server.misses", "count"},
	{"server.lru.hit_ratio", "ratio"},
	{"server.lru.lookups", "count"},
	{"server.coalesce.hits", "count"},
	{"server.store.hits", "count"},
	{"server.jobs_run", "count"},
	{"server.queue.rejected", "count"},
	{"store.records", "count"},
	{"store.live_bytes", "bytes"},
	{"server.replicate.applied", "count"},
	{"server.replicate.readrepair", "count"},
	{"cluster.proxy_ms.p50", "ms"},
	{"cluster.proxy_ms.p99", "ms"},
	{"cluster.dispatch.ok", "count"},
	{"cluster.dispatch.retries", "count"},
	{"load.sent", "count"},
	{"load.latency_ms.p99", "ms"},
	{"load.lag_ms.p99", "ms"},
	{"load.lag_ms.max", "ms"},
	{"bench.failed_ratio", "ratio"},
	{"trace.spans", "count"},
	{"trace.coverage_min", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.ops_per_s", "1/s"},
	{"trace.latency_p50_ms", "ms"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *runConfig) (*outcome, error){
	"table-pipeline": runTable,
	"synth-sweep":    runSynth,
	"serve-cluster":  runServe,
}

// stateDir holds run state inside the checkout the benchmark runs in:
// exact-count records, span dumps and the serve-cluster stores.
const stateDir = ".bench_build/state"

// runConfig is what every workload receives.
type runConfig struct {
	Seed     uint64
	Seconds  int
	Trace    *tracer // nil when untraced
	Workers  int     // goroutine budget handed to the library (nproc)
	StateDir string  // see stateDir
}

// outcome is a workload's raw result before it is rendered.
type outcome struct {
	Attempted int
	Failed    int
	// Problems lists every failed check, one line each.
	Problems []string
	// Metrics holds the end-to-end values (untraced) or the per-layer
	// values (traced); the renderer fills catalog gaps with 0.
	Metrics map[string]float64
	// Exact holds the counts that must repeat bit-for-bit for the same
	// code and inputs, keyed by unit and counter.
	Exact map[string]int64
	// ExactScope names the input set the exact counts belong to.
	ExactScope string
}

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// metricResult is one rendered metric.
type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: table-pipeline, synth-sweep or serve-cluster")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 30, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
		record   = flag.String("record-golden", "", "write the output digests of every seed class to this file and exit")
	)
	flag.Parse()
	if *record != "" {
		if err := recordGolden(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := &runConfig{Seed: *seed, Seconds: *seconds, Workers: runtime.NumCPU(), StateDir: stateDir}
	if *trace == 1 {
		cfg.Trace = newTracer()
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// The hard cap cuts a wedged run short well inside a 180 s budget; the
	// work it cancels then fails its checks.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*seconds)*time.Second+100*time.Second)
	defer cancel()
	out, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if cfg.Trace != nil {
		cfg.Trace.addSummary(out)
		if err := cfg.Trace.dump(filepath.Join(cfg.StateDir, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
		}
	}
	if err := checkExact(cfg.StateDir, *workload, out); err != nil {
		out.fail("exact counts: %v", err)
	}
	res := render(out, cfg.Trace != nil)
	for _, p := range out.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED CHECK:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// render turns an outcome into the result line: exactly the catalog's
// metrics, in the catalog's units.
func render(out *outcome, traced bool) result {
	cat := endToEnd
	if traced {
		cat = perLayer
	}
	res := result{
		Correct:   out.Failed == 0 && len(out.Problems) == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   make(map[string]metricResult, len(cat)),
	}
	for _, m := range cat {
		res.Metrics[m.Name] = metricResult{Value: out.Metrics[m.Name], Unit: m.Unit}
	}
	return res
}
