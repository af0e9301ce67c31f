// Command perfbench is the repository's end-to-end benchmark. It drives the
// repository's own binaries (aujoin, aujoind, aujoin-coord, datagen) through
// one of three workloads, checks every answer it samples against an oracle,
// and prints one JSON result line:
//
//	perfbench -bin <dir> -work <dir> --workload join|serve|cluster \
//	          --seed <n> --seconds <s> --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics, timed around calls into each layer's public
// functions from this package. perfbench/run.sh builds everything and is
// the entry point; README.md describes the workloads and metrics. The
// driver also runs each short-lived program through a copy of itself,
// "perfbench -measure-child <program> <args>…" (see runCLI).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// e2eUnits and layerUnits are the metrics a run reports, with their units;
// BENCHMARK.json lists the same names (TestBenchmarkJSONMatchesMetrics
// checks that).
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"latency_ms_p50": "ms",
	"rss_mb":         "MB",
	"success_rate":   "ratio",
}

var layerUnits = map[string]string{
	"strutil.tokenize_us":             "us",
	"pebble.signature_us":             "us",
	"pebble.signature_len":            "count",
	"invindex.filter_ms":              "ms",
	"invindex.postings_per_probe":     "count",
	"invindex.candidates_per_probe":   "count",
	"invindex.results_per_candidate":  "ratio",
	"core.prepare_us":                 "us",
	"core.verify_us":                  "us",
	"core.verify_share":               "ratio",
	"core.verified_per_candidate":     "ratio",
	"core.memo_hits_per_verified":     "ratio",
	"planner.plan_us":                 "us",
	"planner.decisions":               "count",
	"planner.top_config_share":        "ratio",
	"join.unstaged_ms":                "ms",
	"join.build_s":                    "s",
	"join.build_allocs":               "count",
	"join.query_us_p50":               "us",
	"join.query_us_p99":               "us",
	"join.insert_us":                  "us",
	"join.rebuilds":                   "count",
	"join.rebuild_pause_ms_max":       "ms",
	"store.wal_append_ms":             "ms",
	"store.wal_bytes_per_user_byte":   "ratio",
	"store.snapshot_bytes_per_record": "bytes",
	"store.encode_s":                  "s",
	"store.decode_s":                  "s",
	"store.restore_index_s":           "s",
	"store.restore_allocs":            "count",
	"store.restore_gc_cpu_share":      "ratio",
	"store.wal_replay_s":              "s",
	"store.restart_ready_s":           "s",
	"cluster.node_http_tax":           "ratio",
	"cluster.node_http_us":            "us",
	"cluster.response_bytes":          "bytes",
	"cluster.worker_query_ms_p50":     "ms",
	"cluster.coord_tax":               "ratio",
	"cluster.merge_ms_p50":            "ms",
	"cluster.epoch_bumps":             "count",
	"harness.gen_late_ms_p99":         "ms",
	"harness.tracing_overhead":        "ratio",
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner carries one run's settings and what it has measured so far.
type runner struct {
	ctx     context.Context
	seed    int64
	seconds float64
	bin     string // directory of the built binaries
	dir     string // this run's scratch directory
	cache   string // per-seed oracle cache, kept across runs
	ps      *procs
	tr      *tracer // nil unless --trace 1

	e2e   map[string]float64
	layer map[string]float64
	meta  map[string]any

	attempted, failed int64
	// checked counts the sampled answers compared with an oracle, and
	// misses those that were sound but incomplete: a true match the
	// program did not return (see README.md, "Correctness").
	checked, misses int64
}

func (r *runner) exe(name string) string { return filepath.Join(r.bin, name) }

// check records n checked operations of which bad failed.
func (r *runner) check(n, bad int) {
	r.attempted += int64(n)
	r.failed += int64(bad)
}

// successRate is the share of operations that did not fail times the
// share of checked answers that were complete. Misses are counted over the
// checked answers alone: the unchecked operations say nothing about
// completeness.
func (r *runner) successRate() float64 {
	return (1 - float64(r.failed)/float64(max(r.attempted, 1))) * (1 - float64(r.misses)/float64(max(r.checked, 1)))
}

var workloads = map[string]func(*runner) error{
	"join":    runJoin,
	"serve":   runServe,
	"cluster": runCluster,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == measureFlag {
		os.Exit(measureChild(os.Args[2:]))
	}
	os.Exit(run())
}

func run() int {
	var (
		bin      = flag.String("bin", "", "directory holding the built aujoin, aujoind, aujoin-coord and datagen binaries")
		work     = flag.String("work", "", "directory for run scratch space, oracle cache and traces")
		workload = flag.String("workload", "", "workload: join, serve or cluster")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 15, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *bin == "" || *work == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -work, --workload join|serve|cluster, --seconds > 0 and --trace 0|1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dir := filepath.Join(*work, fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	cache := filepath.Join(*work, "cache")
	for _, d := range []string{dir, cache} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	defer os.RemoveAll(dir)

	r := &runner{
		ctx: ctx, seed: *seed, seconds: *seconds, bin: *bin, dir: dir, cache: cache, ps: &procs{},
		e2e: map[string]float64{}, layer: map[string]float64{}, meta: map[string]any{},
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	defer r.ps.killAll()
	r.meta["workload"] = *workload
	r.meta["seed"] = *seed
	r.meta["seconds"] = *seconds
	r.meta["trace"] = *trace
	r.meta["num_cpu"] = runtime.NumCPU()
	r.meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.meta["go_version"] = runtime.Version()
	r.meta["commit"] = commit()

	cpu0 := hostCPU()
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	r.ps.killAll()
	if cpu0 != nil {
		// The share of CPU time the hypervisor gave to other guests: a busy
		// host slows every figure of the run.
		if cpu1 := hostCPU(); cpu1 != nil && cpu1[1] > cpu0[1] {
			r.meta["host_steal_share"] = float64(cpu1[0]-cpu0[0]) / float64(cpu1[1]-cpu0[1])
		}
	}

	units, values := e2eUnits, r.e2e
	if r.tr != nil {
		units, values = layerUnits, r.layer
		traceDir := filepath.Join(*work, "traces")
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := os.MkdirAll(traceDir, 0o755); err == nil {
			if err := r.tr.write(path); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			} else {
				r.meta["spans"] = path
			}
		}
	}
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	var missing []string
	for name, v := range values {
		unit, ok := units[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: internal error: unlisted metric %q\n", name)
			return 1
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	for name := range units {
		if _, ok := values[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "perfbench: internal error: %s did not measure %v\n", *workload, missing)
		return 1
	}
	meta, err := json.Marshal(map[string]any{"meta": r.meta})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(meta))
	fmt.Println(string(line))
	return 0
}

// hostCPU reads the steal ticks and the total ticks of /proc/stat's cpu
// line, or nil where that file is unavailable.
func hostCPU() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	var steal, total int64
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil
		}
		if i < 8 { // user … steal; guest time is already inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return []int64{steal, total}
}

// commit is the VCS revision the driver was built from, when the build
// recorded one (a checkout without version control has none).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

var errCancelled = errors.New("cancelled")
