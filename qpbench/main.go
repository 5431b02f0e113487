// Command qpbench is the repository's query-path benchmark. It drives
// generated workloads through engine.Session — Session.Query for SQL text,
// Session.Run for grouped aggregates the SQL grammar cannot express — as a
// closed loop, checks every result against its own reference evaluator, and
// prints the metrics named in BENCHMARK.json.
//
// Usage, from the repository root:
//
//	bash qpbench/run.sh --workload olap-mem --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 it reports the per-layer metrics from a traced run and
// writes the spans it recorded as JSON lines under --out. The last line of
// standard output is the result object; the exit code is nonzero on any
// wrong result or failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// heldOutSeed is the seed a change claiming a gain must also be measured
// on; it is not used while writing or tuning a change.
const heldOutSeed = 7919

// setUpReps is how many times an untraced run sets the workload up from
// scratch; setup_s is the median.
const setUpReps = 5

// gcPercent is the garbage collector target the benchmark runs the engine
// under. At the default of 100 the collector's share of two CPUs made qps
// differ by a quarter between identical runs; at 400 it stays near a tenth.
// Allocation counts and live heap are reported on their own, so allocation
// savings still show.
const gcPercent = 400

// minQueries is the fewest queries a run must complete: p95 then has ten
// samples beyond it.
const minQueries = 200

// units gives every metric the benchmark can emit its unit.
var units = map[string]string{
	"qps":                   "queries/s",
	"latency_p50_ms":        "ms",
	"latency_p95_ms":        "ms",
	"allocs_per_query":      "allocs",
	"alloc_bytes_per_query": "bytes",
	"heap_live_mb":          "MB",
	"setup_s":               "s",

	"sqlparse.parse_us":            "us",
	"sqlparse.allocs_per_call":     "allocs",
	"engine.plancache.hit_rate":    "ratio",
	"engine.run_us":                "us",
	"engine.present_us":            "us",
	"engine.overhead_us":           "us",
	"engine.fallback_rate":         "ratio",
	"optimizer.plan_us":            "us",
	"optimizer.allocs_per_plan":    "allocs",
	"optimizer.est_calls_per_plan": "count",
	"optimizer.share":              "ratio",
	"cardest.infer_us_per_plan":    "us",
	"cardest.infer_share":          "ratio",
	"exec.execute_us":              "us",
	"exec.seqscan.self_us":         "us",
	"exec.indexscan.self_us":       "us",
	"exec.hashjoin.self_us":        "us",
	"exec.nljoin.self_us":          "us",
	"exec.mergejoin.self_us":       "us",
	"exec.hashagg.self_us":         "us",
	"exec.work_per_query":          "count",
	"exec.allocs_per_query":        "allocs",
	"exec.page_miss_per_query":     "count",
	"exec.share":                   "ratio",
	"storage.hit_rate":             "ratio",
	"storage.misses_per_query":     "count",
	"storage.evictions_per_query":  "count",
	"querystore.record_us":         "us",
	"querystore.dropped_share":     "ratio",
	"trace_overhead_pct":           "%",
	"unattributed_share":           "ratio",
	"error_rate":                   "ratio",
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	debug.SetGCPercent(gcPercent)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: olap-mem, adhoc-plan or spill-mixed")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the data and query streams are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measured seconds (split into untraced and traced halves with --trace 1)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "qpbench"), "directory for heap files and the written trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "qpbench: want --workload <name> --seed <n> --seconds <s >= 1> --trace <0|1>")
		return 2
	}
	cfg.trace = trace == 1
	res, report, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "qpbench:", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	rep, err := json.Marshal(report)
	if err != nil {
		fmt.Fprintln(stderr, "qpbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "report %s\n", rep)
	for _, name := range names {
		fmt.Fprintf(stdout, "%-30s %16.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "qpbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "qpbench: %d of %d queries failed or returned wrong rows; first: %s\n", res.Failed, res.Attempted, report.FirstError)
		return 1
	}
	return 0
}

// report is the environment and sizing block printed with every result.
type report struct {
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	HeldOutSeed  int     `json:"held_out_seed"`
	Traced       bool    `json:"traced"`
	GoVersion    string  `json:"go_version"`
	GOOS         string  `json:"goos"`
	GOARCH       string  `json:"goarch"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GCPercent    int     `json:"gc_percent"`
	NumCPU       int     `json:"num_cpu"`
	Clients      int     `json:"clients"`
	Load         string  `json:"load"`
	PoolWorkers  int     `json:"exec_pool_workers"`
	Sizing       sizing  `json:"sizing"`
	Distinct     int     `json:"distinct_statements_issued"`
	PlanCacheCap int     `json:"plan_cache_capacity"`
	PlanCacheFit string  `json:"plan_cache_fit"`
	StoreCap     int     `json:"querystore_statement_cap,omitempty"`
	StoreFit     string  `json:"querystore_fit,omitempty"`
	PoolFit      string  `json:"buffer_pool_fit,omitempty"`
	FlushPolicy  string  `json:"flush_policy,omitempty"`
	Queries      int     `json:"queries"`
	PerClient    []int   `json:"queries_per_client"`
	WallSeconds  float64 `json:"measured_wall_s"`
	ErrorRate    float64 `json:"error_rate"`
	FirstError   string  `json:"first_error,omitempty"`
	TraceFile    string  `json:"trace_file,omitempty"`
	UntracedQPS  float64 `json:"untraced_qps,omitempty"`
	TracedQPS    float64 `json:"traced_qps,omitempty"`
}

func fit(n, capacity int) string {
	if n <= capacity {
		return fmt.Sprintf("fits: %d <= %d", n, capacity)
	}
	return fmt.Sprintf("exceeds: %d > %d", n, capacity)
}

// measure sets the workload up, runs it, and assembles the result.
func measure(cfg config) (*result, *report, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, nil, err
	}
	return measureWorkload(w, cfg)
}

func measureWorkload(w *workload, cfg config) (*result, *report, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, nil, err
	}
	clients := clientCount(w.manyClients)
	streams, warm := w.streams(w, cfg.seed, clients, cfg.seconds)
	reps := setUpReps
	if cfg.trace {
		reps = 1
	}
	dir := filepath.Join(cfg.out, fmt.Sprintf("data-%d", os.Getpid()))
	defer os.RemoveAll(dir) // heap files of the set-up repetitions
	in, setupS, err := timeSetUp(w, cfg.seed, dir, warm, reps)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer in.close()
	bind(in.ss, streams...)
	answerAll(in.db, streams...)

	rep := &report{
		Workload: w.name, Seed: cfg.seed, HeldOutSeed: heldOutSeed, Traced: cfg.trace,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), GCPercent: gcPercent, NumCPU: runtime.NumCPU(),
		Clients: clients, Load: fmt.Sprintf("closed loop, %d client(s), each waits for its result", clients),
		PoolWorkers: in.pool.Workers(), Sizing: in.sizing, PlanCacheCap: planCacheCap,
	}
	if in.pool == nil {
		rep.PoolWorkers = 0
	}
	if w.spill {
		rep.PoolFit = fit(in.sizing.FactPages, in.sizing.PoolFrames)
		rep.FlushPolicy = "heap file flushed once at set-up; no writes in the measured phase"
	}

	res := &result{Metrics: map[string]metric{}}
	var firstErr error
	if cfg.trace {
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, cfg.seed))
		tr, err := tracedRun(in, streams, warm, cfg.seconds, path)
		if err != nil {
			return nil, nil, fmt.Errorf("traced run: %w", err)
		}
		for name, v := range tr.metrics {
			if err := res.add(name, v); err != nil {
				return nil, nil, err
			}
		}
		res.Attempted, res.Failed, firstErr = tr.attempted, tr.failed, tr.firstErr
		rep.TraceFile, rep.UntracedQPS, rep.TracedQPS = tr.tracePath, tr.untraced.qps(), tr.traced.qps()
		rep.Queries, rep.PerClient = tr.traced.attempted, tr.traced.perClientCompleted
		rep.Distinct = distinct(streams, tr.untraced.perClientCompleted)
		rep.WallSeconds = tr.untraced.wall.Seconds() + tr.traced.wall.Seconds()
	} else {
		p := runPhase(in.eng, streams, phaseOpts{dur: time.Duration(cfg.seconds) * time.Second})
		if p.attempted < minQueries {
			return nil, nil, fmt.Errorf("only %d queries completed in %ds; the run needs %d for p95", p.attempted, cfg.seconds, minQueries)
		}
		p50, err := percentile(p.latMs, 0.50)
		if err != nil {
			return nil, nil, err
		}
		p95, err := percentile(p.latMs, 0.95)
		if err != nil {
			return nil, nil, err
		}
		q := float64(p.attempted)
		for name, v := range map[string]float64{
			"qps":                   p.qps(),
			"latency_p50_ms":        p50,
			"latency_p95_ms":        p95,
			"allocs_per_query":      float64(p.mallocs) / q,
			"alloc_bytes_per_query": float64(p.allocBytes) / q,
			"heap_live_mb":          float64(p.heapLiveBytes) / 1e6,
			"setup_s":               setupS,
		} {
			if err := res.add(name, v); err != nil {
				return nil, nil, err
			}
		}
		res.Attempted, res.Failed, firstErr = p.attempted, p.failed, p.firstErr
		rep.Queries, rep.PerClient, rep.WallSeconds = p.attempted, p.perClientCompleted, p.wall.Seconds()
		rep.Distinct = distinct(streams, p.perClientCompleted)
	}
	rep.PlanCacheFit = fit(rep.Distinct, planCacheCap)
	if w.store {
		rep.StoreCap, rep.StoreFit = storeStatementCap, fit(rep.Distinct, storeStatementCap)
	}
	res.Correct = res.Failed == 0
	rep.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	if firstErr != nil {
		rep.FirstError = firstErr.Error()
	}
	return res, rep, nil
}

func (r *result) add(name string, v float64) error {
	unit, ok := units[name]
	if !ok {
		return fmt.Errorf("metric %q has no unit", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s is %v", name, v)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	return nil
}
