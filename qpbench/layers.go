package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"ml4db/internal/engine"
	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/sqlkit/sqlparse"
	"ml4db/internal/storage"
)

// traceSink is what a traced engine reports into: its existing engine.query
// and exec.* spans and its engine.* registry counters.
type traceSink struct {
	tracer  *obs.Tracer
	metrics *obs.Registry
}

// opNames are the operators whose exclusive time is reported, by plan.OpType.
var opNames = map[plan.OpType]string{
	plan.OpSeqScan:   "seqscan",
	plan.OpIndexScan: "indexscan",
	plan.OpHashJoin:  "hashjoin",
	plan.OpNLJoin:    "nljoin",
	plan.OpMergeJoin: "mergejoin",
	plan.OpHashAgg:   "hashagg",
}

// sampleQueries is how many queries, taken from the head of the streams,
// the exact per-query counts and the executor re-calls use: the same
// queries on every run of a seed, so the counts repeat exactly.
const sampleQueries = 16

// tracedQuery is one call of the traced phase and what the trace and the
// post-run re-calls attribute to it.
type tracedQuery struct {
	q          *query
	start, end time.Time
	work       int64
	pageMiss   int64
	rows       int64
	cacheHit   bool
	fallback   bool
	estVersion int
	plan       *plan.Node
	opSelf     map[plan.OpType]time.Duration

	// From the engine's spans.
	spanRoot int
	engStart time.Time
	engDur   time.Duration
	execDur  time.Duration
	// From the re-calls.
	pq       *plan.Query
	parseDur time.Duration
	planDur  time.Duration
	estCalls int64
	inferDur time.Duration
}

func newTracedQuery(q *query, start, end time.Time, res *engine.Result) *tracedQuery {
	tq := &tracedQuery{
		q: q, start: start, end: end,
		work: res.Work, pageMiss: res.Counters.PageMiss, rows: int64(len(res.Result.Rows)),
		cacheHit: res.CacheHit, fallback: res.Fallback, estVersion: res.EstimatorVersion,
		plan: res.Plan, opSelf: map[plan.OpType]time.Duration{},
	}
	res.Plan.Walk(func(n *plan.Node) {
		if st := res.Explain.Stats(n); st != nil {
			tq.opSelf[n.Op] += st.Dur
		}
	})
	return tq
}

// countingEstimator counts the cardinality estimates one planning pass
// asks for and, with a clock, times them. Timing costs two clock reads per
// estimate, so plan time is taken from an untimed pass. One instance serves
// one pass on one goroutine.
type countingEstimator struct {
	inner optimizer.CardEstimator
	clock mlmath.Clock // nil: count only
	calls int64
	dur   time.Duration
}

func (c *countingEstimator) ScanRows(q *plan.Query, pos int) float64 {
	c.calls++
	if c.clock == nil {
		return c.inner.ScanRows(q, pos)
	}
	t0 := c.clock.Now()
	v := c.inner.ScanRows(q, pos)
	c.dur += c.clock.Now().Sub(t0)
	return v
}

func (c *countingEstimator) JoinSelectivity(q *plan.Query, cond expr.JoinCond) float64 {
	c.calls++
	if c.clock == nil {
		return c.inner.JoinSelectivity(q, cond)
	}
	t0 := c.clock.Now()
	v := c.inner.JoinSelectivity(q, cond)
	c.dur += c.clock.Now().Sub(t0)
	return v
}

// tracedResult is the outcome of a traced run.
type tracedResult struct {
	metrics           map[string]float64
	attempted, failed int
	firstErr          error
	tracePath         string
	untraced, traced  *phase
}

// tracedRun runs the streams untraced for half the time, then on a traced
// engine (spans, registry, EXPLAIN ANALYZE) for the other half, checking
// that each traced query returns the rows its untraced run returned. The
// per-layer numbers come from the traced half plus re-calls of each layer's
// public functions made after it, off the clock.
func tracedRun(in *instance, streams [][]*query, warm []*query, seconds int, tracePath string) (*tracedResult, error) {
	half := time.Duration(seconds) * time.Second / 2
	fps := newFingerprints(streams)
	pu := runPhase(in.eng, streams, phaseOpts{dur: half, record: fps})

	sink := &traceSink{tracer: obs.NewTracer(nil), metrics: obs.NewRegistry()}
	eng, store, err := in.newEngine(sink)
	if err != nil {
		return nil, err
	}
	if err := warmUp(eng, warm); err != nil {
		return nil, err
	}
	counter := func(name string) float64 { return float64(sink.metrics.Counter(name).Value()) }
	hits0, misses0, fb0 := counter("engine.plancache.hits"), counter("engine.plancache.misses"), counter("engine.fallbacks")
	dropped0 := store.DroppedStatements()
	var pool0 storage.PoolStats
	if in.buf != nil {
		pool0 = in.buf.Stats()
	}
	recs := make([][]*tracedQuery, len(streams))
	pt := runPhase(eng, streams, phaseOpts{
		dur: half, minPerClient: (sampleQueries + len(streams) - 1) / len(streams),
		analyze: true, compare: fps,
		observe: func(c int, q *query, start, end time.Time, res *engine.Result) {
			recs[c] = append(recs[c], newTracedQuery(q, start, end, res))
		},
	})
	m := map[string]float64{}
	var all []*tracedQuery
	for _, r := range recs {
		all = append(all, r...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start.Before(all[j].start) })
	n := float64(len(all))
	hits, misses := counter("engine.plancache.hits")-hits0, counter("engine.plancache.misses")-misses0
	m["engine.plancache.hit_rate"] = ratio(hits, hits+misses)
	m["engine.fallback_rate"] = (counter("engine.fallbacks") - fb0) / n
	m["querystore.dropped_share"] = 0
	if store != nil {
		m["querystore.dropped_share"] = float64(store.DroppedStatements()-dropped0) / n
	}
	m["storage.hit_rate"], m["storage.misses_per_query"], m["storage.evictions_per_query"] = 0, 0, 0
	if in.buf != nil {
		d := in.buf.Stats()
		h, mi, ev := float64(d.Hits-pool0.Hits), float64(d.Misses-pool0.Misses), float64(d.Evictions-pool0.Evictions)
		m["storage.hit_rate"] = ratio(h, h+mi)
		m["storage.misses_per_query"] = mi / n
		m["storage.evictions_per_query"] = ev / n
	}

	spans := sink.tracer.Spans()
	if err := matchSpans(spans, recs); err != nil {
		return nil, err
	}
	if err := recallLayers(in, eng, recs, all, m); err != nil {
		return nil, err
	}

	var sumW, sumE, sumX, sumPlan, sumPresent, sumPre, sumParse, sumOverhead, pageMiss float64
	var sqlN float64
	opSelf := map[plan.OpType]time.Duration{}
	for _, tq := range all {
		sumW += float64(tq.end.Sub(tq.start))
		sumE += float64(tq.engDur)
		sumX += float64(tq.execDur)
		planned := 0.0
		if !tq.cacheHit {
			planned = float64(tq.planDur)
		}
		sumPlan += planned
		sumOverhead += float64(tq.engDur-tq.execDur) - planned
		sumPresent += float64(tq.end.Sub(tq.engStart.Add(tq.engDur)))
		sumPre += float64(tq.engStart.Sub(tq.start)) - float64(tq.parseDur)
		if tq.q.sql != "" {
			sumParse += float64(tq.parseDur)
			sqlN++
		}
		for op, d := range tq.opSelf {
			opSelf[op] += d
		}
		pageMiss += float64(tq.pageMiss)
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	m["sqlparse.parse_us"] = us(ratio(sumParse, sqlN))
	m["engine.run_us"] = us(sumE / n)
	m["engine.present_us"] = us(sumPresent / n)
	m["engine.overhead_us"] = us(sumOverhead / n)
	m["optimizer.share"] = sumPlan / sumW
	m["exec.execute_us"] = us(sumX / n)
	m["exec.share"] = sumX / sumW
	for op, name := range opNames {
		m["exec."+name+".self_us"] = us(float64(opSelf[op]) / n)
	}
	m["exec.page_miss_per_query"] = pageMiss / n
	m["unattributed_share"] = math.Abs(sumPre) / sumW
	m["trace_overhead_pct"] = 100 * (pu.qps() - pt.qps()) / pu.qps()
	attempted, failed := pu.attempted+pt.attempted, pu.failed+pt.failed
	m["error_rate"] = float64(failed) / float64(attempted)

	if err := writeSpans(tracePath, spans, all); err != nil {
		return nil, err
	}
	firstErr := pu.firstErr
	if firstErr == nil {
		firstErr = pt.firstErr
	}
	return &tracedResult{metrics: m, attempted: attempted, failed: failed, firstErr: firstErr,
		tracePath: tracePath, untraced: pu, traced: pt}, nil
}

// matchSpans pairs every traced call with the engine.query span it caused.
// Each client's calls are disjoint in time, so a span lies inside at most
// one call per client; with several clients, the exec.execute span's work
// and row counts, then the latest call start, pick among them.
func matchSpans(spans []obs.SpanData, recs [][]*tracedQuery) error {
	execOf := map[int]obs.SpanData{}
	for _, sp := range spans {
		if sp.Name == "exec.execute" {
			execOf[sp.Parent] = sp
		}
	}
	next := make([]int, len(recs))
	for _, sp := range spans {
		if sp.Name != "engine.query" || sp.Parent != 0 {
			continue
		}
		end := sp.Start.Add(sp.Duration)
		var best *tracedQuery
		bestMatch := false
		for c, rs := range recs {
			for next[c] < len(rs) && rs[next[c]].end.Before(sp.Start) {
				next[c]++
			}
			if next[c] == len(rs) {
				continue
			}
			tq := rs[next[c]]
			if tq.spanRoot != 0 || sp.Start.Before(tq.start) || tq.end.Before(end) {
				continue
			}
			// Prefer the call whose counts match, then the one that began
			// last: the span starts right after its own call begins.
			ex := execOf[sp.ID]
			match := attrInt(ex, "work") == tq.work && attrInt(ex, "rows") == tq.rows
			if best == nil || match && !bestMatch || match == bestMatch && tq.start.After(best.start) {
				best, bestMatch = tq, match
			}
		}
		if best == nil {
			continue // a warm-up query
		}
		ex, ok := execOf[sp.ID]
		if !ok {
			return fmt.Errorf("engine.query span %d has no exec.execute child", sp.ID)
		}
		best.spanRoot, best.engStart, best.engDur, best.execDur = sp.ID, sp.Start, sp.Duration, ex.Duration
	}
	for _, rs := range recs {
		for _, tq := range rs {
			if tq.spanRoot == 0 {
				return fmt.Errorf("no engine.query span found for traced call %s", tq.q.label())
			}
		}
	}
	return nil
}

func attrInt(sp obs.SpanData, key string) int64 {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Int
		}
	}
	return -1
}

// forClients runs fn over each client's calls on its own goroutine, so the
// re-calls see the contention the traced phase saw, and returns the
// process-wide allocation count the calls made.
func forClients(recs [][]*tracedQuery, fn func(tq *tracedQuery) error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	errs := make([]error, len(recs))
	var wg sync.WaitGroup
	for c := range recs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, tq := range recs[c] {
				if err := fn(tq); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return after.Mallocs - before.Mallocs, nil
}

// recallLayers re-calls each layer's public entry point on the traced
// queries — sqlparse.Parse, Optimizer.Plan on a private optimizer set up
// like the engine's, querystore Store.Record into a fresh store, and
// Executor.Execute on the sample — timing each call from outside.
func recallLayers(in *instance, eng *engine.Engine, recs [][]*tracedQuery, all []*tracedQuery, m map[string]float64) error {
	cat := in.ss.Cat
	n := float64(len(all))
	var sqlN float64
	allocs, err := forClients(recs, func(tq *tracedQuery) error {
		if tq.q.sql == "" {
			tq.pq = tq.q.pq
			return nil
		}
		t0 := time.Now()
		st, err := sqlparse.Parse(cat, tq.q.sql)
		tq.parseDur = time.Since(t0)
		if err != nil {
			return err
		}
		tq.pq = st.Query
		return nil
	})
	if err != nil {
		return err
	}
	for _, tq := range all {
		if tq.q.sql != "" {
			sqlN++
		}
	}
	m["sqlparse.allocs_per_call"] = ratio(float64(allocs), sqlN)

	// The sample: the first calls of each client, which are the same
	// stream positions on every run of a seed.
	var sample []*tracedQuery
	per := (sampleQueries + len(recs) - 1) / len(recs)
	for _, rs := range recs {
		sample = append(sample, rs[:per]...)
	}

	// Plan time: every traced query re-planned on its client's goroutine.
	// With several clients, a query that missed the plan cache is also
	// re-executed, untimed, so the re-plans meet the contention the
	// engine's planning met.
	base := optimizer.New(cat)
	est := base.Est
	if in.learned != nil {
		est = in.learned
	}
	par := eng.Parallelism()
	planWith := func(dec *countingEstimator, pq *plan.Query) (time.Duration, error) {
		opt := &optimizer.Optimizer{Cat: cat, Est: dec, Cost: base.Cost, IO: base.IO, Parallelism: par}
		t0 := time.Now()
		_, err := opt.Plan(pq, optimizer.NoHint())
		return time.Since(t0), err
	}
	ex := exec.New(cat)
	if _, err := forClients(recs, func(tq *tracedQuery) error {
		dec := &countingEstimator{inner: est}
		var err error
		if tq.planDur, err = planWith(dec, tq.pq); err != nil {
			return err
		}
		tq.estCalls = dec.calls
		if len(recs) > 1 && !tq.cacheHit {
			_, err = ex.Execute(tq.plan.Clone(), exec.Options{Pool: in.pool})
		}
		return err
	}); err != nil {
		return err
	}
	var planSum, calls float64
	for _, tq := range all {
		planSum += float64(tq.planDur)
		calls += float64(tq.estCalls)
	}
	m["optimizer.plan_us"] = planSum / n / 1e3
	m["optimizer.est_calls_per_plan"] = calls / n

	// Allocations and inference share: the sample, on one goroutine.
	var planAllocs uint64
	var samplePlan, infer time.Duration
	for _, tq := range sample {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := planWith(&countingEstimator{inner: est}, tq.pq)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		planAllocs += after.Mallocs - before.Mallocs
		samplePlan += d
		timed := &countingEstimator{inner: est, clock: mlmath.SystemClock{}}
		if _, err := planWith(timed, tq.pq); err != nil {
			return err
		}
		infer += timed.dur
	}
	m["optimizer.allocs_per_plan"] = float64(planAllocs) / float64(len(sample))
	m["cardest.infer_us_per_plan"], m["cardest.infer_share"] = 0, 0
	if in.learned != nil {
		m["cardest.infer_us_per_plan"] = float64(infer) / float64(len(sample)) / 1e3
		m["cardest.infer_share"] = float64(infer) / float64(samplePlan)
	}

	m["querystore.record_us"] = 0
	if in.w.store {
		st := querystore.New(storeOptions(cat))
		var total time.Duration
		for _, tq := range all {
			o := querystore.Observation{
				Shape: tq.q.sql, Work: tq.work, Rows: tq.rows, PageMisses: tq.pageMiss,
				CacheHit: tq.cacheHit, Fallback: tq.fallback, EstimatorVersion: tq.estVersion, Plan: tq.plan,
			}
			t0 := time.Now()
			st.Record(o)
			total += time.Since(t0)
		}
		m["querystore.record_us"] = float64(total) / n / 1e3
	}

	var work float64
	for _, tq := range sample {
		work += float64(tq.work - tq.pageMiss)
	}
	m["exec.work_per_query"] = work / float64(len(sample))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, tq := range sample {
		if _, err := ex.Execute(tq.plan.Clone(), exec.Options{Pool: in.pool}); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	m["exec.allocs_per_query"] = float64(after.Mallocs-before.Mallocs) / float64(len(sample))
	return nil
}

// spanLine is one span of the written trace. Query is the traced call's id;
// spans of one call share it, and Parent links each span to its caller (0
// for the call itself). Recall marks a bench re-call placed at the point of
// the call it stands for.
type spanLine struct {
	Query   int                    `json:"query"`
	ID      int                    `json:"id"`
	Parent  int                    `json:"parent"`
	Name    string                 `json:"name"`
	StartUs float64                `json:"start_us"`
	DurUs   float64                `json:"dur_us"`
	Recall  bool                   `json:"recall,omitempty"`
	Attrs   map[string]interface{} `json:"attrs,omitempty"`
}

// maxWrittenCalls caps the calls whose spans are written, so a trace file
// stays a few megabytes; every call is still measured.
const maxWrittenCalls = 1000

// writeSpans writes the spans of the traced phase's first maxWrittenCalls
// calls as JSON lines: per call the bench's own query span, the parse and
// plan re-calls, and the engine's engine.query and exec.* spans under it.
func writeSpans(path string, spans []obs.SpanData, all []*tracedQuery) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if len(all) == 0 {
		return nil
	}
	t0 := all[0].start
	rel := func(t time.Time) float64 { return float64(t.Sub(t0)) / 1e3 }
	rootOf := make([]int, len(spans)+1)
	byRoot := map[int][]obs.SpanData{}
	for _, sp := range spans {
		rootOf[sp.ID] = sp.ID
		if sp.Parent != 0 {
			rootOf[sp.ID] = rootOf[sp.Parent]
		}
		byRoot[rootOf[sp.ID]] = append(byRoot[rootOf[sp.ID]], sp)
	}
	nextID := len(spans) + 1
	for qid, tq := range all[:min(len(all), maxWrittenCalls)] {
		qspan := nextID
		nextID++
		name := "session.query"
		if tq.q.sql == "" {
			name = "session.run"
		}
		lines := []spanLine{{Query: qid, ID: qspan, Name: name, StartUs: rel(tq.start), DurUs: float64(tq.end.Sub(tq.start)) / 1e3}}
		if tq.q.sql != "" {
			lines = append(lines, spanLine{Query: qid, ID: nextID, Parent: qspan, Name: "sqlparse.parse", StartUs: rel(tq.start), DurUs: float64(tq.parseDur) / 1e3, Recall: true})
			nextID++
		}
		for _, sp := range byRoot[tq.spanRoot] {
			parent := sp.Parent
			if parent == 0 {
				parent = qspan
			}
			attrs := map[string]interface{}{}
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Value()
			}
			lines = append(lines, spanLine{Query: qid, ID: sp.ID, Parent: parent, Name: sp.Name, StartUs: rel(sp.Start), DurUs: float64(sp.Duration) / 1e3, Attrs: attrs})
			if sp.ID == tq.spanRoot && !tq.cacheHit {
				lines = append(lines, spanLine{Query: qid, ID: nextID, Parent: sp.ID, Name: "optimizer.plan", StartUs: rel(sp.Start), DurUs: float64(tq.planDur) / 1e3, Recall: true})
				nextID++
			}
		}
		for _, l := range lines {
			if err := enc.Encode(l); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
