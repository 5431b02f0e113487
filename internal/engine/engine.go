package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"ml4db/internal/mlmath"
	"ml4db/internal/modelsvc"
	"ml4db/internal/obs"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
)

// ErrOverloaded is the admission-control sentinel: the engine is already
// running its maximum number of concurrent sessions and rejected the query
// instead of queueing it. Rejections surface as *OverloadedError, which
// matches this sentinel under errors.Is.
var ErrOverloaded = errors.New("engine: overloaded")

// OverloadedError reports an admission rejection with the concurrency limit
// that was saturated at the time.
type OverloadedError struct {
	Limit int
}

// Error implements error.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("engine: overloaded (%d sessions already active)", e.Limit)
}

// Is reports admission rejections as ErrOverloaded for errors.Is callers.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// Options configures an Engine.
type Options struct {
	// MaxConcurrent bounds the number of sessions executing at once; further
	// arrivals are rejected with ErrOverloaded. Values below one default
	// to 8.
	MaxConcurrent int
	// CacheSize bounds the shared plan cache in entries. Values below one
	// default to 256.
	CacheSize int
	// DefaultBudget, when non-nil, applies to every query whose session does
	// not set its own budget.
	DefaultBudget *exec.Budget
	// EstimatorCallBudget caps how many times one planning pass may invoke
	// the learned estimator before the engine gives up on it and re-plans
	// classically — the deterministic analogue of an inference timeout.
	// Zero means unlimited.
	EstimatorCallBudget int64
	// Metrics, when non-nil, receives the engine.* instruments.
	Metrics *obs.Registry
	// Trace, when non-nil, wraps each query in an engine.query span.
	Trace *obs.Tracer
	// Store, when non-nil, receives one querystore.Observation per executed
	// query (keyed by the plan cache's normalized statement shape) and a
	// model event per estimator install, and New registers the sys_* system
	// views over it in the catalog. A nil store is off and free.
	Store *querystore.Store
	// Pool, when non-nil, runs partitioned operators' shards in parallel and
	// sets the initial parallelism degree to its worker count (see
	// SetParallelism). Executions are bit-identical with or without a pool;
	// only latency changes.
	Pool *mlmath.Pool
}

// Result is the outcome of one engine query.
type Result struct {
	*exec.Result
	// Plan is the executed physical plan. It is shared with the plan cache
	// and every session that hits the same entry, so it is read-only;
	// per-node observations are on Result.Actuals.
	Plan *plan.Node
	// CacheHit reports whether the plan came from the shared plan cache.
	CacheHit bool
	// Fallback reports that the learned estimator failed during planning and
	// the plan was rebuilt through the classical path.
	Fallback bool
	// EstimatorVersion is the learned-estimator version the plan was built
	// under (0 when planning was classical).
	EstimatorVersion int
	// Query is the query the plan was actually built from — the input after
	// view rewriting, or the input itself when no rewriter applied.
	Query *plan.Query
	// PosMap maps each input table position to its (position, column offset)
	// in Query. Nil means identity: no rewriter applied.
	PosMap []plan.PosMap
}

// Engine is the concurrent query front end: admission control, a shared plan
// cache, per-query budgets, and learned-estimator fallback over one catalog.
//
// The engine spawns no goroutines; each session runs on its caller. All
// methods are safe for concurrent use.
type Engine struct {
	cat  *catalog.Catalog
	exc  *exec.Executor
	opts Options

	// slots is the admission semaphore: one token per running session.
	slots chan struct{}
	cache *planCache

	mu            sync.Mutex
	statsVersion  int
	estVersion    int
	designVersion int
	parallelism   int
	rewriters     []plan.QueryRewriter
	learned       optimizer.CardEstimator
	classical     *optimizer.Optimizer
}

// New builds an engine over the catalog. The catalog should already be
// analyzed (AnalyzeAll); RefreshStats re-analyzes later. With a workload
// store configured, New registers the querystore sys_* system views in the
// catalog; a non-virtual table squatting on a sys_ name is a construction
// bug and panics.
func New(cat *catalog.Catalog, opts Options) *Engine {
	if opts.MaxConcurrent < 1 {
		opts.MaxConcurrent = 8
	}
	if opts.Store != nil {
		if err := querystore.RegisterViews(cat, opts.Store); err != nil {
			//ml4db:allow nakedpanic "construction-time misconfiguration, same contract as catalog.MustAdd"
			panic(err)
		}
	}
	e := &Engine{
		cat:       cat,
		exc:       exec.New(cat),
		opts:      opts,
		slots:     make(chan struct{}, opts.MaxConcurrent),
		cache:     newPlanCache(opts.CacheSize, opts.Metrics),
		classical: optimizer.New(cat),
	}
	e.exc.Trace = opts.Trace
	e.exc.Metrics = opts.Metrics
	e.parallelism = opts.Pool.Workers() // nil pool reports 1: serial
	return e
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// EstimatorVersion returns the installed learned-estimator version (zero
// when none is installed).
func (e *Engine) EstimatorVersion() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.estVersion
}

// CachedPlans returns the number of plans currently cached.
func (e *Engine) CachedPlans() int { return e.cache.Len() }

// Parallelism returns the current parallelism degree the optimizer costs the
// Partitions knob with (1 = serial planning).
func (e *Engine) Parallelism() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.parallelism
}

// SetParallelism changes the parallelism degree for subsequent planning.
// Values below one clamp to one. No cache invalidation is needed: the cache
// key carries the degree, so plans for the old degree simply become
// unreachable — and become reachable again if the degree switches back,
// which is sound because execution results are bit-identical across degrees.
func (e *Engine) SetParallelism(p int) {
	if p < 1 {
		p = 1
	}
	e.mu.Lock()
	e.parallelism = p
	e.mu.Unlock()
}

// Quiesce runs fn with the engine drained: every admission slot is held, so
// no session is planning or executing while fn mutates shared state — the
// catalog, indexes, or rewriters. It blocks until in-flight sessions finish;
// admissions arriving meanwhile are rejected with ErrOverloaded. fn must not
// run queries through this engine (they would be rejected) and must pair any
// physical mutation with NotifyDesignChange or RefreshStats so cached plans
// over the old design become unreachable.
func (e *Engine) Quiesce(fn func()) {
	for i := 0; i < cap(e.slots); i++ {
		e.slots <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(e.slots); i++ {
			<-e.slots
		}
	}()
	fn()
}

// RefreshStats re-analyzes every table (a database-wide ANALYZE), bumps the
// statistics version, and invalidates the plan cache: no plan built against
// the old statistics can be served afterwards.
//
// The refresh quiesces the engine first (see Quiesce), so statistics never
// change under a session that is planning or executing.
func (e *Engine) RefreshStats(buckets, sampleSize int) {
	e.Quiesce(func() {
		e.cat.AnalyzeAll(buckets, sampleSize)
		e.mu.Lock()
		e.statsVersion++
		e.mu.Unlock()
		e.cache.Invalidate()
		e.opts.Metrics.Counter("engine.stats_refreshes").Inc()
	})
}

// NotifyDesignChange records a physical-design mutation — an index built or
// dropped, a view table filled or emptied: it bumps the design version,
// making every cached plan key unreachable, and drops the cache. Callers
// mutating the catalog of a live engine must do so under Quiesce and call
// this before releasing it.
func (e *Engine) NotifyDesignChange() {
	e.mu.Lock()
	e.designVersion++
	e.mu.Unlock()
	e.cache.Invalidate()
	e.opts.Metrics.Counter("engine.design_changes").Inc()
}

// SetRewriters installs the query rewriters applied, in order, before
// planning — materialized views substituting for join pairs. Installing
// counts as a design change (the same statement now plans to a different
// tree), so the plan cache is invalidated through NotifyDesignChange.
func (e *Engine) SetRewriters(rs []plan.QueryRewriter) {
	e.mu.Lock()
	e.rewriters = append([]plan.QueryRewriter(nil), rs...)
	e.mu.Unlock()
	e.NotifyDesignChange()
}

// SetEstimator installs (or, with a nil estimator, removes) the learned
// cardinality estimator under the given deployment version and invalidates
// the plan cache. Version zero always means "classical only"; installing an
// estimator requires a nonzero version so cache keys distinguish it.
func (e *Engine) SetEstimator(est optimizer.CardEstimator, version int) error {
	if est != nil && version == 0 {
		return fmt.Errorf("engine: learned estimator requires a nonzero version")
	}
	if est == nil {
		version = 0
	}
	e.mu.Lock()
	e.learned = est
	e.estVersion = version
	e.mu.Unlock()
	e.cache.Invalidate()
	e.opts.Metrics.Counter("engine.estimator_installs").Inc()
	e.opts.Store.RecordModelInstall(version)
	return nil
}

// SyncRollout aligns the engine with a modelsvc canary rollout: when the
// rollout's current deployment version differs from the installed estimator
// version, the estimator built by mk for that deployment is installed (which
// invalidates the plan cache). Call it after observing rollout outcomes; a
// promotion or demotion then reaches the planner exactly once. Returns
// whether an install happened.
func (e *Engine) SyncRollout(r *modelsvc.Rollout, mk func(modelsvc.Deployment) optimizer.CardEstimator) (bool, error) {
	d := r.Current()
	if d.Version == e.EstimatorVersion() {
		return false, nil
	}
	if err := e.SetEstimator(mk(d), d.Version); err != nil {
		return false, err
	}
	return true, nil
}

// Session returns a new session with the default hint set and the engine's
// default budget. Sessions are lightweight; create one per logical client.
func (e *Engine) Session() *Session {
	return &Session{eng: e, Hint: optimizer.NoHint()}
}

// Run executes q with the default hint set, budget, and no EXPLAIN — the
// one-shot convenience over Session.
func (e *Engine) Run(q *plan.Query) (*Result, error) {
	return e.run(q, optimizer.NoHint(), e.opts.DefaultBudget, false)
}

// run is the shared query path: admit, plan (through the cache), execute.
func (e *Engine) run(q *plan.Query, hint optimizer.HintSet, budget *exec.Budget, analyze bool) (*Result, error) {
	m := e.opts.Metrics
	select {
	case e.slots <- struct{}{}:
	default:
		m.Counter("engine.rejected").Inc()
		return nil, &OverloadedError{Limit: cap(e.slots)}
	}
	defer func() {
		m.Gauge("engine.active").Set(float64(len(e.slots) - 1))
		<-e.slots
	}()
	m.Counter("engine.admitted").Inc()
	m.Gauge("engine.active").Set(float64(len(e.slots)))

	sp := e.opts.Trace.StartSpan("engine.query", nil)
	defer sp.End()

	e.mu.Lock()
	statsV, estV, designV, learned := e.statsVersion, e.estVersion, e.designVersion, e.learned
	par := e.parallelism
	rewriters := e.rewriters
	e.mu.Unlock()

	// The statement shape is computed from the caller's query, so one
	// statement keeps one identity (and one querystore record) across design
	// changes; the plan is built from the rewritten query. Rewriters only
	// change together with a design-version bump, so a cached plan under
	// this key always matches this rewrite.
	shape := queryShape(q, hint.Name)
	// View-substitution rewriters do not remap aggregation specs, so
	// aggregating queries plan against their original tables.
	if q.Agg != nil {
		rewriters = nil
	}
	exq, posMap := applyRewriters(q, rewriters)
	key := cacheKey(shape, statsV, estV, designV, par)
	p, hit := e.cache.Get(key)
	fallback := false
	if !hit {
		var err error
		p, fallback, err = e.plan(exq, hint, learned, par)
		if err != nil {
			m.Counter("engine.plan_errors").Inc()
			return nil, err
		}
		if fallback {
			m.Counter("engine.fallbacks").Inc()
		}
		e.cache.Put(key, p)
	}
	sp.SetStr("hint", hint.Name).SetInt("cache_hit", boolInt(hit))

	res, err := e.exc.Execute(p, exec.Options{Budget: budget, Analyze: analyze, Span: sp, Pool: e.opts.Pool})
	out := &Result{Result: res, Plan: p, CacheHit: hit, Fallback: fallback, EstimatorVersion: estV, Query: exq, PosMap: posMap}
	budgetAbort := err != nil && errors.Is(err, exec.ErrWorkBudgetExceeded)
	if budgetAbort {
		m.Counter("engine.budget_aborts").Inc()
	}
	if st := e.opts.Store; st != nil && (err == nil || budgetAbort) {
		o := querystore.Observation{
			Shape:            shape,
			CacheHit:         hit,
			Fallback:         fallback,
			BudgetAbort:      budgetAbort,
			EstimatorVersion: estV,
			Plan:             p,
		}
		if res != nil {
			o.Work = res.Work
			o.Rows = int64(len(res.Rows))
			o.PageMisses = res.Counters.PageMiss
			o.Actuals = res.Actuals
		}
		st.Record(o)
	}
	if err != nil {
		return out, err
	}
	return out, nil
}

// plan builds a plan for q under hint. With a learned estimator installed it
// plans through a guarded wrapper first; if the wrapper trips — a non-finite
// estimate or an exhausted call budget — the result is discarded and the
// query is re-planned through the classical path (fallback=true). Planning
// never lets a learned component's failure escape as a query failure unless
// the classical path fails too.
func (e *Engine) plan(q *plan.Query, hint optimizer.HintSet, learned optimizer.CardEstimator, parallelism int) (p *plan.Node, fallback bool, err error) {
	// Each planning pass builds its own Optimizer so the parallelism degree
	// is per-call state: the shared e.classical is never mutated, and a
	// degree of 1 plans byte-identically to a pre-parallel optimizer.
	classical := &optimizer.Optimizer{Cat: e.cat, Est: e.classical.Est, Cost: e.classical.Cost, IO: e.classical.IO, Parallelism: parallelism}
	if learned == nil {
		p, err = classical.Plan(q, hint)
		return p, false, err
	}
	g := &guardedEstimator{inner: learned, safe: e.classical.Est, limit: e.opts.EstimatorCallBudget}
	opt := &optimizer.Optimizer{Cat: e.cat, Est: g, Cost: e.classical.Cost, IO: e.classical.IO, Parallelism: parallelism}
	p, err = opt.Plan(q, hint)
	if err == nil && !g.failed {
		return p, false, nil
	}
	// Learned path failed (planning error or tripped guard): classical
	// re-plan, Bao-style.
	p, err = classical.Plan(q, hint)
	return p, true, err
}

// guardedEstimator wraps a learned cardinality estimator with a
// deterministic call budget and output validation. Once tripped it answers
// through the safe classical estimator so the planning pass still completes
// structurally; the engine then discards that plan and re-plans classically.
// One instance serves exactly one planning pass on one goroutine.
type guardedEstimator struct {
	inner  optimizer.CardEstimator
	safe   optimizer.CardEstimator
	limit  int64 // max inner calls; 0 = unlimited
	calls  int64
	failed bool
}

// tripped charges one call against the budget and reports whether the guard
// has failed (now or earlier).
func (g *guardedEstimator) tripped() bool {
	if g.failed {
		return true
	}
	g.calls++
	if g.limit > 0 && g.calls > g.limit {
		g.failed = true
	}
	return g.failed
}

// ScanRows implements optimizer.CardEstimator.
func (g *guardedEstimator) ScanRows(q *plan.Query, pos int) float64 {
	if g.tripped() {
		return g.safe.ScanRows(q, pos)
	}
	v := g.inner.ScanRows(q, pos)
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		g.failed = true
		return g.safe.ScanRows(q, pos)
	}
	return v
}

// JoinSelectivity implements optimizer.CardEstimator.
func (g *guardedEstimator) JoinSelectivity(q *plan.Query, cond expr.JoinCond) float64 {
	if g.tripped() {
		return g.safe.JoinSelectivity(q, cond)
	}
	v := g.inner.JoinSelectivity(q, cond)
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		g.failed = true
		return g.safe.JoinSelectivity(q, cond)
	}
	return v
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
