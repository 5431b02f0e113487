package exec

import (
	"errors"
	"fmt"
	"sort"

	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// ErrWorkBudgetExceeded is the budget-abort sentinel. Execution aborts
// return a *BudgetExceededError carrying which limit tripped and how far;
// errors.Is(err, ErrWorkBudgetExceeded) matches any budget abort, so legacy
// callers keep working.
var ErrWorkBudgetExceeded = errors.New("exec: work budget exceeded")

// Budget is a deterministic per-query resource limit, checked in the
// executor's operator loops. Budgets are counted in work units and
// materialized tuples — never wall-clock time — so an aborted execution
// aborts at exactly the same point on every replay (the property that keeps
// engine-level cancellation byte-identical under mlmath.ManualClock).
type Budget struct {
	// MaxWork aborts execution once this many work units are consumed.
	// Zero means unlimited.
	MaxWork int64
	// MaxRows aborts execution once the operators have materialized this
	// many output tuples in total (scan outputs and join outputs alike).
	// Zero means unlimited.
	MaxRows int64
}

// BudgetExceededError reports a deterministic budget abort: which limit
// tripped, the configured limit, and the counter value at the abort point.
// It matches ErrWorkBudgetExceeded under errors.Is.
type BudgetExceededError struct {
	// Kind is "work" or "rows".
	Kind        string
	Limit, Used int64
}

// Error implements error.
func (e *BudgetExceededError) Error() string {
	return fmt.Sprintf("exec: %s budget exceeded (limit %d, used %d)", e.Kind, e.Limit, e.Used)
}

// Is reports budget aborts as ErrWorkBudgetExceeded so existing sentinel
// comparisons via errors.Is keep matching.
func (e *BudgetExceededError) Is(target error) bool { return target == ErrWorkBudgetExceeded }

// Options configures execution.
type Options struct {
	// Budget, when non-nil, bounds the execution's work units and
	// materialized rows (see Budget). Aborts surface as
	// *BudgetExceededError.
	Budget *Budget
	// Analyze collects per-operator EXPLAIN ANALYZE stats into
	// Result.Explain.
	Analyze bool
	// Span, when the executor has a Tracer, becomes the parent of the
	// execution's spans — letting callers nest execute under a query span.
	Span *obs.Span
	// Pool runs partitioned operators' shards in parallel. A nil pool (or a
	// one-worker pool) runs every shard inline on the calling goroutine.
	// The results are bit-identical for any pool: partitioning is a pure
	// function of the plan's Partitions knob, and shards are charged and
	// merged in fixed shard order (see exchange.go).
	Pool *mlmath.Pool
}

// workBuckets are the histogram bounds for the exec.work metric, shared so
// the per-query hot path never rebuilds them.
var workBuckets = obs.ExpBuckets(16, 4, 12)

// Counters break total work down by operation category — the quantities a
// formula cost model weights with its parameters. ParamTree (§3.2) fits
// those parameters from observed (Counters, latency) pairs.
type Counters struct {
	ScanTuples  int64 // tuples read by SeqScan
	HashBuild   int64 // build-side tuples of HashJoin
	HashProbe   int64 // probe-side tuples of HashJoin
	NLPairs     int64 // (outer, inner) pairs of NLJoin
	MergeSort   int64 // tuple·log(tuple) units of MergeJoin sorting
	MergeScan   int64 // merge-phase steps of MergeJoin
	OutputTuple int64 // join output tuples (hash and merge), and HashAgg groups emitted
	IndexProbe  int64 // binary-search steps of IndexScan probes
	IndexFetch  int64 // rows fetched through a secondary index
	PageMiss    int64 // buffer-pool misses charged to disk-table scans
	AggInput    int64 // input tuples accumulated by HashAgg
}

// Total sums all categories (each weighted 1): the executor's work units.
func (c Counters) Total() int64 {
	return c.ScanTuples + c.HashBuild + c.HashProbe + c.NLPairs +
		c.MergeSort + c.MergeScan + c.OutputTuple + c.IndexProbe + c.IndexFetch +
		c.PageMiss + c.AggInput
}

// Vec returns the counters in optimizer.CostParams.Vec order.
func (c Counters) Vec() []float64 {
	return []float64{
		float64(c.ScanTuples), float64(c.HashBuild), float64(c.HashProbe),
		float64(c.NLPairs), float64(c.MergeSort), float64(c.MergeScan),
		float64(c.OutputTuple), float64(c.IndexProbe), float64(c.IndexFetch),
		float64(c.PageMiss), float64(c.AggInput),
	}
}

// Result is the outcome of executing a plan.
type Result struct {
	// Rows holds the materialized output tuples.
	Rows [][]int64
	// Work is the total deterministic work units consumed.
	Work int64
	// Counters break Work down by operation category.
	Counters Counters
	// Explain holds per-operator stats when Options.Analyze was set.
	Explain *Explain
	// Actuals holds what the execution observed at each plan node: output
	// rows, index fetches, and page misses. After a budget abort it
	// describes a partial run.
	Actuals plan.Actuals
}

// Executor runs plans against a catalog. The observability fields are all
// optional: with Trace, Metrics, and Clock left nil the executor behaves
// exactly as before and the instrumentation costs one branch per operator.
type Executor struct {
	Cat *catalog.Catalog
	// Trace records spans around Execute and each operator.
	Trace *obs.Tracer
	// Metrics receives exec.queries and the exec.work histogram.
	Metrics *obs.Registry
	// Clock times operators for EXPLAIN ANALYZE; nil means the system
	// clock. Inject a ManualClock (shared with the Tracer) for
	// deterministic timings.
	Clock mlmath.Clock
}

// New returns an executor over the catalog.
func New(cat *catalog.Catalog) *Executor { return &Executor{Cat: cat} }

// Execute runs the plan and returns the result, with the per-node
// observations in Result.Actuals. It never writes into the plan, so one tree
// may be executed by many goroutines at once.
func (e *Executor) Execute(root *plan.Node, opts Options) (*Result, error) {
	res, _, err := e.execute(root, opts, true)
	return res, err
}

// ExecuteCount is Execute but discards rows and per-node observations,
// returning only cardinality and work — the common case for training-signal
// collection. The output is never materialized.
func (e *Executor) ExecuteCount(root *plan.Node, opts Options) (card int, work int64, err error) {
	res, card, err := e.execute(root, opts, false)
	if err != nil {
		return 0, res.Work, err
	}
	return card, res.Work, nil
}

// execute runs the plan and returns the result, with Rows and Actuals
// filled when asked, and the output cardinality.
func (e *Executor) execute(root *plan.Node, opts Options, materialize bool) (*Result, int, error) {
	st := &execState{cat: e.Cat, pool: opts.Pool}
	if materialize {
		st.act = make(plan.Actuals, root.NumNodes())
	}
	if opts.Budget != nil {
		st.maxWork, st.maxRows = opts.Budget.MaxWork, opts.Budget.MaxRows
	}
	observed := opts.Analyze || e.Trace != nil
	if observed {
		st.tr = e.Trace
		st.clock = mlmath.ClockOrSystem(e.Clock)
		if opts.Analyze {
			st.ex = &Explain{Root: root, stats: make(map[*plan.Node]*OpStats)}
		}
		st.cur = st.tr.StartSpan("exec.execute", opts.Span)
	}
	out, err := st.run(root)
	res := &Result{Work: st.work, Counters: st.ctr, Explain: st.ex, Actuals: st.act}
	if err == nil && materialize {
		res.Rows = out.rows()
	}
	if st.ex != nil {
		st.ex.finish()
	}
	if observed {
		st.cur.SetInt("work", st.work).SetInt("rows", int64(out.n)).End()
	}
	if e.Metrics != nil {
		e.Metrics.Counter("exec.queries").Inc()
		e.Metrics.Histogram("exec.work", workBuckets).Observe(float64(st.work))
	}
	return res, out.n, err
}

type execState struct {
	cat     *catalog.Catalog
	work    int64
	maxWork int64
	rows    int64 // tuples materialized by all operators
	maxRows int64
	ctr     Counters
	// pool runs partitioned operators' shards; nil means inline. Shard
	// kernels never touch this struct: the coordinator charges their
	// results in shard order (see exchange.go).
	pool *mlmath.Pool
	// act receives the per-node observations; nil means none are kept.
	act plan.Actuals

	// Observability state, all nil/unused on the fast path.
	ex    *Explain
	tr    *obs.Tracer
	cur   *obs.Span // innermost open span: parent for the next operator
	clock mlmath.Clock
}

// charge adds units to the given category counter and the total, enforcing
// the work budget.
func (s *execState) charge(counter *int64, units int64) error {
	*counter += units
	s.work += units
	if s.maxWork > 0 && s.work > s.maxWork {
		return &BudgetExceededError{Kind: "work", Limit: s.maxWork, Used: s.work}
	}
	return nil
}

// chargeRows counts tuples materialized by an operator, enforcing the row
// budget.
func (s *execState) chargeRows(n int64) error {
	s.rows += n
	if s.maxRows > 0 && s.rows > s.maxRows {
		return &BudgetExceededError{Kind: "rows", Limit: s.maxRows, Used: s.rows}
	}
	return nil
}

// observe updates the node's entry in the execution's Actuals; it does
// nothing when the execution keeps none.
func (s *execState) observe(n *plan.Node, set func(a *plan.Actual)) {
	if s.act == nil {
		return
	}
	a := s.act[n]
	set(&a)
	s.act[n] = a
}

// run evaluates one plan node. The fast path — no EXPLAIN ANALYZE, no
// tracer — dispatches directly so uninstrumented execution pays a single
// branch per operator.
func (s *execState) run(n *plan.Node) (rel, error) {
	if s.ex == nil && s.tr == nil {
		return s.dispatch(n)
	}
	return s.runObserved(n)
}

// runObserved wraps dispatch with a per-operator span and accumulates the
// node's subtree totals (work, counters, clock time) for EXPLAIN ANALYZE.
func (s *execState) runObserved(n *plan.Node) (rel, error) {
	prev := s.cur
	sp := s.tr.StartSpan(opSpanName(n.Op), prev)
	s.cur = sp
	workBefore, ctrBefore := s.work, s.ctr
	start := s.clock.Now()
	out, err := s.dispatch(n)
	dur := s.clock.Now().Sub(start)
	if s.ex != nil {
		st := s.ex.stat(n)
		st.Loops++
		st.Rows += int64(out.n)
		st.SubtreeWork += s.work - workBefore
		st.SubtreeCounters = addCounters(st.SubtreeCounters, subCounters(s.ctr, ctrBefore))
		st.SubtreeDur += dur
	}
	sp.SetInt("rows", int64(out.n)).SetInt("work", s.work-workBefore)
	sp.End()
	s.cur = prev
	return out, err
}

// dispatch runs one operator. On error the returned relation is empty.
func (s *execState) dispatch(n *plan.Node) (out rel, err error) {
	switch n.Op {
	case plan.OpSeqScan:
		out, err = s.seqScan(n)
	case plan.OpIndexScan:
		out, err = s.indexScan(n)
	case plan.OpHashJoin:
		out, err = s.hashJoin(n)
	case plan.OpNLJoin:
		out, err = s.nlJoin(n)
	case plan.OpMergeJoin:
		out, err = s.mergeJoin(n)
	case plan.OpHashAgg:
		out, err = s.hashAgg(n)
	default:
		return rel{}, fmt.Errorf("exec: unknown operator %v", n.Op)
	}
	if err != nil {
		return rel{}, err
	}
	rows := float64(out.n)
	s.observe(n, func(a *plan.Actual) { a.Rows = rows })
	return out, nil
}

func (s *execState) seqScan(n *plan.Node) (rel, error) {
	t := s.cat.Table(n.TableID)
	switch {
	case t.Virtual != nil:
		return s.seqScanVirtual(n, t) // virtual sources materialize as a unit; Partitions is ignored
	case t.Disk != nil:
		return s.seqScanDisk(n, t)
	}
	cols := append([][]int64(nil), t.Data...)
	return s.scanColumns(n, cols, t.NumRows(), shards(n))
}

// seqScanVirtual scans a virtual (system) table: the provider materializes a
// snapshot of its current rows, which are laid out column-major and filtered
// exactly like an in-memory SeqScan, one shard, charging one ScanTuples unit
// per provider row.
func (s *execState) seqScanVirtual(n *plan.Node, t *catalog.Table) (rel, error) {
	rows := t.Virtual.VirtualRows()
	cols := make([][]int64, t.NumCols())
	for c := range cols {
		cols[c] = make([]int64, len(rows))
		for i, row := range rows {
			cols[c][i] = row[c]
		}
	}
	return s.scanColumns(n, cols, len(rows), 1)
}

// indexScan reads the rows matching the node's interval predicate on
// IndexCol through the secondary index, then applies the remaining filters.
// It is always one shard: each fetched row charges IndexFetch, then, if it
// passes, one materialized row.
func (s *execState) indexScan(n *plan.Node) (rel, error) {
	t := s.cat.Table(n.TableID)
	ix := t.Index(n.IndexCol)
	if ix == nil {
		return rel{}, fmt.Errorf("exec: no index on column %d of %s", n.IndexCol, t.Name)
	}
	if ix.Hypothetical {
		return rel{}, fmt.Errorf("exec: index on column %d of %s is hypothetical (what-if only)", n.IndexCol, t.Name)
	}
	lo, hi, residual, ok := indexInterval(t, n)
	if !ok {
		return rel{}, fmt.Errorf("exec: IndexScan on %s has no interval predicate on c%d", t.Name, n.IndexCol)
	}
	// One probe costs a binary search over the index.
	if err := s.charge(&s.ctr.IndexProbe, log2int(ix.Len())); err != nil {
		return rel{}, err
	}
	if t.Disk != nil {
		return s.indexScanDisk(n, t, ix, lo, hi, residual)
	}
	ids := ix.RangeRows(lo, hi)
	r := run{hi: len(ids), dense: len(residual) == 0}
	sel := ids
	if !r.dense {
		sel = nil
	next:
		for i, id := range ids {
			for _, f := range residual {
				if !f.Eval(t.Data[f.Col][id]) {
					continue next
				}
			}
			r.at, sel = append(r.at, int32(i)), append(sel, id)
		}
	}
	if _, err := s.chargeRun(&s.ctr.IndexFetch, nil, r); err != nil {
		return rel{}, err
	}
	s.observe(n, func(a *plan.Actual) { a.Fetched = float64(len(ids)) })
	return rel{n: len(sel), segs: []seg{{cols: append([][]int64(nil), t.Data...), sel: sel}}}, nil
}

// indexInterval extracts the interval on n.IndexCol from the node's filters
// (intersecting multiple interval predicates on that column) and returns the
// remaining predicates.
func indexInterval(t *catalog.Table, n *plan.Node) (lo, hi int64, residual []expr.Pred, ok bool) {
	domLo, domHi := int64(-1<<62), int64(1<<62)
	if st := t.Columns[n.IndexCol].Stats; st != nil && st.Count > 0 {
		domLo, domHi = st.Min, st.Max
	}
	lo, hi = domLo, domHi
	found := false
	for _, f := range n.Filters {
		if f.Col == n.IndexCol {
			if l, h, isInterval := f.Range(domLo, domHi); isInterval {
				if l > lo {
					lo = l
				}
				if h < hi {
					hi = h
				}
				found = true
				continue
			}
		}
		residual = append(residual, f)
	}
	return lo, hi, residual, found
}

// log2int returns floor(log2(n))+1 — the number of probes a binary search
// makes over n items — as a work charge, minimum 1 (n <= 1). The optimizer's
// IndexScanCost mirrors this exactly (optimizer.probeSteps), keeping the
// "true cost params reproduce actual work" identity free of off-by-ones.
func log2int(n int) int64 {
	c := int64(1)
	for v := n; v > 1; v >>= 1 {
		c++
	}
	return c
}

func (s *execState) children(n *plan.Node) (left, right rel, err error) {
	left, err = s.run(n.Children[0])
	if err != nil {
		return rel{}, rel{}, err
	}
	right, err = s.run(n.Children[1])
	if err != nil {
		return rel{}, rel{}, err
	}
	return left, right, nil
}

// mergeJoin is always serial: a partitioned merge provably diverges from the
// serial MergeScan counter (e.g. left={1,5}, right={3,5}: the serial merge
// charges 3 scan steps, any 2-way partition of it charges 2), so Partitions
// is ignored here to preserve serial≡parallel counter identity. Both sides
// are sorted as row-position permutations by key; sort.Slice makes the same
// swaps on a permutation as on the rows themselves, so ties keep the order
// a row sort would give them.
func (s *execState) mergeJoin(n *plan.Node) (rel, error) {
	left, right, err := s.children(n)
	if err != nil {
		return rel{}, err
	}
	// Charge an n·log n sort cost approximation plus the merge.
	sortCost := func(m int) int64 {
		if m <= 1 {
			return int64(m)
		}
		logM := 0
		for v := m; v > 1; v >>= 1 {
			logM++
		}
		return int64(m * logM)
	}
	if err := s.charge(&s.ctr.MergeSort, sortCost(left.n)+sortCost(right.n)); err != nil {
		return rel{}, err
	}
	lk, rk := left.dense(n.LeftCol), right.dense(n.RightCol)
	lp, rp := sortedPerm(lk), sortedPerm(rk)
	var li, ri []int32
	i, j := 0, 0
	for i < len(lp) && j < len(rp) {
		if err := s.charge(&s.ctr.MergeScan, 1); err != nil {
			return rel{}, err
		}
		lv, rv := lk[lp[i]], rk[rp[j]]
		switch {
		case lv < rv:
			i++
		case lv > rv:
			j++
		default:
			// Emit the cross product of the equal runs.
			jEnd := j
			for jEnd < len(rp) && rk[rp[jEnd]] == rv {
				jEnd++
			}
			for ; i < len(lp) && lk[lp[i]] == lv; i++ {
				for _, r := range rp[j:jEnd] {
					if err := s.charge(&s.ctr.OutputTuple, 1); err != nil {
						return rel{}, err
					}
					if err := s.chargeRows(1); err != nil {
						return rel{}, err
					}
					li, ri = append(li, lp[i]), append(ri, r)
				}
			}
			j = jEnd
		}
	}
	return join(left, right, li, ri), nil
}

// sortedPerm returns the row positions of keys ordered by key.
func sortedPerm(keys []int64) []int32 {
	p := make([]int32, len(keys))
	for i := range p {
		p[i] = int32(i)
	}
	sort.Slice(p, func(i, j int) bool { return keys[p[i]] < keys[p[j]] })
	return p
}
