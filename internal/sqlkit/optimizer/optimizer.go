package optimizer

import (
	"fmt"
	"math"
	"math/bits"

	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// IOStats exposes the buffer pool's observed miss rate to the cost model —
// satisfied by *storage.Pool. A nil IOStats means no pool feedback: the
// optimizer assumes every page read misses (the cold-cache worst case).
type IOStats interface {
	// MissRate returns misses/(hits+misses) observed so far, in [0, 1].
	MissRate() float64
}

// Optimizer is the expert (System-R style) query optimizer: exhaustive
// dynamic programming over connected join orders using a cardinality
// estimator and a formula cost model.
type Optimizer struct {
	Cat  *catalog.Catalog
	Est  CardEstimator
	Cost CostParams
	// IO feeds the observed buffer-pool miss rate into the I/O cost term
	// for disk-backed tables; nil assumes a cold cache (miss rate 1).
	IO IOStats
	// Parallelism is the maximum exchange degree the optimizer may assign to
	// a node's Partitions knob — typically the executor pool's worker count.
	// Values below two leave every plan serial (Partitions zero), which is
	// also the default, so plans stay byte-identical to the pre-parallel
	// optimizer unless a caller opts in.
	Parallelism int
}

// missRate returns the pool-observed miss rate, or 1 without pool feedback.
func (o *Optimizer) missRate() float64 {
	if o.IO == nil {
		return 1
	}
	return o.IO.MissRate()
}

// scanIOCost estimates the I/O term of sequentially scanning t: every heap
// page is read once, and a fraction missRate of those reads miss the pool.
func (o *Optimizer) scanIOCost(t *catalog.Table) float64 {
	pages := float64(t.NumDiskPages())
	if pages == 0 {
		return 0
	}
	return o.Cost.PageRead * pages * o.missRate()
}

// indexIOCost estimates the I/O term of fetching estFetched rows through an
// index on t: each fetch may touch a distinct page (random access), capped
// at the table's page count.
func (o *Optimizer) indexIOCost(t *catalog.Table, estFetched float64) float64 {
	pages := float64(t.NumDiskPages())
	if pages == 0 {
		return 0
	}
	touched := estFetched
	if touched > pages {
		touched = pages
	}
	return o.Cost.PageRead * touched * o.missRate()
}

// New returns an optimizer with histogram estimation and default (untuned)
// cost parameters.
func New(cat *catalog.Catalog) *Optimizer {
	return &Optimizer{Cat: cat, Est: &HistEstimator{Cat: cat}, Cost: DefaultCostParams()}
}

// subPlan is the DP table entry for a table-position subset.
type subPlan struct {
	node   *plan.Node
	cost   float64
	rows   float64
	layout []int // table positions in leaf (output) order
}

// Plan returns the cheapest plan for q under the hint set. It errors if the
// query's join graph is disconnected or the hint set admits no operator.
func (o *Optimizer) Plan(q *plan.Query, hint HintSet) (*plan.Node, error) {
	n := q.NumTables()
	if n == 0 {
		return nil, fmt.Errorf("optimizer: empty query")
	}
	if n > 1 && !hint.Viable() {
		return nil, fmt.Errorf("optimizer: hint set %q admits no join operator", hint.Name)
	}
	if n > 20 {
		return nil, fmt.Errorf("optimizer: %d tables exceeds DP limit", n)
	}
	best := make(map[uint32]*subPlan, 1<<n)
	for pos := 0; pos < n; pos++ {
		sp := o.scanPlan(q, pos, hint)
		best[1<<uint(pos)] = sp
	}
	full := uint32(1<<uint(n)) - 1
	for mask := uint32(1); mask <= full; mask++ {
		if bits.OnesCount32(mask) < 2 {
			continue
		}
		var bestSP *subPlan
		lowest := mask & (^mask + 1)
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			if sub&lowest == 0 {
				continue // canonical split: left side holds the lowest bit
			}
			other := mask ^ sub
			left, right := best[sub], best[other]
			if left == nil || right == nil {
				continue
			}
			cands := o.joinCandidates(q, hint, left, right)
			for _, sp := range cands {
				if bestSP == nil || sp.cost < bestSP.cost {
					bestSP = sp
				}
			}
		}
		if bestSP != nil {
			best[mask] = bestSP
		}
	}
	sp := best[full]
	if sp == nil {
		return nil, fmt.Errorf("optimizer: join graph is disconnected")
	}
	root := sp.node
	if q.Agg != nil {
		gc := o.colOffset(q, sp.layout, q.Agg.GroupTable, q.Agg.GroupCol)
		sums := make([]int, 0, len(q.Agg.Sums))
		for _, s := range q.Agg.Sums {
			sums = append(sums, o.colOffset(q, sp.layout, s.Table, s.Col))
		}
		agg := plan.NewAgg(root, gc, sums...)
		agg.EstRows = o.estAggGroups(q, root.EstRows)
		agg.EstCost = root.EstCost + o.Cost.AggCost(root.EstRows, agg.EstRows)
		root = agg
	}
	o.parallelize(root)
	return root, nil
}

// estAggGroups estimates the group count of q's aggregation: the grouping
// column's exact distinct count when statistics exist, capped by the child's
// output estimate.
func (o *Optimizer) estAggGroups(q *plan.Query, childRows float64) float64 {
	groups := childRows
	if q.Agg != nil {
		t := o.Cat.Table(q.Tables[q.Agg.GroupTable])
		if st := t.Columns[q.Agg.GroupCol].Stats; st != nil && st.Distinct > 0 {
			groups = float64(st.Distinct)
		}
	}
	if groups > childRows {
		groups = childRows
	}
	if groups < 1 {
		groups = 1
	}
	return groups
}

// parallelize assigns each node's Partitions knob bottom-up, costing the
// knob explicitly: a node's own (exclusive) cost splits into a
// parallelizable part and a fixed serial part, and partitioning into P
// shards costs par/P + fixed + ExchangeStartup·P. The best P in
// [1, Parallelism] wins; P = 1 keeps the pure serial cost with no startup
// term. EstCost is rebuilt cumulatively afterward, so learned components
// that consume EstCost see the parallel-adjusted plan cost.
func (o *Optimizer) parallelize(root *plan.Node) {
	if o.Parallelism <= 1 {
		return
	}
	var walk func(n *plan.Node) float64
	walk = func(n *plan.Node) float64 {
		childOrig := 0.0
		for _, c := range n.Children {
			childOrig += c.EstCost
		}
		own := n.EstCost - childOrig
		if own < 0 {
			own = 0
		}
		childNew := 0.0
		for _, c := range n.Children {
			childNew += walk(c)
		}
		par, fixed := o.splitParallelizable(n, own)
		bestCost, bestP := own, 1
		if par > 0 {
			for p := 2; p <= o.Parallelism; p++ {
				c := par/float64(p) + fixed + o.Cost.ExchangeStartup*float64(p)
				if c < bestCost {
					bestCost, bestP = c, p
				}
			}
		}
		n.Partitions = bestP
		n.EstCost = childNew + bestCost
		return n.EstCost
	}
	walk(root)
}

// splitParallelizable divides a node's own cost into the part an exchange
// can divide across shards and the part that stays serial, mirroring which
// executor phases exchange.go actually partitions: scans and nested-loop
// pairs divide fully, a hash join's build (and an aggregation's sorted
// emission) stay on the coordinator, and index scans, merge joins, and
// virtual-table scans never partition.
func (o *Optimizer) splitParallelizable(n *plan.Node, own float64) (par, fixed float64) {
	switch n.Op {
	case plan.OpSeqScan:
		if o.Cat.Table(n.TableID).Virtual != nil {
			return 0, own
		}
		return own, 0
	case plan.OpHashJoin:
		build := o.Cost.HashBuild * n.Children[0].EstRows
		if build > own {
			build = own
		}
		return own - build, build
	case plan.OpNLJoin:
		return own, 0
	case plan.OpHashAgg:
		emit := o.Cost.OutputTuple * n.EstRows
		if emit > own {
			emit = own
		}
		return own - emit, emit
	default: // IndexScan, MergeJoin: always serial
		return 0, own
	}
}

// PlanTraced is Plan wrapped in an "optimizer.plan" span under parent,
// annotated with the query size and the chosen plan's estimated cost. A nil
// tracer reduces it to Plan.
func (o *Optimizer) PlanTraced(q *plan.Query, hint HintSet, tr *obs.Tracer, parent *obs.Span) (*plan.Node, error) {
	sp := tr.StartSpan("optimizer.plan", parent)
	p, err := o.Plan(q, hint)
	if p != nil {
		sp.SetInt("tables", int64(q.NumTables())).SetFloat("est_cost", p.EstCost)
	}
	sp.End()
	return p, err
}

// scanPlan picks the cheapest access path for the table at pos: a
// sequential scan, or an index scan through any secondary index whose column
// carries an interval predicate (unless the hint forbids it).
func (o *Optimizer) scanPlan(q *plan.Query, pos int, hint HintSet) *subPlan {
	tid := q.Tables[pos]
	t := o.Cat.Table(tid)
	rows := float64(t.NumRows())
	best := plan.NewScan(pos, tid, q.Filters[pos])
	best.EstRows = o.Est.ScanRows(q, pos)
	best.EstCost = o.Cost.ScanCost(rows) + o.scanIOCost(t)
	if !hint.NoIndexScan {
		for _, col := range t.IndexedCols() {
			fetched, ok := o.estIndexFetched(t, q.Filters[pos], col)
			if !ok {
				continue
			}
			cost := o.Cost.IndexScanCost(rows, fetched) + o.indexIOCost(t, fetched)
			if cost < best.EstCost {
				node := plan.NewIndexScan(pos, tid, col, q.Filters[pos])
				node.EstRows = best.EstRows
				node.EstFetched = fetched
				node.EstCost = cost
				best = node
			}
		}
	}
	return &subPlan{node: best, cost: best.EstCost, rows: best.EstRows, layout: []int{pos}}
}

// estIndexFetched estimates how many rows an index on col would fetch given
// the interval predicates on that column. ok is false when no interval
// predicate constrains the column.
func (o *Optimizer) estIndexFetched(t *catalog.Table, filters []expr.Pred, col int) (float64, bool) {
	st := t.Columns[col].Stats
	if st == nil || st.Count == 0 {
		return 0, false
	}
	sel := 1.0
	found := false
	for _, f := range filters {
		if f.Col != col {
			continue
		}
		if lo, hi, isInterval := f.Range(st.Min, st.Max); isInterval {
			sel *= st.SelectivityRange(lo, hi)
			found = true
		}
	}
	if !found {
		return 0, false
	}
	fetched := float64(t.NumRows()) * sel
	if fetched < 1 {
		fetched = 1
	}
	return fetched, true
}

// condBetween finds a join condition with one side in left's tables and the
// other in right's, returning it oriented so that Left refers to the left
// subtree. ok is false if no condition connects the sides.
func condBetween(q *plan.Query, left, right *subPlan) (expr.JoinCond, bool) {
	inLeft := make(map[int]bool, len(left.layout))
	for _, p := range left.layout {
		inLeft[p] = true
	}
	inRight := make(map[int]bool, len(right.layout))
	for _, p := range right.layout {
		inRight[p] = true
	}
	for _, c := range q.Joins {
		if inLeft[c.LeftTable] && inRight[c.RightTable] {
			return c, true
		}
		if inLeft[c.RightTable] && inRight[c.LeftTable] {
			return expr.JoinCond{LeftTable: c.RightTable, LeftCol: c.RightCol, RightTable: c.LeftTable, RightCol: c.LeftCol}, true
		}
	}
	return expr.JoinCond{}, false
}

// colOffset maps (tablePos, col) to an output-relative offset given a layout.
func (o *Optimizer) colOffset(q *plan.Query, layout []int, tablePos, col int) int {
	off := 0
	for _, p := range layout {
		if p == tablePos {
			return off + col
		}
		off += o.Cat.Table(q.Tables[p]).NumCols()
	}
	//ml4db:allow nakedpanic "unreachable: layouts are permutations of the query tables by construction"
	panic(fmt.Sprintf("optimizer: table position %d not in layout %v", tablePos, layout))
}

func (o *Optimizer) joinCandidates(q *plan.Query, hint HintSet, left, right *subPlan) []*subPlan {
	var out []*subPlan
	for _, pair := range [][2]*subPlan{{left, right}, {right, left}} {
		l, r := pair[0], pair[1]
		if hint.LeftDeepOnly && len(r.layout) > 1 {
			continue
		}
		cond, ok := condBetween(q, l, r)
		if !ok {
			continue
		}
		sel := o.Est.JoinSelectivity(q, normalizeCond(q, cond))
		outRows := l.rows * r.rows * sel
		if outRows < 1 {
			outRows = 1
		}
		lc := o.colOffset(q, l.layout, cond.LeftTable, cond.LeftCol)
		rc := o.colOffset(q, r.layout, cond.RightTable, cond.RightCol)
		for _, op := range plan.AllJoinOps {
			if !hint.Allows(op) {
				continue
			}
			node := plan.NewJoin(op, l.node, r.node, lc, rc)
			node.EstRows = outRows
			cost := l.cost + r.cost + o.Cost.JoinCost(op, l.rows, r.rows, outRows)
			node.EstCost = cost
			layout := make([]int, 0, len(l.layout)+len(r.layout))
			layout = append(layout, l.layout...)
			layout = append(layout, r.layout...)
			out = append(out, &subPlan{node: node, cost: cost, rows: outRows, layout: layout})
		}
	}
	return out
}

// normalizeCond re-orients a condition to match one declared in the query so
// estimators that key on the declared form behave consistently.
func normalizeCond(q *plan.Query, c expr.JoinCond) expr.JoinCond {
	for _, d := range q.Joins {
		if d == c {
			return d
		}
		if d.LeftTable == c.RightTable && d.LeftCol == c.RightCol && d.RightTable == c.LeftTable && d.RightCol == c.LeftCol {
			return d
		}
	}
	return c
}

// Annotate fills EstRows and EstCost on every node of an externally
// constructed plan (as built by NEO, RTOS, or Balsa) and returns the total
// estimated cost of the root.
func (o *Optimizer) Annotate(q *plan.Query, n *plan.Node) float64 {
	if n.IsLeaf() {
		t := o.Cat.Table(n.TableID)
		n.EstRows = o.Est.ScanRows(q, n.TablePos)
		if n.Op == plan.OpIndexScan {
			fetched, ok := o.estIndexFetched(t, n.Filters, n.IndexCol)
			if !ok {
				fetched = float64(t.NumRows())
			}
			n.EstFetched = fetched
			n.EstCost = o.Cost.IndexScanCost(float64(t.NumRows()), fetched) + o.indexIOCost(t, fetched)
		} else {
			n.EstCost = o.Cost.ScanCost(float64(t.NumRows())) + o.scanIOCost(t)
		}
		return n.EstCost
	}
	if n.Op == plan.OpHashAgg {
		lc := o.Annotate(q, n.Children[0])
		n.EstRows = o.estAggGroups(q, n.Children[0].EstRows)
		n.EstCost = lc + o.Cost.AggCost(n.Children[0].EstRows, n.EstRows)
		return n.EstCost
	}
	lc := o.Annotate(q, n.Children[0])
	rc := o.Annotate(q, n.Children[1])
	n.EstRows = EstimateSubtreeRows(o.Est, q, n.Tables())
	n.EstCost = lc + rc + o.Cost.JoinCost(n.Op, n.Children[0].EstRows, n.Children[1].EstRows, n.EstRows)
	return n.EstCost
}

// PlanCostActual computes the formula cost of a plan using the *actual* row
// counts a previous execution of it observed (exec.Result.Actuals) — the
// quantity ParamTree fits its parameters against.
func (o *Optimizer) PlanCostActual(n *plan.Node, act plan.Actuals) float64 {
	p := o.Cost
	if n.IsLeaf() {
		t := o.Cat.Table(n.TableID)
		// The I/O term uses the misses the execution actually charged, so
		// true params reproduce actual work exactly on disk tables too.
		io := p.PageRead * act[n].PageMisses
		if n.Op == plan.OpIndexScan {
			return p.IndexScanCost(float64(t.NumRows()), act[n].Fetched) + io
		}
		return p.ScanCost(float64(t.NumRows())) + io
	}
	if n.Op == plan.OpHashAgg {
		c := o.PlanCostActual(n.Children[0], act)
		return c + p.AggCost(act[n.Children[0]].Rows, act[n].Rows)
	}
	c := o.PlanCostActual(n.Children[0], act) + o.PlanCostActual(n.Children[1], act)
	return c + p.JoinCost(n.Op, act[n.Children[0]].Rows, act[n.Children[1]].Rows, act[n].Rows)
}

// CheapestHint plans q under every hint set and returns the plans with their
// estimated costs — the candidate set a bandit optimizer selects among.
func (o *Optimizer) CheapestHint(q *plan.Query, hints []HintSet) (plans []*plan.Node, costs []float64, err error) {
	for _, h := range hints {
		p, perr := o.Plan(q, h)
		if perr != nil {
			return nil, nil, perr
		}
		plans = append(plans, p)
		costs = append(costs, p.EstCost)
	}
	if len(plans) == 0 {
		return nil, nil, fmt.Errorf("optimizer: no hints given")
	}
	return plans, costs, nil
}

// Infinity is a sentinel cost for invalid plans.
var Infinity = math.Inf(1)
