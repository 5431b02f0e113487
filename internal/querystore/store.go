package querystore

import (
	"sort"
	"sync"
	"time"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/storage"
)

// PoolStatsSource supplies buffer-pool statistics sampled at window seals;
// *storage.Pool implements it.
type PoolStatsSource interface {
	Stats() storage.PoolStats
}

// Options configures a Store.
type Options struct {
	// Clock advances the window ring. Nil means the system clock; inject a
	// mlmath.ManualClock for bit-identical replays.
	Clock mlmath.Clock
	// Window is the aggregation window length. Values <= 0 default to one
	// second.
	Window time.Duration
	// MaxWindows bounds the ring of sealed windows. Values below one default
	// to 64.
	MaxWindows int
	// MaxStatements bounds the number of distinct statement shapes tracked;
	// observations for shapes beyond the cap update only window aggregates
	// (DroppedStatements counts them). Values below one default to 512.
	MaxStatements int
	// MaxEvents bounds the drift-event and model-event rings. Values below
	// one default to 256.
	MaxEvents int
	// Catalog, when non-nil, lets the store harvest observed selectivities
	// for the column heat map (it needs table row counts and widths).
	// Without it the heat map still counts column appearances but records no
	// selectivities.
	Catalog *catalog.Catalog
	// Pool, when non-nil, is sampled at every window seal; the per-window
	// hit/miss deltas feed the hit-rate drift monitor.
	Pool PoolStatsSource
	// Drift configures the window-trend monitors.
	Drift DriftOptions
	// OnDrift, when non-nil, receives every DriftEvent as it fires (outside
	// the store's lock, in emission order).
	OnDrift func(DriftEvent)
}

// Observation is one executed query as the engine saw it. Shape is the
// engine's normalized statement key; Plan is the executed plan tree, shared
// and read-only, and Actuals is what that execution observed at each of its
// nodes (exec.Result.Actuals).
type Observation struct {
	Shape            string
	Work             int64
	Rows             int64
	PageMisses       int64
	CacheHit         bool
	Fallback         bool
	BudgetAbort      bool
	EstimatorVersion int
	Plan             *plan.Node
	Actuals          plan.Actuals
}

// StatementStats is the accumulated record of one normalized statement.
type StatementStats struct {
	ID           int64 // first-seen order, dense from 0
	Shape        string
	Calls        int64
	CacheHits    int64
	Fallbacks    int64
	BudgetAborts int64
	TotalWork    int64
	MaxWork      int64
	TotalRows    int64
	PageMisses   int64
	// QErrCount calls contributed a cardinality-error sample (budget aborts
	// and plan-less observations do not). QErrSum accumulates the per-call
	// mean plan-node q-error; QErrMax is the largest single-node q-error
	// seen. Estimates and actuals get a +1 pseudocount, so empty results
	// never divide by zero.
	QErrCount int64
	QErrSum   float64
	QErrMax   float64
	// LastWindow is the index of the window ring the statement's most recent
	// call landed in — the recency signal tuning loops rank by, so a
	// once-hot statement ages out of the mined workload.
	LastWindow int64
	// Template is a representative query reconstructed from the statement's
	// first harvested plan: the executed leaves give tables and filters, the
	// join nodes give join conditions. It is nil when the store has no
	// catalog or no plan was harvested, and shared across snapshots —
	// callers must treat it as read-only.
	Template *plan.Query
}

// QErrMean returns the mean per-call q-error, or 0 with no samples.
func (s StatementStats) QErrMean() float64 {
	if s.QErrCount == 0 {
		return 0
	}
	return s.QErrSum / float64(s.QErrCount)
}

// RowsPerCall returns the mean result rows per call, or 0 with no calls.
func (s StatementStats) RowsPerCall() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.TotalRows) / float64(s.Calls)
}

// ColumnHeat is the observed pressure on one table column: how often it
// appeared in scan filters and join conditions, with the mean observed
// selectivity of the scans/joins it appeared in.
type ColumnHeat struct {
	TableID     int
	Col         int
	FilterCount int64
	JoinCount   int64
	SelCount    int64
	SelSum      float64
}

// SelMean returns the mean observed selectivity, or 0 with no samples.
func (h ColumnHeat) SelMean() float64 {
	if h.SelCount == 0 {
		return 0
	}
	return h.SelSum / float64(h.SelCount)
}

// Store is the workload observatory. All methods are safe for concurrent
// use and no-op on a nil receiver.
type Store struct {
	opts  Options
	clock mlmath.Clock

	mu         sync.Mutex
	stmts      map[string]*StatementStats
	stmtOrder  []string // shapes in first-seen order (snapshot order)
	dropped    int64
	heat       map[heatKey]*ColumnHeat
	windows    windowRing
	cur        winAgg
	curStarted bool
	drift      driftState
	models     []ModelEvent
	modelSeq   int64
}

type heatKey struct{ table, col int }

// New builds a Store.
func New(opts Options) *Store {
	if opts.Window <= 0 {
		opts.Window = time.Second
	}
	if opts.MaxWindows < 1 {
		opts.MaxWindows = 64
	}
	if opts.MaxStatements < 1 {
		opts.MaxStatements = 512
	}
	if opts.MaxEvents < 1 {
		opts.MaxEvents = 256
	}
	opts.Drift = opts.Drift.withDefaults()
	return &Store{
		opts:    opts,
		clock:   mlmath.ClockOrSystem(opts.Clock),
		stmts:   make(map[string]*StatementStats),
		heat:    make(map[heatKey]*ColumnHeat),
		windows: windowRing{cap: opts.MaxWindows},
	}
}

// Record folds one executed query into the store. It advances the window
// ring first, so an observation after a window boundary seals the old
// window (and may fire drift events) before being counted in the new one.
// Nil stores no-op without allocating.
func (s *Store) Record(o Observation) {
	if s == nil {
		return
	}
	h := s.harvest(o)
	now := s.clock.Now()

	s.mu.Lock()
	fired := s.advanceLocked(now)
	s.recordStatementLocked(o, h)
	s.recordHeatLocked(h)
	s.cur.add(o, h)
	s.mu.Unlock()

	s.fireDrift(fired)
}

// Flush seals the current window (if it has observations) so snapshots and
// exports include it; drift monitors run over it like any other seal.
func (s *Store) Flush() {
	if s == nil {
		return
	}
	s.mu.Lock()
	fired := s.sealLocked()
	s.mu.Unlock()
	s.fireDrift(fired)
}

func (s *Store) recordStatementLocked(o Observation, h harvestResult) {
	e, ok := s.stmts[o.Shape]
	if !ok {
		if len(s.stmtOrder) >= s.opts.MaxStatements {
			s.dropped++
			return
		}
		e = &StatementStats{ID: int64(len(s.stmtOrder)), Shape: o.Shape}
		s.stmts[o.Shape] = e
		s.stmtOrder = append(s.stmtOrder, o.Shape)
	}
	e.Calls++
	if o.CacheHit {
		e.CacheHits++
	}
	if o.Fallback {
		e.Fallbacks++
	}
	if o.BudgetAbort {
		e.BudgetAborts++
	}
	e.TotalWork += o.Work
	if o.Work > e.MaxWork {
		e.MaxWork = o.Work
	}
	e.TotalRows += o.Rows
	e.PageMisses += o.PageMisses
	e.LastWindow = s.cur.index
	if e.Template == nil && h.tmpl != nil {
		e.Template = h.tmpl
	}
	if h.ok {
		e.QErrCount++
		e.QErrSum += h.qerrMean
		if h.qerrMax > e.QErrMax {
			e.QErrMax = h.qerrMax
		}
	}
}

func (s *Store) recordHeatLocked(h harvestResult) {
	for _, sample := range h.heat {
		k := heatKey{sample.table, sample.col}
		e, ok := s.heat[k]
		if !ok {
			e = &ColumnHeat{TableID: sample.table, Col: sample.col}
			s.heat[k] = e
		}
		if sample.join {
			e.JoinCount++
		} else {
			e.FilterCount++
		}
		if sample.hasSel {
			e.SelCount++
			e.SelSum += sample.sel
		}
	}
}

// DroppedStatements returns how many observations were not attributed to a
// statement because the shape cap was reached.
func (s *Store) DroppedStatements() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Statements returns the statement records in first-seen (ID) order.
func (s *Store) Statements() []StatementStats {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StatementStats, 0, len(s.stmtOrder))
	for _, shape := range s.stmtOrder {
		out = append(out, *s.stmts[shape])
	}
	return out
}

// Heat returns the column heat map sorted by (table, column).
func (s *Store) Heat() []ColumnHeat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]heatKey, 0, len(s.heat))
	for k := range s.heat {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].table != keys[j].table {
			return keys[i].table < keys[j].table
		}
		return keys[i].col < keys[j].col
	})
	out := make([]ColumnHeat, 0, len(keys))
	for _, k := range keys {
		out = append(out, *s.heat[k])
	}
	return out
}

// harvestResult is what one observation's plan tree contributed: a per-call
// q-error sample and the column heat samples. It is computed outside the
// store lock (it may read the catalog, whose virtual tables read stores).
type harvestResult struct {
	ok       bool // a q-error sample was produced
	qerrMean float64
	qerrMax  float64
	heat     []heatSample
	tmpl     *plan.Query // reconstructed template, or nil
}

type heatSample struct {
	table  int // catalog table ID
	col    int
	join   bool
	hasSel bool
	sel    float64
}

// harvest walks the executed plan tree, reading each node's estimate from
// the tree and its actual rows from the observation's Actuals. An
// observation without Actuals harvests nothing, and neither does a
// budget-aborted one: its actuals describe a partial run.
func (s *Store) harvest(o Observation) harvestResult {
	var h harvestResult
	if o.Plan == nil || o.Actuals == nil || o.BudgetAbort {
		return h
	}
	var sum float64
	var nodes int64
	o.Plan.Walk(func(n *plan.Node) {
		q := pseudoQErr(n.EstRows, o.Actuals[n].Rows)
		sum += q
		nodes++
		if q > h.qerrMax {
			h.qerrMax = q
		}
		s.harvestHeat(&h, n, o.Actuals)
	})
	if nodes > 0 {
		h.ok = true
		h.qerrMean = sum / float64(nodes)
	}
	if s.opts.Catalog != nil && s.needsTemplate(o.Shape) {
		h.tmpl = reconstructQuery(s.opts.Catalog, o.Plan)
	}
	return h
}

// needsTemplate reports whether the shape's statement record still lacks a
// template, so harvest only pays the reconstruction walk once per shape.
func (s *Store) needsTemplate(shape string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.stmts[shape]
	return !ok || e.Template == nil
}

// reconstructQuery rebuilds a plan.Query from an executed plan tree: each
// leaf contributes its table and filters at its original table position, and
// each join node contributes a join condition with its key columns resolved
// back to base (position, column) pairs. Returns nil when the tree's
// positions do not form a dense 0..n-1 range or a join key cannot be
// resolved — the template is a best-effort mining input, not an invariant.
func reconstructQuery(cat *catalog.Catalog, p *plan.Node) *plan.Query {
	var leaves []*plan.Node
	maxPos := -1
	p.Walk(func(n *plan.Node) {
		if n.IsLeaf() {
			leaves = append(leaves, n)
			if n.TablePos > maxPos {
				maxPos = n.TablePos
			}
		}
	})
	if len(leaves) == 0 || maxPos != len(leaves)-1 {
		return nil
	}
	tables := make([]int, len(leaves))
	filled := make([]bool, len(leaves))
	for _, l := range leaves {
		if filled[l.TablePos] {
			return nil
		}
		filled[l.TablePos] = true
		tables[l.TablePos] = l.TableID
	}
	q := plan.NewQuery(tables...)
	for _, l := range leaves {
		for _, f := range l.Filters {
			q.AddFilter(l.TablePos, f)
		}
	}
	ok := true
	p.Walk(func(n *plan.Node) {
		if n.IsLeaf() || len(n.Children) != 2 || !ok {
			return
		}
		lp, lc, lok := resolveOutputPos(cat, n.Children[0], n.LeftCol)
		rp, rc, rok := resolveOutputPos(cat, n.Children[1], n.RightCol)
		if !lok || !rok {
			ok = false
			return
		}
		q.AddJoin(expr.JoinCond{LeftTable: lp, LeftCol: lc, RightTable: rp, RightCol: rc})
	})
	if !ok {
		return nil
	}
	return q
}

// resolveOutputPos maps an output-relative column offset of a subtree back
// to the (table position, column) leaf it came from.
func resolveOutputPos(cat *catalog.Catalog, n *plan.Node, off int) (tablePos, col int, ok bool) {
	if n.IsLeaf() {
		w := cat.Table(n.TableID).NumCols()
		if off < 0 || off >= w {
			return 0, 0, false
		}
		return n.TablePos, off, true
	}
	for _, c := range n.Children {
		w := outputWidth(cat, c)
		if off < w {
			return resolveOutputPos(cat, c, off)
		}
		off -= w
	}
	return 0, 0, false
}

// harvestHeat appends the node's heat samples. Scan leaves attribute the
// leaf's observed selectivity (output rows over table rows) to each filter
// column — an approximation when a leaf carries several conjuncts, but the
// right signal for "how selective are predicates touching this column".
// Join nodes attribute the observed join selectivity (output over the
// cross-product of the inputs) to both key columns.
func (s *Store) harvestHeat(h *harvestResult, n *plan.Node, act plan.Actuals) {
	cat := s.opts.Catalog
	if n.IsLeaf() {
		for _, f := range n.Filters {
			sample := heatSample{table: n.TableID, col: f.Col}
			if cat != nil {
				if rows := cat.Table(n.TableID).NumRows(); rows > 0 {
					sample.hasSel = true
					sample.sel = act[n].Rows / float64(rows)
				}
			}
			h.heat = append(h.heat, sample)
		}
		return
	}
	if cat == nil || len(n.Children) != 2 {
		return
	}
	l, r := n.Children[0], n.Children[1]
	lt, lc, lok := resolveOutputCol(cat, l, n.LeftCol)
	rt, rc, rok := resolveOutputCol(cat, r, n.RightCol)
	if !lok || !rok {
		return
	}
	cross := act[l].Rows * act[r].Rows
	sel := 0.0
	hasSel := cross > 0
	if hasSel {
		sel = act[n].Rows / cross
	}
	h.heat = append(h.heat,
		heatSample{table: lt, col: lc, join: true, hasSel: hasSel, sel: sel},
		heatSample{table: rt, col: rc, join: true, hasSel: hasSel, sel: sel})
}

// resolveOutputCol maps an output-relative column offset of a subtree back
// to the base (catalog table ID, column) it came from: subtree output is the
// concatenation of its leaves' columns in leaf order.
func resolveOutputCol(cat *catalog.Catalog, n *plan.Node, off int) (tableID, col int, ok bool) {
	if n.IsLeaf() {
		w := cat.Table(n.TableID).NumCols()
		if off < 0 || off >= w {
			return 0, 0, false
		}
		return n.TableID, off, true
	}
	for _, c := range n.Children {
		w := outputWidth(cat, c)
		if off < w {
			return resolveOutputCol(cat, c, off)
		}
		off -= w
	}
	return 0, 0, false
}

func outputWidth(cat *catalog.Catalog, n *plan.Node) int {
	if n.IsLeaf() {
		return cat.Table(n.TableID).NumCols()
	}
	w := 0
	for _, c := range n.Children {
		w += outputWidth(cat, c)
	}
	return w
}

// pseudoQErr is the q-error of an (estimate, actual) row-count pair with a
// +1 pseudocount on both sides, so zero-row results stay finite. Always
// >= 1.
func pseudoQErr(est, actual float64) float64 {
	if est < 0 {
		est = 0
	}
	if actual < 0 {
		actual = 0
	}
	a, b := est+1, actual+1
	if a > b {
		return a / b
	}
	return b / a
}
