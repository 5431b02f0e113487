package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ml4db/internal/cardest"
	"ml4db/internal/engine"
	"ml4db/internal/mlmath"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/storage"
)

// Engine capacities the workloads are sized against. They are the engine's
// and the querystore's defaults; the report states each workload's distinct
// statement count next to them.
const (
	planCacheCap      = 256
	storeStatementCap = 512
)

// workload describes one benchmark workload: the generated data, the query
// streams, and how the engine is configured for them.
type workload struct {
	name string
	// factRows, dimRows and numDims size the datagen star schema.
	factRows, dimRows, numDims int
	// manyClients runs one closed-loop client per CPU instead of one.
	manyClients bool
	// execPool gives the engine an mlmath.Pool of one worker per CPU.
	execPool bool
	// learned trains an MLP cardinality estimator and installs it.
	learned bool
	// store attaches a querystore.Store with the catalog.
	store bool
	// spill moves the fact table to a heap file behind a buffer pool of
	// at most a quarter of its pages and indexes spillIndexCol.
	spill bool
	// streams builds the per-client query streams and the warm-up set.
	streams func(w *workload, seed uint64, clients, seconds int) (streams [][]*query, warm []*query)
}

// spillIndexCol is the fact column spill-mixed indexes and looks up: fk0,
// a uniform foreign key with about factRows/dimRows rows per value.
const spillIndexCol = 0

var workloads = []*workload{
	{
		name: "olap-mem", factRows: 100000, dimRows: 2000, numDims: 4,
		execPool: true, streams: olapStreams,
	},
	{
		name: "adhoc-plan", factRows: 10000, dimRows: 300, numDims: 8,
		manyClients: true, learned: true, store: true, streams: adhocStreams,
	},
	{
		name: "spill-mixed", factRows: 100000, dimRows: 1000, numDims: 1,
		execPool: true, spill: true, streams: spillStreams,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// colRef addresses a column of the fact table (tab == factTab) or of
// dimension table tab.
type colRef struct{ tab, col int }

const factTab = -1

// Column layout of datagen.NewStarSchema: fact(fk0..fk{d-1}, attr0, attr1,
// attr2) and dim_i(id, a, b).
const (
	dimID, dimA, dimB = 0, 1, 2
)

func factAttr(numDims, i int) colRef { return colRef{factTab, numDims + i} }

// filter is the closed interval lo <= col <= hi.
type filter struct {
	c      colRef
	lo, hi int64
}

type orderKey struct {
	c    colRef
	desc bool
}

// spec is one query in the benchmark's own terms: the fact table joined to
// dims on fact.fk<d> = dim<d>.id, interval filters, and either an SQL
// presentation (projection, ORDER BY, LIMIT) or a grouped aggregate, which
// the SQL grammar cannot express and which runs through Session.Run.
type spec struct {
	dims    []int
	filters []filter
	proj    []colRef
	order   []orderKey // every key is also projected
	limit   int        // negative: no LIMIT
	agg     *aggSpec
}

type aggSpec struct {
	group colRef
	sums  []colRef
}

// query is one statement as the clients issue it, with its oracle answer.
type query struct {
	spec spec
	sql  string      // SQL text; empty for aggregates
	pq   *plan.Query // aggregates only
	exp  *expect
}

func colName(numDims int, c colRef) string {
	if c.tab == factTab {
		if c.col < numDims {
			return fmt.Sprintf("fact.fk%d", c.col)
		}
		return fmt.Sprintf("fact.attr%d", c.col-numDims)
	}
	return fmt.Sprintf("dim%d.%s", c.tab, [...]string{"id", "a", "b"}[c.col])
}

// sqlText renders a non-aggregate spec as SQL.
func (s *spec) sqlText(numDims int) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, c := range s.proj {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(colName(numDims, c))
	}
	b.WriteString(" FROM fact")
	for _, d := range s.dims {
		fmt.Fprintf(&b, ", dim%d", d)
	}
	var conds []string
	for _, d := range s.dims {
		conds = append(conds, fmt.Sprintf("fact.fk%d = dim%d.id", d, d))
	}
	for _, f := range s.filters {
		if f.lo == f.hi {
			conds = append(conds, fmt.Sprintf("%s = %d", colName(numDims, f.c), f.lo))
		} else {
			conds = append(conds, fmt.Sprintf("%s BETWEEN %d AND %d", colName(numDims, f.c), f.lo, f.hi))
		}
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	for i, k := range s.order {
		if i == 0 {
			b.WriteString(" ORDER BY ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(colName(numDims, k.c))
		if k.desc {
			b.WriteString(" DESC")
		}
	}
	if s.limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.limit)
	}
	return b.String()
}

// planQuery builds the plan.Query of an aggregate spec. Table position 0 is
// the fact table and position 1+i is s.dims[i].
func (s *spec) planQuery(ss *datagen.StarSchema) *plan.Query {
	ids := []int{ss.FactID}
	pos := map[int]int{factTab: 0}
	for i, d := range s.dims {
		ids = append(ids, ss.DimIDs[d])
		pos[d] = 1 + i
	}
	q := plan.NewQuery(ids...)
	for i, d := range s.dims {
		q.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: ss.FKCol[d], RightTable: 1 + i, RightCol: dimID})
	}
	for _, f := range s.filters {
		q.AddFilter(pos[f.c.tab], expr.Pred{Col: f.c.col, Op: expr.BETWEEN, Lo: f.lo, Hi: f.hi})
	}
	sums := make([]plan.AggCol, len(s.agg.sums))
	for i, c := range s.agg.sums {
		sums[i] = plan.AggCol{Table: pos[c.tab], Col: c.col}
	}
	return q.SetAgg(pos[s.agg.group.tab], s.agg.group.col, sums...)
}

func newQuery(s spec, numDims int) *query {
	q := &query{spec: s}
	if s.agg == nil {
		q.sql = s.sqlText(numDims)
	}
	return q
}

// bind builds the plan.Query of every aggregate in the streams and the warm
// set (they need the catalog's table IDs).
func bind(ss *datagen.StarSchema, sets ...[]*query) {
	for _, set := range sets {
		for _, q := range set {
			if q.spec.agg != nil && q.pq == nil {
				q.pq = q.spec.planQuery(ss)
			}
		}
	}
}

// fixedStatementSeed makes the olap-mem and spill-mixed statements the same
// for every --seed: only the data and the lookup keys depend on it, so runs
// on different seeds measure the same statements over equally distributed
// data.
const fixedStatementSeed = 0x5eed

// olapStreams returns the 16 fixed olap-mem statements — 12 multi-way hash
// joins with ORDER BY/LIMIT over large join outputs and 4 grouped
// aggregates — cycled in a seed-shuffled order by the single client. All of
// them fit the plan cache, so after the warm-up pass every query hits it.
func olapStreams(w *workload, seed uint64, clients, _ int) ([][]*query, []*query) {
	numDims := w.numDims
	rng := mlmath.NewRNG(fixedStatementSeed)
	var stmts []*query
	for i := 0; i < 12; i++ {
		// The filtered dimension is an even one: datagen gives odd
		// dimensions Zipf-skewed foreign keys, and a filter on one of those
		// would make the join's output size depend on the seed.
		nd := 1 + i%3
		dims := rng.Perm(numDims)[:nd]
		for j, d := range dims {
			if d%2 == 0 {
				dims[0], dims[j] = d, dims[0]
				break
			}
		}
		if dims[0]%2 == 1 {
			dims[0]--
		}
		blo := int64(rng.Intn(95))
		s := spec{
			dims: dims,
			filters: []filter{
				{factAttr(numDims, 0), 150, 850},
				{colRef{dims[0], dimB}, blo, blo + 4},
			},
			limit: 50 + 50*rng.Intn(3),
		}
		key := colRef{dims[0], dimA}
		s.order = []orderKey{{key, i%2 == 0}, {factAttr(numDims, 2), false}}
		s.proj = []colRef{key, factAttr(numDims, 2), factAttr(numDims, 1)}
		for _, d := range dims[1:] {
			s.proj = append(s.proj, colRef{d, dimB})
		}
		stmts = append(stmts, newQuery(s, numDims))
	}
	for i := 0; i < 4; i++ {
		nd := 1 + i%2
		dims := rng.Perm(numDims)[:nd]
		s := spec{
			dims:    dims,
			filters: []filter{{colRef{dims[0], dimA}, 100, 900}, {factAttr(numDims, 1), 400, 500}},
			limit:   -1,
			agg: &aggSpec{
				group: colRef{dims[len(dims)-1], dimB},
				sums:  []colRef{factAttr(numDims, 0), factAttr(numDims, 2)},
			},
		}
		if i >= 2 {
			s.agg.group = factAttr(numDims, 2)
		}
		stmts = append(stmts, newQuery(s, numDims))
	}
	order := mlmath.NewRNG(seed).Perm(len(stmts))
	stream := make([]*query, len(stmts))
	for i, j := range order {
		stream[i] = stmts[j]
	}
	return replicate(stream, clients), stmts
}

// adhocStreams gives every client its own stream of fresh statements with
// unique literals over a 5- to 8-table join: far more distinct statements
// than the plan cache and the querystore can hold, so every query is planned
// by the full System-R DP. Filters are selective, so execution stays small.
// The stream is sized so a client cannot exhaust it within the run; if one
// did, it would start over, and the repeats would still miss the cache.
func adhocStreams(w *workload, seed uint64, clients, seconds int) ([][]*query, []*query) {
	numDims := w.numDims
	rng := mlmath.NewRNG(seed ^ 0xadc0)
	seen := map[string]bool{}
	next := func() *query {
		for {
			nd := 5 + rng.Intn(3)
			dims := rng.Perm(numDims)[:nd]
			lo := int64(300 + rng.Intn(400))
			s := spec{dims: dims, limit: -1}
			s.filters = append(s.filters, filter{factAttr(numDims, 0), lo, lo + int64(5+rng.Intn(20))})
			if rng.Intn(2) == 0 {
				lo2 := lo - 30 + int64(rng.Intn(30))
				s.filters = append(s.filters, filter{factAttr(numDims, 1), lo2, lo2 + int64(60+rng.Intn(60))})
			}
			for _, d := range dims[:1+rng.Intn(2)] {
				blo := int64(rng.Intn(60))
				s.filters = append(s.filters, filter{colRef{d, dimB}, blo, blo + int64(20+rng.Intn(20))})
			}
			s.proj = []colRef{factAttr(numDims, 0), factAttr(numDims, 2)}
			for _, d := range dims[:2] {
				s.proj = append(s.proj, colRef{d, dimA})
			}
			q := newQuery(s, numDims)
			if !seen[q.sql] {
				seen[q.sql] = true
				return q
			}
		}
	}
	warm := make([]*query, 64)
	for i := range warm {
		warm[i] = next()
	}
	perClient := 1000 * seconds
	streams := make([][]*query, clients)
	for c := range streams {
		streams[c] = make([]*query, perClient)
		for i := range streams[c] {
			streams[c][i] = next()
		}
	}
	return streams, warm
}

// spillHotKeys is the number of distinct fk0 values spill-mixed looks up.
// Together with the scan statements they fit the plan cache, so lookups hit
// it like olap-mem's statements do.
const spillHotKeys = 192

// spillStreams interleaves partitioned full-scan joins over the spilled fact
// table — three with ORDER BY/LIMIT, one aggregate; one query in every
// eight — with Zipf-skewed point lookups on the indexed fk0 column. Scans
// read pages through the pool's FetchScan bypass, lookups through IndexScan
// and Pool.Fetch. The ORDER BY scans are the slowest statements and more
// than 5% of the queries, so p95 falls inside their latencies rather than on
// the edge between two kinds of scan.
func spillStreams(w *workload, seed uint64, clients, _ int) ([][]*query, []*query) {
	numDims, dimRows := w.numDims, w.dimRows
	fixed := mlmath.NewRNG(fixedStatementSeed)
	var scans []*query
	for i := 0; i < 4; i++ {
		d := i % numDims
		lo := int64(fixed.Intn(40))
		s := spec{dims: []int{d}, filters: []filter{{colRef{d, dimB}, lo, lo + 30}}, limit: -1}
		if i < 3 {
			s.order = []orderKey{{factAttr(numDims, 0), true}, {colRef{d, dimA}, false}}
			s.proj = []colRef{factAttr(numDims, 0), colRef{d, dimA}, factAttr(numDims, 2)}
			s.limit = 40
		} else {
			s.agg = &aggSpec{group: colRef{d, dimB}, sums: []colRef{factAttr(numDims, 1)}}
		}
		scans = append(scans, newQuery(s, numDims))
	}
	rng := mlmath.NewRNG(seed ^ 0x5b111)
	keys := make([]*query, spillHotKeys)
	used := map[int64]bool{}
	for i := range keys {
		k := int64(rng.Intn(dimRows))
		for used[k] {
			k = int64(rng.Intn(dimRows))
		}
		used[k] = true
		fk := colRef{factTab, spillIndexCol}
		keys[i] = newQuery(spec{
			filters: []filter{{fk, k, k}},
			proj:    []colRef{fk, factAttr(numDims, 0), factAttr(numDims, 2)},
			limit:   -1,
		}, numDims)
	}
	zipf := mlmath.NewZipf(rng, 0.8, spillHotKeys)
	stream := make([]*query, 4096)
	for i := range stream {
		if i%8 == 0 {
			stream[i] = scans[(i/8)%len(scans)]
		} else {
			stream[i] = keys[zipf.Draw()]
		}
	}
	return replicate(stream, clients), append(scans, keys...)
}

func replicate(stream []*query, clients int) [][]*query {
	out := make([][]*query, clients)
	for c := range out {
		out[c] = stream
	}
	return out
}

// distinct counts the distinct statements among the first issued[c]
// queries of each client's stream.
func distinct(streams [][]*query, issued []int) int {
	seen := map[*query]bool{}
	for c, s := range streams {
		for i := 0; i < issued[c] && i < len(s); i++ {
			seen[s[i]] = true
		}
	}
	return len(seen)
}

// instance is one set-up workload: data, engine, and the components the
// traced run re-calls.
type instance struct {
	w       *workload
	ss      *datagen.StarSchema
	db      *database
	eng     *engine.Engine
	learned optimizer.CardEstimator
	pool    *mlmath.Pool
	buf     *storage.Pool
	dir     string
	sizing  sizing
}

// sizing records what fits where, for the report.
type sizing struct {
	FactRows    int `json:"fact_rows"`
	DimRows     int `json:"dim_rows"`
	Dims        int `json:"dims"`
	FactPages   int `json:"fact_heap_pages,omitempty"`
	PoolFrames  int `json:"pool_frames,omitempty"`
	FactBytes   int `json:"fact_column_bytes"`
	MLPTrainSet int `json:"mlp_training_queries,omitempty"`
}

// setUp generates the data, spills and indexes it, trains the estimator,
// builds the engine, and runs the warm-up pass. dir holds heap files.
func setUp(w *workload, seed uint64, dir string, warm []*query) (*instance, error) {
	rng := mlmath.NewRNG(seed)
	ss, err := datagen.NewStarSchema(rng, w.factRows, w.dimRows, w.numDims)
	if err != nil {
		return nil, fmt.Errorf("generating data: %w", err)
	}
	fact := ss.Cat.Table(ss.FactID)
	in := &instance{w: w, ss: ss, db: captureDatabase(ss), dir: dir}
	in.sizing = sizing{
		FactRows: w.factRows, DimRows: w.dimRows, Dims: w.numDims,
		FactBytes: w.factRows * fact.NumCols() * 8,
	}
	if w.execPool {
		in.pool = mlmath.NewPool(clientCount(true))
	}
	if w.spill {
		if err := in.spill(fact); err != nil {
			in.close()
			return nil, err
		}
	}
	if w.learned {
		est, n, err := trainEstimator(ss, rng)
		if err != nil {
			in.close()
			return nil, err
		}
		in.learned, in.sizing.MLPTrainSet = est, n
	}
	in.eng, _, err = in.newEngine(nil)
	if err != nil {
		in.close()
		return nil, err
	}
	bind(ss, warm)
	if err := warmUp(in.eng, warm); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// spill moves the fact table to disk behind a pool of a quarter of its
// pages and builds the secondary index through that pool. The heap file is
// flushed once here; the measured phase writes nothing.
func (in *instance) spill(fact *catalog.Table) error {
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return err
	}
	perPage := storage.SlotsPerPage(fact.NumCols())
	pages := (fact.NumRows() + perPage - 1) / perPage
	in.buf = storage.NewPool(storage.PoolOptions{Capacity: pages / 4})
	if err := fact.SpillToDisk(filepath.Join(in.dir, "fact.heap"), in.buf); err != nil {
		return fmt.Errorf("spilling fact table: %w", err)
	}
	ix, err := catalog.BuildSecondaryIndexIO(fact, spillIndexCol)
	if err != nil {
		return fmt.Errorf("indexing fact table: %w", err)
	}
	fact.AddIndex(ix)
	in.sizing.FactPages = fact.NumDiskPages()
	in.sizing.PoolFrames = in.buf.Capacity()
	if 4*in.sizing.PoolFrames > in.sizing.FactPages {
		return fmt.Errorf("pool of %d frames exceeds a quarter of %d heap pages", in.sizing.PoolFrames, in.sizing.FactPages)
	}
	return nil
}

// trainEstimator fits the learned estimator over the fact table's three
// attribute columns and wraps it for the optimizer. Its training queries
// follow adhoc-plan's fact filters — a narrow attr0 range, sometimes with an
// attr1 range — labelled with their true selectivity, as a query-driven
// estimator would be trained from the workload it serves.
func trainEstimator(ss *datagen.StarSchema, rng *mlmath.RNG) (optimizer.CardEstimator, int, error) {
	fact := ss.Cat.Table(ss.FactID)
	f, err := cardest.NewFeaturizer(fact, ss.AttrCols)
	if err != nil {
		return nil, 0, err
	}
	const n = 600
	qs := make([][]expr.Pred, n)
	fr := make([]float64, n)
	for i := range qs {
		lo := int64(200 + rng.Intn(600))
		qs[i] = []expr.Pred{{Col: ss.AttrCols[0], Op: expr.BETWEEN, Lo: lo, Hi: lo + int64(5+rng.Intn(60))}}
		if rng.Intn(2) == 0 {
			lo2 := lo - 30 + int64(rng.Intn(30))
			qs[i] = append(qs[i], expr.Pred{Col: ss.AttrCols[1], Op: expr.BETWEEN, Lo: lo2, Hi: lo2 + int64(60+rng.Intn(60))})
		}
		fr[i] = cardest.TrueFraction(fact, qs[i])
	}
	m := cardest.NewMLPEstimator(f, []int{32, 32}, rng)
	m.Train(qs, fr, 40)
	return &cardest.OptimizerAdapter{Learned: m, LearnedTable: ss.FactID, Fallback: optimizer.New(ss.Cat).Est}, n, nil
}

// newEngine builds an engine over the instance's catalog with the workload's
// configuration and returns it with its querystore (nil when the workload
// has none); tr, when non-nil, makes it a traced engine with a metrics
// registry.
func (in *instance) newEngine(tr *traceSink) (*engine.Engine, *querystore.Store, error) {
	opts := engine.Options{Pool: in.pool}
	if in.w.store {
		opts.Store = querystore.New(storeOptions(in.ss.Cat))
	}
	if tr != nil {
		opts.Trace, opts.Metrics = tr.tracer, tr.metrics
	}
	eng := engine.New(in.ss.Cat, opts)
	if in.learned != nil {
		if err := eng.SetEstimator(in.learned, 1); err != nil {
			return nil, nil, err
		}
	}
	return eng, opts.Store, nil
}

func storeOptions(cat *catalog.Catalog) querystore.Options {
	return querystore.Options{Catalog: cat}
}

// warmUp runs every warm statement once so plan caches and lazily built
// state are ready before timing.
func warmUp(eng *engine.Engine, warm []*query) error {
	s := eng.Session()
	for _, q := range warm {
		if _, _, err := q.run(s); err != nil {
			return fmt.Errorf("warm-up %s: %w", q.label(), err)
		}
	}
	return nil
}

// run issues the query through the engine's public entry point and returns
// the rows the caller sees.
func (q *query) run(s *engine.Session) ([][]int64, *engine.Result, error) {
	if q.pq != nil {
		res, err := s.Run(q.pq)
		if err != nil {
			return nil, res, err
		}
		return res.Rows, res, nil
	}
	rr, err := s.Query(q.sql)
	if err != nil {
		return nil, nil, err
	}
	return rr.Rows, rr.Exec, nil
}

func (q *query) label() string {
	if q.sql != "" {
		return q.sql
	}
	var sums []string
	for _, c := range q.spec.agg.sums {
		sums = append(sums, fmt.Sprint(c))
	}
	return fmt.Sprintf("aggregate group=%v sums=%s dims=%v filters=%v", q.spec.agg.group, strings.Join(sums, ","), q.spec.dims, q.spec.filters)
}

func (in *instance) close() {
	in.pool.Close()
	if in.ss != nil && in.w.spill {
		if t := in.ss.Cat.Table(in.ss.FactID); t.Disk != nil {
			_ = t.Disk.Close() // read-only after the setup flush; nothing to lose
		}
	}
	if in.dir != "" {
		_ = os.RemoveAll(in.dir) // scratch heap files
	}
}

// timeSetUp sets the workload up reps times, each from scratch, and returns
// the last instance with the median set-up time.
func timeSetUp(w *workload, seed uint64, dir string, warm []*query, reps int) (*instance, float64, error) {
	var times []float64
	var in *instance
	for r := 0; r < reps; r++ {
		if in != nil {
			in.close()
		}
		start := time.Now()
		var err error
		in, err = setUp(w, seed, filepath.Join(dir, fmt.Sprintf("rep%d", r)), warm)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return in, median(times), nil
}
