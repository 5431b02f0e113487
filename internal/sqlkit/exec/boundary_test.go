package exec

import (
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/storage"
)

// Pinned budget-boundary goldens. Every value below was recorded from the
// per-tuple executor (one charge call per tuple, checked as it was made), so
// these tests hold the closed-form per-shard charging to the exact abort
// point of the tuple-at-a-time semantics: the same Kind, the same Used, the
// same number of rows charged against the row budget, the same Counters,
// and the same number of rows the last charged shards admitted. The
// goldens do not depend on the partition count: every case runs at
// Partitions 1 through 4.

// The fact table is small in memory and five heap pages on disk.
const (
	boundaryMemRows  = 48
	boundaryDiskRows = 700
)

// boundaryCatalog builds table 0, the fact f(id, key, v), and table 1, the
// dimension d(id, key). f.key = r%6; f.v = r%4 except on the fully filtered
// middle quarter [n/4, n/2), where v = 0, so the filter v >= 2 passes rows
// with r%4 in {2, 3} outside it. d's keys give the probe side 0..3 matches
// per row (key 2 matches three dimension rows, key 4 none). With disk set,
// f is spilled through a fresh two-frame pool that then drops its pages, so
// every page fetch misses.
func boundaryCatalog(t *testing.T, disk bool) (*catalog.Catalog, *storage.Pool) {
	t.Helper()
	n := boundaryMemRows
	if disk {
		n = boundaryDiskRows
	}
	f := catalog.NewTable("f", "id", "key", "v")
	for r := 0; r < n; r++ {
		v := int64(r % 4)
		if r >= n/4 && r < n/2 {
			v = 0
		}
		if err := f.AppendRow([]int64{int64(r), int64(r % 6), v}); err != nil {
			t.Fatal(err)
		}
	}
	d := catalog.NewTable("d", "id", "key")
	for i, k := range []int64{0, 1, 1, 2, 2, 2, 3, 5, 5} {
		if err := d.AppendRow([]int64{int64(100 + i), k}); err != nil {
			t.Fatal(err)
		}
	}
	var pool *storage.Pool
	if disk {
		pool = storage.NewPool(storage.PoolOptions{Capacity: 2})
		if err := f.SpillToDisk(filepath.Join(t.TempDir(), "f.tbl"), pool); err != nil {
			t.Fatal(err)
		}
		// Start cold: a one-shard scan fetches through the pool and would
		// otherwise evict the spill's resident pages before reaching them.
		if err := pool.ReleaseFile(f.Disk.File()); err != nil {
			t.Fatal(err)
		}
	}
	cat := catalog.NewCatalog()
	cat.MustAdd(f)
	cat.MustAdd(d)
	return cat, pool
}

func boundaryFactScan() *plan.Node {
	return plan.NewScan(0, 0, []expr.Pred{{Col: 2, Op: expr.GE, Lo: 2}})
}

// Plans over the boundary catalog. The hash join builds on d and probes
// with the filtered fact scan; the nested loop runs the fact scan as its
// outer side.
var boundaryPlans = map[string]func() *plan.Node{
	"scan": boundaryFactScan,
	"hash": func() *plan.Node {
		return plan.NewJoin(plan.OpHashJoin, plan.NewScan(1, 1, nil), boundaryFactScan(), 1, 1)
	},
	"nl": func() *plan.Node {
		return plan.NewJoin(plan.OpNLJoin, boundaryFactScan(), plan.NewScan(1, 1, nil), 1, 1)
	},
	"agg": func() *plan.Node { return plan.NewAgg(boundaryFactScan(), 1, 2) },
}

// boundaryResult is what one budgeted execution is pinned on.
type boundaryResult struct {
	Kind     string // "" when the budget did not trip
	Used     int64
	Rows     int64 // rows charged against the row budget, abort included
	Admitted int64 // rows admitted by the last charged shards (Partitions > 1)
	Ctr      Counters
}

// runBoundary executes plan under budget at the given partition count and
// reports the abort point. Admitted sums the rows attribute of the trailing
// exec.exchange.shard spans: the shards of the last partitioned phase the
// coordinator charged, which is the aborting one unless the trip fell in a
// serial phase such as a hash build.
func runBoundary(t *testing.T, disk bool, planName string, parts int, b Budget) boundaryResult {
	t.Helper()
	cat, sp := boundaryCatalog(t, disk)
	root := boundaryPlans[planName]()
	root.Walk(func(n *plan.Node) { n.Partitions = parts })
	clock := &mlmath.ManualClock{}
	st := &execState{cat: cat, maxWork: b.MaxWork, maxRows: b.MaxRows, tr: obs.NewTracer(clock), clock: clock}
	if parts > 1 {
		st.pool = mlmath.NewPool(2)
		defer st.pool.Close()
	}
	st.cur = st.tr.StartSpan("exec.execute", nil)
	_, err := st.run(root)
	res := boundaryResult{Rows: st.rows, Ctr: st.ctr}
	if err != nil {
		var be *BudgetExceededError
		if !errors.As(err, &be) {
			t.Fatalf("%s: %v", planName, err)
		}
		if be.Limit != b.MaxWork && be.Limit != b.MaxRows {
			t.Fatalf("%s: abort limit %d matches neither budget %+v", planName, be.Limit, b)
		}
		res.Kind, res.Used = be.Kind, be.Used
	}
	spans := st.tr.Spans()
	parent := -1
	for i := len(spans) - 1; i >= 0 && spans[i].Name == "exec.exchange.shard"; i-- {
		if parent >= 0 && spans[i].Parent != parent {
			break
		}
		parent = spans[i].Parent
		for _, a := range spans[i].Attrs {
			if a.Key == "rows" {
				res.Admitted += a.Int
			}
		}
	}
	if sp != nil && sp.PinnedCount() != 0 {
		t.Fatalf("%s: %d pages left pinned", planName, sp.PinnedCount())
	}
	return res
}

type boundaryCase struct {
	name   string
	disk   bool
	plan   string
	budget Budget
	want   boundaryResult
}

// spp is the heap-page capacity of the three-column fact table: the disk
// cases place their limits relative to page boundaries.
var spp = int64(storage.SlotsPerPage(3))

// Memory fact: 48 rows, filtered range [12, 24), passing rows 2,3,6,7,10,11
// and then 26,27,...: 18 in all. Shard boundaries fall at 24 (P=2), 16 and
// 32 (P=3), and 12, 24, 36 (P=4). The hash probe side has 18 rows whose
// keys 2,3,0,1,4,5,... match 3,1,1,2,0,2,... dimension rows; work before the
// probe is 9 (d scan) + 48 (f scan) + 9 (build) = 66 with 27 rows charged.
var boundaryCases = []boundaryCase{
	{name: "scan/work-first-row-of-shard-24", plan: "scan", budget: Budget{MaxWork: 24},
		want: boundaryResult{Kind: "work", Used: 25, Rows: 6, Admitted: 6, Ctr: Counters{ScanTuples: 25}}},
	{name: "scan/work-first-row-of-shard-16", plan: "scan", budget: Budget{MaxWork: 16},
		want: boundaryResult{Kind: "work", Used: 17, Rows: 6, Admitted: 6, Ctr: Counters{ScanTuples: 17}}},
	{name: "scan/work-exactly-at-shard-boundary-12", plan: "scan", budget: Budget{MaxWork: 12},
		want: boundaryResult{Kind: "work", Used: 13, Rows: 6, Admitted: 6, Ctr: Counters{ScanTuples: 13}}},
	{name: "scan/work-last-row-of-shard-11", plan: "scan", budget: Budget{MaxWork: 11},
		want: boundaryResult{Kind: "work", Used: 12, Rows: 5, Admitted: 5, Ctr: Counters{ScanTuples: 12}}},
	{name: "scan/work-last-row-of-filtered-shard-23", plan: "scan", budget: Budget{MaxWork: 23},
		want: boundaryResult{Kind: "work", Used: 24, Rows: 6, Admitted: 6, Ctr: Counters{ScanTuples: 24}}},
	{name: "scan/work-inside-filtered-range", plan: "scan", budget: Budget{MaxWork: 17},
		want: boundaryResult{Kind: "work", Used: 18, Rows: 6, Admitted: 6, Ctr: Counters{ScanTuples: 18}}},
	{name: "scan/rows-first-pass-after-filtered-range", plan: "scan", budget: Budget{MaxRows: 6},
		want: boundaryResult{Kind: "rows", Used: 7, Rows: 7, Admitted: 6, Ctr: Counters{ScanTuples: 27}}},
	{name: "scan/rows-last-row-of-shard", plan: "scan", budget: Budget{MaxRows: 5},
		want: boundaryResult{Kind: "rows", Used: 6, Rows: 6, Admitted: 5, Ctr: Counters{ScanTuples: 12}}},
	{name: "scan/work-and-rows-same-row", plan: "scan", budget: Budget{MaxWork: 26, MaxRows: 6},
		want: boundaryResult{Kind: "work", Used: 27, Rows: 6, Admitted: 6, Ctr: Counters{ScanTuples: 27}}},
	{name: "scan/limits-met-exactly", plan: "scan", budget: Budget{MaxWork: 48, MaxRows: 18},
		want: boundaryResult{Rows: 18, Admitted: 18, Ctr: Counters{ScanTuples: 48}}},

	{name: "hash/work-in-build", plan: "hash", budget: Budget{MaxWork: 60},
		want: boundaryResult{Kind: "work", Used: 61, Rows: 27, Admitted: 18, Ctr: Counters{ScanTuples: 57, HashBuild: 4}}},
	{name: "hash/work-2nd-output-of-probe-row", plan: "hash", budget: Budget{MaxWork: 68},
		want: boundaryResult{Kind: "work", Used: 69, Rows: 28, Admitted: 1, Ctr: Counters{ScanTuples: 57, HashBuild: 9, HashProbe: 1, OutputTuple: 2}}},
	{name: "hash/rows-2nd-output-of-probe-row", plan: "hash", budget: Budget{MaxRows: 28},
		want: boundaryResult{Kind: "rows", Used: 29, Rows: 29, Admitted: 1, Ctr: Counters{ScanTuples: 57, HashBuild: 9, HashProbe: 1, OutputTuple: 2}}},
	{name: "hash/work-and-rows-same-output", plan: "hash", budget: Budget{MaxWork: 68, MaxRows: 28},
		want: boundaryResult{Kind: "work", Used: 69, Rows: 28, Admitted: 1, Ctr: Counters{ScanTuples: 57, HashBuild: 9, HashProbe: 1, OutputTuple: 2}}},
	{name: "hash/work-on-probe-charge", plan: "hash", budget: Budget{MaxWork: 70},
		want: boundaryResult{Kind: "work", Used: 71, Rows: 30, Admitted: 3, Ctr: Counters{ScanTuples: 57, HashBuild: 9, HashProbe: 2, OutputTuple: 3}}},
	{name: "hash/work-first-probe-row-of-shard-6", plan: "hash", budget: Budget{MaxWork: 81},
		want: boundaryResult{Kind: "work", Used: 82, Rows: 36, Admitted: 9, Ctr: Counters{ScanTuples: 57, HashBuild: 9, HashProbe: 7, OutputTuple: 9}}},
	{name: "hash/rows-last-output-of-shard", plan: "hash", budget: Budget{MaxRows: 35},
		want: boundaryResult{Kind: "rows", Used: 36, Rows: 36, Admitted: 8, Ctr: Counters{ScanTuples: 57, HashBuild: 9, HashProbe: 6, OutputTuple: 9}}},

	{name: "nl/work-mid-inner-scan", plan: "nl", budget: Budget{MaxWork: 106},
		want: boundaryResult{Kind: "work", Used: 107, Rows: 34, Admitted: 7, Ctr: Counters{ScanTuples: 57, NLPairs: 50}}},
	{name: "nl/work-first-pair-of-outer-shard-6", plan: "nl", budget: Budget{MaxWork: 111},
		want: boundaryResult{Kind: "work", Used: 112, Rows: 36, Admitted: 9, Ctr: Counters{ScanTuples: 57, NLPairs: 55}}},
	{name: "nl/rows-on-match", plan: "nl", budget: Budget{MaxRows: 30},
		want: boundaryResult{Kind: "rows", Used: 31, Rows: 31, Admitted: 3, Ctr: Counters{ScanTuples: 57, NLPairs: 16}}},

	{name: "agg/work-in-input", plan: "agg", budget: Budget{MaxWork: 55},
		want: boundaryResult{Kind: "work", Used: 56, Rows: 18, Admitted: 0, Ctr: Counters{ScanTuples: 48, AggInput: 8}}},
	{name: "agg/work-in-emission", plan: "agg", budget: Budget{MaxWork: 68},
		want: boundaryResult{Kind: "work", Used: 69, Rows: 20, Admitted: 0, Ctr: Counters{ScanTuples: 48, OutputTuple: 3, AggInput: 18}}},
	{name: "agg/rows-in-emission", plan: "agg", budget: Budget{MaxRows: 20},
		want: boundaryResult{Kind: "rows", Used: 21, Rows: 21, Admitted: 0, Ctr: Counters{ScanTuples: 48, OutputTuple: 3, AggInput: 18}}},

	{name: "disk/work-on-pagemiss", disk: true, plan: "scan", budget: Budget{MaxWork: 2 * (1 + spp)},
		want: boundaryResult{Kind: "work", Used: 341, Rows: 87, Admitted: 87, Ctr: Counters{ScanTuples: 338, PageMiss: 3}}},
	{name: "disk/work-first-row-of-page", disk: true, plan: "scan", budget: Budget{MaxWork: spp + 2},
		want: boundaryResult{Kind: "work", Used: 172, Rows: 84, Admitted: 84, Ctr: Counters{ScanTuples: 170, PageMiss: 2}}},
	{name: "disk/work-last-row-of-page", disk: true, plan: "scan", budget: Budget{MaxWork: spp},
		want: boundaryResult{Kind: "work", Used: 170, Rows: 84, Admitted: 84, Ctr: Counters{ScanTuples: 169, PageMiss: 1}}},
	{name: "disk/work-inside-filtered-range", disk: true, plan: "scan", budget: Budget{MaxWork: 202},
		want: boundaryResult{Kind: "work", Used: 203, Rows: 87, Admitted: 87, Ctr: Counters{ScanTuples: 201, PageMiss: 2}}},
	{name: "disk/rows-mid-page", disk: true, plan: "scan", budget: Budget{MaxRows: 40},
		want: boundaryResult{Kind: "rows", Used: 41, Rows: 41, Admitted: 40, Ctr: Counters{ScanTuples: 83, PageMiss: 1}}},
	{name: "disk/work-and-rows-same-row", disk: true, plan: "scan", budget: Budget{MaxWork: 4, MaxRows: 1},
		want: boundaryResult{Kind: "work", Used: 5, Rows: 1, Admitted: 1, Ctr: Counters{ScanTuples: 4, PageMiss: 1}}},
	{name: "disk/hash-probe-2nd-output", disk: true, plan: "hash", budget: Budget{MaxWork: 9 + 700 + 5 + 9 + 2},
		want: boundaryResult{Kind: "work", Used: 726, Rows: 273, Admitted: 1, Ctr: Counters{ScanTuples: 709, HashBuild: 9, HashProbe: 1, OutputTuple: 2, PageMiss: 5}}},
	{name: "disk/no-budget", disk: true, plan: "scan", budget: Budget{},
		want: boundaryResult{Rows: 263, Admitted: 263, Ctr: Counters{ScanTuples: 700, PageMiss: 5}}},
}

func TestBudgetBoundaryGoldens(t *testing.T) {
	for _, tc := range boundaryCases {
		for parts := 1; parts <= 4; parts++ {
			got := runBoundary(t, tc.disk, tc.plan, parts, tc.budget)
			want := tc.want
			if parts == 1 {
				// No shards, no exchange.shard spans to count.
				want.Admitted = 0
			}
			if got != want {
				t.Errorf("%s P=%d:\n got  %+v\n want %+v", tc.name, parts, got, want)
			}
		}
	}
}

// boundarySweepFingerprint is the FNV-64a digest of every sweep result
// below, recorded from the per-tuple executor.
const boundarySweepFingerprint = 0xee6ff1c20408b413

// TestBudgetBoundarySweep runs every plan under every work limit and every
// row limit up to its full-run totals (disk plans in strides, since each run
// needs a fresh cold pool), checks Partitions 1 and 3 agree, and pins the
// whole sweep to one fingerprint.
func TestBudgetBoundarySweep(t *testing.T) {
	h := fnv.New64a()
	for _, pc := range []struct {
		plan   string
		disk   bool
		stride int64
	}{{"scan", false, 1}, {"hash", false, 1}, {"nl", false, 1}, {"agg", false, 1}, {"scan", true, 13}, {"hash", true, 17}} {
		full := runBoundary(t, pc.disk, pc.plan, 1, Budget{})
		var budgets []Budget
		for w := int64(0); w <= full.Ctr.Total(); w += pc.stride {
			budgets = append(budgets, Budget{MaxWork: w})
		}
		for r := int64(0); r <= full.Rows; r += pc.stride {
			budgets = append(budgets, Budget{MaxRows: r})
		}
		for _, b := range budgets {
			serial := runBoundary(t, pc.disk, pc.plan, 1, b)
			par := runBoundary(t, pc.disk, pc.plan, 3, b)
			par.Admitted = 0
			if serial != par {
				t.Fatalf("%s disk=%v %+v: P=1 %+v, P=3 %+v", pc.plan, pc.disk, b, serial, par)
			}
			fmt.Fprintf(h, "%s %v %+v %+v\n", pc.plan, pc.disk, b, serial)
		}
	}
	if got := h.Sum64(); got != boundarySweepFingerprint {
		t.Fatalf("sweep fingerprint %#x, want %#x", got, uint64(boundarySweepFingerprint))
	}
}

// rowOrderFingerprint is the FNV-64a digest of the rows, in order, and the
// Counters of the plans below, recorded from the row-at-a-time executor.
const rowOrderFingerprint = 0xff7d66728d675b55

// TestRowOrderFingerprint pins the executor's output order, not just its
// row multiset, for every standard hint set (hash, merge and nested-loop
// joins, index-free and aggregated), serial and partitioned.
func TestRowOrderFingerprint(t *testing.T) {
	sch, err := datagen.NewStarSchema(mlmath.NewRNG(5), 400, 48, 3)
	if err != nil {
		t.Fatal(err)
	}
	aggQ := starQuery(sch)
	aggQ.SetAgg(1, 1, plan.AggCol{Table: 0, Col: sch.AttrCols[1]})
	pool := mlmath.NewPool(2)
	defer pool.Close()
	h := fnv.New64a()
	for _, q := range []*plan.Query{starQuery(sch), aggQ} {
		for _, hs := range optimizer.StandardHintSets() {
			opt := optimizer.New(sch.Cat)
			p, err := opt.Plan(q, hs)
			if err != nil {
				t.Fatal(err)
			}
			for _, parts := range []int{1, 3} {
				res, err := New(sch.Cat).Execute(forcePartitions(p, parts), Options{Pool: pool})
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s %d %+v %v\n", hs.Name, parts, res.Counters, res.Rows)
			}
		}
	}
	if got := h.Sum64(); got != rowOrderFingerprint {
		t.Fatalf("row-order fingerprint %#x, want %#x", got, uint64(rowOrderFingerprint))
	}
}
