package exec

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/storage"
)

// diskFixture builds twin catalogs — one in-memory, one spilled to disk
// through pool — holding the same two tables.
func diskFixture(t *testing.T, pool *storage.Pool, nrows int) (mem, disk *catalog.Catalog) {
	t.Helper()
	dir := t.TempDir()
	mem, disk = catalog.NewCatalog(), catalog.NewCatalog()
	for _, spec := range []struct {
		name string
		cols []string
	}{
		{"orders", []string{"id", "cust", "amount"}},
		{"customers", []string{"id", "region"}},
	} {
		mt := catalog.NewTable(spec.name, spec.cols...)
		dt := catalog.NewTable(spec.name, spec.cols...)
		n := nrows
		if spec.name == "customers" {
			n = nrows / 4
		}
		for r := 0; r < n; r++ {
			row := make([]int64, len(spec.cols))
			for c := range row {
				row[c] = int64((r*31 + c*17) % 97)
			}
			row[0] = int64(r % (n/4 + 1))
			if err := mt.AppendRow(row); err != nil {
				t.Fatal(err)
			}
			if err := dt.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		catalog.AnalyzeTable(mt, 16, 64)
		catalog.AnalyzeTable(dt, 16, 64)
		if err := dt.SpillToDisk(filepath.Join(dir, spec.name+".tbl"), pool); err != nil {
			t.Fatal(err)
		}
		mem.MustAdd(mt)
		disk.MustAdd(dt)
	}
	return mem, disk
}

func scanNode(tid int, filters ...expr.Pred) *plan.Node {
	return plan.NewScan(0, tid, filters)
}

func TestDiskSeqScanMatchesInMemory(t *testing.T) {
	pool := storage.NewPool(storage.PoolOptions{Capacity: 2})
	mem, disk := diskFixture(t, pool, 400)
	filters := []expr.Pred{{Col: 2, Op: expr.GE, Lo: 10}}

	rm, err := New(mem).Execute(scanNode(0, filters...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	nd := scanNode(0, filters...)
	rd, err := New(disk).Execute(nd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rm.Rows, rd.Rows) {
		t.Fatalf("disk scan rows diverge: %d vs %d rows", len(rd.Rows), len(rm.Rows))
	}
	if rd.Counters.ScanTuples != rm.Counters.ScanTuples {
		t.Fatalf("scan tuples: disk %d vs mem %d", rd.Counters.ScanTuples, rm.Counters.ScanTuples)
	}
	// The disk scan read pages through a 2-frame pool over a larger table:
	// it must have charged misses and recorded them for the node.
	if got := rd.Actuals[nd].PageMisses; rd.Counters.PageMiss == 0 || got != float64(rd.Counters.PageMiss) {
		t.Fatalf("PageMiss=%d Actuals PageMisses=%v", rd.Counters.PageMiss, got)
	}
	if rm.Counters.PageMiss != 0 {
		t.Fatalf("in-memory scan charged %d page misses", rm.Counters.PageMiss)
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("scan left %d pinned pages", n)
	}
}

func TestDiskIndexScanMatchesInMemory(t *testing.T) {
	pool := storage.NewPool(storage.PoolOptions{Capacity: 2})
	mem, disk := diskFixture(t, pool, 400)
	for _, cat := range []*catalog.Catalog{mem, disk} {
		ix, err := catalog.BuildSecondaryIndexIO(cat.Table(0), 2)
		if err != nil {
			t.Fatal(err)
		}
		cat.Table(0).AddIndex(ix)
	}
	node := func(c *catalog.Catalog) *plan.Node {
		n := plan.NewIndexScan(0, 0, 2, []expr.Pred{{Col: 2, Op: expr.BETWEEN, Lo: 20, Hi: 60}})
		_ = c
		return n
	}

	rm, err := New(mem).Execute(node(mem), Options{})
	if err != nil {
		t.Fatal(err)
	}
	nd := node(disk)
	rd, err := New(disk).Execute(nd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rm.Rows) == 0 || !reflect.DeepEqual(sortedRows(rm.Rows), sortedRows(rd.Rows)) {
		t.Fatalf("disk index scan diverges: %d vs %d rows", len(rd.Rows), len(rm.Rows))
	}
	if rd.Counters.IndexFetch != rm.Counters.IndexFetch {
		t.Fatalf("index fetches: disk %d vs mem %d", rd.Counters.IndexFetch, rm.Counters.IndexFetch)
	}
	if got := rd.Actuals[nd].PageMisses; rd.Counters.PageMiss == 0 || got != float64(rd.Counters.PageMiss) {
		t.Fatalf("PageMiss=%d Actuals PageMisses=%v", rd.Counters.PageMiss, got)
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("index scan left %d pinned pages", n)
	}
}

func TestDiskJoinMatchesInMemory(t *testing.T) {
	pool := storage.NewPool(storage.PoolOptions{Capacity: 3})
	mem, disk := diskFixture(t, pool, 200)
	join := func() *plan.Node {
		l := plan.NewScan(0, 0, nil)
		r := plan.NewScan(1, 1, nil)
		return plan.NewJoin(plan.OpHashJoin, l, r, 1, 0)
	}
	rm, err := New(mem).Execute(join(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := New(disk).Execute(join(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rm.Rows) == 0 || !reflect.DeepEqual(rm.Rows, rd.Rows) {
		t.Fatalf("disk join diverges: %d vs %d rows", len(rd.Rows), len(rm.Rows))
	}
}

func TestDiskScanBudgetAbortLeavesNoPins(t *testing.T) {
	pool := storage.NewPool(storage.PoolOptions{Capacity: 2})
	_, disk := diskFixture(t, pool, 400)
	n := scanNode(0)
	_, err := New(disk).Execute(n, Options{Budget: &Budget{MaxWork: 50}})
	if !errors.Is(err, ErrWorkBudgetExceeded) {
		t.Fatalf("got %v, want budget abort", err)
	}
	if got := pool.PinnedCount(); got != 0 {
		t.Fatalf("budget-aborted scan left %d pinned pages", got)
	}
	// Row budgets abort through the same path.
	_, err = New(disk).Execute(scanNode(0), Options{Budget: &Budget{MaxRows: 10}})
	if !errors.Is(err, ErrWorkBudgetExceeded) {
		t.Fatalf("got %v, want row-budget abort", err)
	}
	if got := pool.PinnedCount(); got != 0 {
		t.Fatalf("row-budget abort left %d pinned pages", got)
	}
}

func sortedRows(rows [][]int64) [][]int64 {
	out := make([][]int64, len(rows))
	copy(out, rows)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && lessRow(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func lessRow(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
