package exec

import (
	"testing"

	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// allocCatalog holds a fact table f(id, key, v) of n rows and a 1,000-row
// dimension d(id) whose ids cover every fact key.
func allocCatalog(t *testing.T, n int) *catalog.Catalog {
	t.Helper()
	f := catalog.NewTable("f", "id", "key", "v")
	for r := 0; r < n; r++ {
		if err := f.AppendRow([]int64{int64(r), int64(r * 7 % 1000), int64(r % 10)}); err != nil {
			t.Fatal(err)
		}
	}
	d := catalog.NewTable("d", "id")
	for r := 0; r < 1000; r++ {
		if err := d.AppendRow([]int64{int64(r)}); err != nil {
			t.Fatal(err)
		}
	}
	cat := catalog.NewCatalog()
	cat.MustAdd(f)
	cat.MustAdd(d)
	return cat
}

// TestAllocsDoNotScaleWithRows pins the columnar executor's allocation
// profile: a filtered SeqScan, and a HashJoin probing it, allocate per
// execution, not per input row. Going from 10k to 100k fact rows may add
// only the few regrowths of the selection and row-id vectors, and the
// materialized result is two allocations however many rows it has.
func TestAllocsDoNotScaleWithRows(t *testing.T) {
	scan := func() *plan.Node { return plan.NewScan(0, 0, []expr.Pred{{Col: 2, Op: expr.LT, Lo: 5}}) }
	plans := map[string]func() *plan.Node{
		"seqscan": scan,
		"hashjoin": func() *plan.Node {
			return plan.NewJoin(plan.OpHashJoin, plan.NewScan(1, 1, nil), scan(), 0, 1)
		},
	}
	for name, mk := range plans {
		var allocs [2]float64
		for i, n := range []int{10_000, 100_000} {
			e := New(allocCatalog(t, n))
			allocs[i] = testing.AllocsPerRun(5, func() {
				if _, err := e.Execute(mk(), Options{}); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("%s: %.0f allocs at 10k rows, %.0f at 100k", name, allocs[0], allocs[1])
		if allocs[1]-allocs[0] > 40 {
			t.Errorf("%s: allocations grow with rows: %.0f at 10k, %.0f at 100k", name, allocs[0], allocs[1])
		}
	}
}
