package exec

import (
	"fmt"
	"path/filepath"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/storage"
)

// snapshotPlan renders every node of the tree, pre-order, by address and by
// value: the operator, annotations, knobs, and filters by value, with the
// child pointers captured by the walk order. Two snapshots are equal only if
// no node was written.
func snapshotPlan(root *plan.Node) []string {
	var out []string
	root.Walk(func(n *plan.Node) {
		v := *n
		v.Children = nil
		out = append(out, fmt.Sprintf("%p children=%d %+v", n, len(n.Children), v))
	})
	return out
}

// immutableSchema is a star schema with a secondary index on the fact
// table's first attribute; with disk set, the fact table is spilled through
// a small buffer pool, so scans and index fetches miss.
func immutableSchema(t *testing.T, disk bool) *datagen.StarSchema {
	t.Helper()
	sch, err := datagen.NewStarSchema(mlmath.NewRNG(29), 1500, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	fact := sch.Cat.Table(sch.FactID)
	fact.AddIndex(catalog.BuildSecondaryIndex(fact, sch.AttrCols[0]))
	if disk {
		sp := storage.NewPool(storage.PoolOptions{Capacity: 4})
		if err := fact.SpillToDisk(filepath.Join(t.TempDir(), "fact.tbl"), sp); err != nil {
			t.Fatal(err)
		}
	}
	return sch
}

// TestExecuteLeavesPlanUnchanged pins the read-only plan contract: Execute
// writes nothing into the tree it runs — not on completion, not on a
// mid-operator budget abort, with or without EXPLAIN ANALYZE, serial or
// partitioned, over memory and disk tables. Per-node observations come back
// on Result.Actuals instead.
func TestExecuteLeavesPlanUnchanged(t *testing.T) {
	for _, disk := range []bool{false, true} {
		sch := immutableSchema(t, disk)
		e := New(sch.Cat)
		q := starQuery(sch)

		var plans []*plan.Node
		for _, parts := range []int{1, 3} {
			opt := optimizer.New(sch.Cat)
			opt.Parallelism = parts
			for _, h := range optimizer.StandardHintSets() {
				p, err := opt.Plan(q, h)
				if err != nil {
					t.Fatalf("%s: %v", h.Name, err)
				}
				plans = append(plans, p)
			}
			agg := plan.NewAgg(plan.NewScan(0, sch.FactID, q.Filters[0]), sch.FKCol[0], sch.AttrCols[1])
			agg.Partitions = parts
			agg.Children[0].Partitions = parts
			plans = append(plans, agg)
		}
		ixFilters := []expr.Pred{
			{Col: sch.AttrCols[0], Op: expr.BETWEEN, Lo: 300, Hi: 700},
			{Col: sch.AttrCols[2], Op: expr.LE, Lo: 500},
		}
		ix := plan.NewIndexScan(0, sch.FactID, sch.AttrCols[0], ixFilters)
		plans = append(plans, ix, plan.NewJoin(plan.OpHashJoin, plan.NewScan(1, sch.DimIDs[0], nil), ix, 0, sch.FKCol[0]))

		pool := mlmath.NewPool(3)
		defer pool.Close()
		for i, p := range plans {
			want := snapshotPlan(p)
			check := func(label string) {
				t.Helper()
				got := snapshotPlan(p)
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("disk=%v plan %d %s: Execute wrote into node %d\nbefore %s\nafter  %s", disk, i, label, k, want[k], got[k])
					}
				}
			}
			full, err := e.Execute(p, Options{Pool: pool})
			if err != nil {
				t.Fatalf("disk=%v plan %d: %v", disk, i, err)
			}
			check("full run")
			budgets := []*Budget{nil, {MaxWork: full.Work / 2}, {MaxRows: int64(len(full.Rows))/2 + 1}}
			for _, b := range budgets {
				for _, analyze := range []bool{false, true} {
					for _, pl := range []*mlmath.Pool{nil, pool} {
						_, err := e.Execute(p, Options{Pool: pl, Budget: b, Analyze: analyze})
						if b != nil && err == nil {
							t.Fatalf("disk=%v plan %d budget=%+v: expected a mid-operator abort", disk, i, *b)
						}
						check(fmt.Sprintf("budget=%+v analyze=%v pool=%v", b, analyze, pl != nil))
					}
				}
			}
		}
	}
}
