package exec

import (
	"errors"
	"sort"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// tinyCatalog builds two small tables with a known join result.
func tinyCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.NewCatalog()
	a := catalog.NewTable("a", "id", "v")
	for _, r := range [][]int64{{1, 10}, {2, 20}, {3, 30}, {3, 31}} {
		if err := a.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	b := catalog.NewTable("b", "ref", "w")
	for _, r := range [][]int64{{2, 200}, {3, 300}, {3, 301}, {4, 400}} {
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	cat.MustAdd(a)
	cat.MustAdd(b)
	return cat
}

func TestSeqScanWithFilters(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	scan := plan.NewScan(0, 0, []expr.Pred{{Col: 0, Op: expr.GE, Lo: 2}})
	res, err := e.Execute(scan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("filtered scan rows = %d, want 3", len(res.Rows))
	}
	if res.Work != 4 {
		t.Errorf("scan work = %d, want 4 (one per input row)", res.Work)
	}
	if got := res.Actuals[scan].Rows; got != 3 {
		t.Errorf("Actuals rows = %v, want 3", got)
	}
}

// expectedJoinRows is a⋈b on a.id=b.ref: id 2 matches 1 row, id 3 (x2 in a)
// matches 2 rows in b → 1 + 4 = 5 output rows.
const expectedJoinRows = 5

func joinPlanOver(op plan.OpType) *plan.Node {
	l := plan.NewScan(0, 0, nil)
	r := plan.NewScan(1, 1, nil)
	return plan.NewJoin(op, l, r, 0, 0) // a.id (offset 0 in left) = b.ref (offset 0 in right)
}

func TestAllJoinOperatorsAgree(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	var results [][][]int64
	for _, op := range plan.AllJoinOps {
		res, err := e.Execute(joinPlanOver(op), Options{})
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if len(res.Rows) != expectedJoinRows {
			t.Errorf("%v produced %d rows, want %d", op, len(res.Rows), expectedJoinRows)
		}
		results = append(results, canonical(res.Rows))
	}
	for i := 1; i < len(results); i++ {
		if !sameRows(results[0], results[i]) {
			t.Errorf("join op %v disagrees with %v", plan.AllJoinOps[i], plan.AllJoinOps[0])
		}
	}
}

func canonical(rows [][]int64) [][]int64 {
	out := make([][]int64, len(rows))
	copy(out, rows)
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

func sameRows(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

func TestJoinOutputSchemaIsLeftThenRight(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	res, err := e.Execute(joinPlanOver(plan.OpHashJoin), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if len(row) != 4 {
			t.Fatalf("join row width = %d, want 4", len(row))
		}
		if row[0] != row[2] {
			t.Errorf("join key mismatch in output row %v", row)
		}
	}
}

func TestWorkBudgetAborts(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	_, err := e.Execute(joinPlanOver(plan.OpNLJoin), Options{Budget: &Budget{MaxWork: 3}})
	if !errors.Is(err, ErrWorkBudgetExceeded) {
		t.Errorf("err = %v, want ErrWorkBudgetExceeded", err)
	}
}

func TestNLJoinCostsMoreThanHashJoin(t *testing.T) {
	rng := mlmath.NewRNG(1)
	sch, err := datagen.NewChainSchema(rng, []int{2000, 2000})
	if err != nil {
		t.Fatal(err)
	}
	e := New(sch.Cat)
	mk := func(op plan.OpType) *plan.Node {
		l := plan.NewScan(0, sch.TableIDs[0], nil)
		r := plan.NewScan(1, sch.TableIDs[1], nil)
		return plan.NewJoin(op, l, r, 1, 0) // t0.next = t1.id
	}
	hres, err := e.Execute(mk(plan.OpHashJoin), Options{})
	if err != nil {
		t.Fatal(err)
	}
	nres, err := e.Execute(mk(plan.OpNLJoin), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hres.Rows) != len(nres.Rows) {
		t.Fatalf("row count mismatch: hash %d vs nl %d", len(hres.Rows), len(nres.Rows))
	}
	if nres.Work < 100*hres.Work {
		t.Errorf("NL work %d should dwarf hash work %d on 2k x 2k", nres.Work, hres.Work)
	}
}

func TestThreeWayJoinMatchesBruteForce(t *testing.T) {
	rng := mlmath.NewRNG(2)
	sch, err := datagen.NewChainSchema(rng, []int{60, 40, 30})
	if err != nil {
		t.Fatal(err)
	}
	e := New(sch.Cat)
	s0 := plan.NewScan(0, sch.TableIDs[0], nil)
	s1 := plan.NewScan(1, sch.TableIDs[1], nil)
	s2 := plan.NewScan(2, sch.TableIDs[2], nil)
	// ((t0 ⋈ t1) ⋈ t2): t0.next=t1.id, then t1.next (offset 3+1=4) = t2.id.
	j1 := plan.NewJoin(plan.OpHashJoin, s0, s1, 1, 0)
	root := plan.NewJoin(plan.OpMergeJoin, j1, s2, 4, 0)
	res, err := e.Execute(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Brute force.
	t0, t1, t2 := sch.Cat.Table(sch.TableIDs[0]), sch.Cat.Table(sch.TableIDs[1]), sch.Cat.Table(sch.TableIDs[2])
	count := 0
	for r0 := 0; r0 < t0.NumRows(); r0++ {
		for r1 := 0; r1 < t1.NumRows(); r1++ {
			if t0.Data[1][r0] != t1.Data[0][r1] {
				continue
			}
			for r2 := 0; r2 < t2.NumRows(); r2++ {
				if t1.Data[1][r1] == t2.Data[0][r2] {
					count++
				}
			}
		}
	}
	if len(res.Rows) != count {
		t.Errorf("3-way join rows = %d, brute force = %d", len(res.Rows), count)
	}
}

func TestExecuteCount(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	card, work, err := e.ExecuteCount(joinPlanOver(plan.OpHashJoin), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if card != expectedJoinRows || work <= 0 {
		t.Errorf("ExecuteCount = (%d, %d)", card, work)
	}
}

func TestDeterministicWork(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	w1, w2 := int64(0), int64(0)
	for i, w := range []*int64{&w1, &w2} {
		res, err := e.Execute(joinPlanOver(plan.OpMergeJoin), Options{})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		*w = res.Work
	}
	if w1 != w2 {
		t.Errorf("work not deterministic: %d vs %d", w1, w2)
	}
}

func TestUnknownOperator(t *testing.T) {
	cat := tinyCatalog(t)
	e := New(cat)
	bad := &plan.Node{Op: plan.OpType(99), Children: []*plan.Node{plan.NewScan(0, 0, nil), plan.NewScan(1, 1, nil)}}
	if _, err := e.Execute(bad, Options{}); err == nil {
		t.Error("expected error for unknown operator")
	}
}
