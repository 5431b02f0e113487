package querystore

import (
	"testing"
	"time"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/storage"
)

// TestNilStoreIsFree pins the "nil is off, and free" contract: every method
// no-ops on a nil receiver and the recording path allocates nothing.
func TestNilStoreIsFree(t *testing.T) {
	var s *Store
	o := Observation{Shape: "hdefault|T0", Work: 10, Rows: 3}
	s.Record(o)
	s.Flush()
	s.RecordModelInstall(1)
	if got := s.Statements(); got != nil {
		t.Errorf("nil Statements = %v", got)
	}
	if got := s.Windows(); got != nil {
		t.Errorf("nil Windows = %v", got)
	}
	if got := s.DriftEvents(); got != nil {
		t.Errorf("nil DriftEvents = %v", got)
	}
	if got := s.ModelEvents(); got != nil {
		t.Errorf("nil ModelEvents = %v", got)
	}
	if err := s.WriteJSONL(nil); err != nil {
		t.Errorf("nil WriteJSONL err = %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.Record(o)
	})
	if allocs != 0 {
		t.Errorf("nil Record allocates %.1f per call, want 0", allocs)
	}
}

func manualStore(opts Options) (*Store, *mlmath.ManualClock) {
	mc := &mlmath.ManualClock{T: time.Unix(1000, 0)}
	opts.Clock = mc
	if opts.Window == 0 {
		opts.Window = time.Second
	}
	return New(opts), mc
}

func TestStatementAccounting(t *testing.T) {
	s, _ := manualStore(Options{})
	s.Record(Observation{Shape: "a", Work: 100, Rows: 5})
	s.Record(Observation{Shape: "a", Work: 300, Rows: 7, CacheHit: true, PageMisses: 4})
	s.Record(Observation{Shape: "a", Work: 50, Fallback: true})
	s.Record(Observation{Shape: "b", Work: 20, BudgetAbort: true})

	stmts := s.Statements()
	if len(stmts) != 2 {
		t.Fatalf("statements = %d, want 2", len(stmts))
	}
	a, b := stmts[0], stmts[1]
	if a.Shape != "a" || a.ID != 0 || b.Shape != "b" || b.ID != 1 {
		t.Fatalf("IDs not in first-seen order: %+v %+v", a, b)
	}
	if a.Calls != 3 || a.TotalWork != 450 || a.MaxWork != 300 || a.TotalRows != 12 {
		t.Errorf("a accounting wrong: %+v", a)
	}
	if a.CacheHits != 1 || a.Fallbacks != 1 || a.PageMisses != 4 {
		t.Errorf("a flags wrong: %+v", a)
	}
	if b.Calls != 1 || b.BudgetAborts != 1 {
		t.Errorf("b accounting wrong: %+v", b)
	}
}

func TestStatementCap(t *testing.T) {
	s, _ := manualStore(Options{MaxStatements: 2})
	for _, shape := range []string{"a", "b", "c", "b"} {
		s.Record(Observation{Shape: shape})
	}
	if got := len(s.Statements()); got != 2 {
		t.Errorf("statements = %d, want 2 (capped)", got)
	}
	if got := s.DroppedStatements(); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	// The capped shape still counted in the window aggregates.
	s.Flush()
	if w := s.Windows(); len(w) != 1 || w[0].Queries != 4 {
		t.Errorf("window queries = %+v, want 4", w)
	}
}

// twoColCatalog builds t0(a,b) with 10 rows and t1(c,d) with 20 rows.
func twoColCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.NewCatalog()
	t0 := catalog.NewTable("t0", "a", "b")
	t1 := catalog.NewTable("t1", "c", "d")
	for i := int64(0); i < 10; i++ {
		if err := t0.AppendRow([]int64{i, i % 3}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 20; i++ {
		if err := t1.AppendRow([]int64{i % 10, i}); err != nil {
			t.Fatal(err)
		}
	}
	cat.MustAdd(t0)
	cat.MustAdd(t1)
	return cat
}

func TestQErrAndHeatHarvest(t *testing.T) {
	cat := twoColCatalog(t)
	s, _ := manualStore(Options{Catalog: cat})

	// A join plan with known annotations: scan(t0, b=1) est 4 actual 3,
	// scan(t1) est 20 actual 20, join on t0.a = t1.c est 10 actual 6.
	l := plan.NewScan(0, 0, []expr.Pred{{Col: 1, Op: expr.EQ, Lo: 1}})
	l.EstRows = 4
	r := plan.NewScan(1, 1, nil)
	r.EstRows = 20
	j := plan.NewJoin(plan.OpHashJoin, l, r, 0, 0) // t0 col a, t1 col c
	j.EstRows = 10
	act := plan.Actuals{l: {Rows: 3}, r: {Rows: 20}, j: {Rows: 6}}
	s.Record(Observation{Shape: "q", Plan: j, Actuals: act, EstimatorVersion: 2})

	stmts := s.Statements()
	if len(stmts) != 1 {
		t.Fatalf("statements = %d", len(stmts))
	}
	st := stmts[0]
	if st.QErrCount != 1 {
		t.Fatalf("qerr count = %d, want 1", st.QErrCount)
	}
	// Node q-errors (pseudocount +1): join 11/7, left 5/4, right 1.
	wantMean := (11.0/7.0 + 5.0/4.0 + 1.0) / 3.0
	if diff := st.QErrSum - wantMean; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("qerr sum = %v, want %v", st.QErrSum, wantMean)
	}
	if diff := st.QErrMax - 11.0/7.0; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("qerr max = %v, want %v", st.QErrMax, 11.0/7.0)
	}

	heat := s.Heat()
	if len(heat) != 3 {
		t.Fatalf("heat entries = %+v, want 3", heat)
	}
	// Sorted by (table, col): t0.a (join), t0.b (filter), t1.c (join).
	if heat[0].TableID != 0 || heat[0].Col != 0 || heat[0].JoinCount != 1 {
		t.Errorf("heat[0] = %+v, want t0.a join", heat[0])
	}
	if heat[1].TableID != 0 || heat[1].Col != 1 || heat[1].FilterCount != 1 {
		t.Errorf("heat[1] = %+v, want t0.b filter", heat[1])
	}
	if heat[2].TableID != 1 || heat[2].Col != 0 || heat[2].JoinCount != 1 {
		t.Errorf("heat[2] = %+v, want t1.c join", heat[2])
	}
	// Filter selectivity: leaf output 3 of 10 rows.
	if diff := heat[1].SelSum - 0.3; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("filter sel = %v, want 0.3", heat[1].SelSum)
	}
	// Join selectivity: 6 / (3*20).
	if diff := heat[0].SelSum - 0.1; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("join sel = %v, want 0.1", heat[0].SelSum)
	}

	// A budget abort contributes counters but no harvest.
	s.Record(Observation{Shape: "q", Plan: j, Actuals: act, BudgetAbort: true})
	st = s.Statements()[0]
	if st.Calls != 2 || st.QErrCount != 1 {
		t.Errorf("abort harvested: %+v", st)
	}
	// So does an observation that carries a plan but no actuals.
	s.Record(Observation{Shape: "q", Plan: j})
	st = s.Statements()[0]
	if st.Calls != 3 || st.QErrCount != 1 {
		t.Errorf("observation without actuals harvested: %+v", st)
	}
}

func TestWindowAdvance(t *testing.T) {
	var pool fakePool
	s, mc := manualStore(Options{Pool: &pool})
	s.Record(Observation{Shape: "a", Work: 10, EstimatorVersion: 1})
	s.Record(Observation{Shape: "a", Work: 20, CacheHit: true})
	pool.stats = storage.PoolStats{Hits: 8, Misses: 2}
	mc.Advance(time.Second) // seals window 0
	s.Record(Observation{Shape: "b", Work: 5, Fallback: true})
	mc.Advance(5 * time.Second) // idle gap: window indexes must jump
	s.Record(Observation{Shape: "b", Work: 7})
	s.Flush()

	wins := s.Windows()
	if len(wins) != 3 {
		t.Fatalf("windows = %d, want 3: %+v", len(wins), wins)
	}
	w0, w1, w2 := wins[0], wins[1], wins[2]
	if w0.Index != 0 || w0.Queries != 2 || w0.TotalWork != 30 || w0.CacheHits != 1 {
		t.Errorf("w0 = %+v", w0)
	}
	if w0.PoolHits != 8 || w0.PoolMisses != 2 {
		t.Errorf("w0 pool delta = %d/%d, want 8/2", w0.PoolHits, w0.PoolMisses)
	}
	if w1.Index != 1 || w1.Queries != 1 || w1.Fallbacks != 1 {
		t.Errorf("w1 = %+v", w1)
	}
	if w2.Index != 6 || w2.Queries != 1 || w2.TotalWork != 7 {
		t.Errorf("w2 = %+v (idle windows must be skipped, not emitted)", w2)
	}
	// Second seal sees no pool movement.
	if w1.PoolHits != 0 || w1.PoolMisses != 0 {
		t.Errorf("w1 pool delta = %d/%d, want 0/0", w1.PoolHits, w1.PoolMisses)
	}
	if !w0.End.Equal(w0.Start.Add(time.Second)) {
		t.Errorf("w0 interval = [%v, %v)", w0.Start, w0.End)
	}
}

type fakePool struct{ stats storage.PoolStats }

func (p *fakePool) Stats() storage.PoolStats { return p.stats }

func TestWindowRingCap(t *testing.T) {
	s, mc := manualStore(Options{MaxWindows: 3})
	for i := 0; i < 5; i++ {
		s.Record(Observation{Shape: "a"})
		mc.Advance(time.Second)
	}
	s.Flush()
	wins := s.Windows()
	if len(wins) != 3 {
		t.Fatalf("ring holds %d, want 3", len(wins))
	}
	if wins[0].Index != 2 || wins[2].Index != 4 {
		t.Errorf("ring kept wrong windows: %+v", wins)
	}
}

// TestRecencyAndTemplateHarvest pins the tuning-loop inputs: LastWindow
// tracks the window of the most recent call, RowsPerCall averages result
// sizes, and the first harvested plan reconstructs a statement template with
// the executed tables, filters, and join conditions.
func TestRecencyAndTemplateHarvest(t *testing.T) {
	cat := twoColCatalog(t)
	s, mc := manualStore(Options{Catalog: cat})

	l := plan.NewScan(0, 0, []expr.Pred{{Col: 1, Op: expr.BETWEEN, Lo: 1, Hi: 3}})
	l.EstRows = 4
	r := plan.NewScan(1, 1, nil)
	r.EstRows = 20
	j := plan.NewJoin(plan.OpHashJoin, l, r, 0, 0)
	j.EstRows = 10
	act := plan.Actuals{l: {Rows: 3}, r: {Rows: 20}, j: {Rows: 6}}

	s.Record(Observation{Shape: "q", Plan: j, Actuals: act, Rows: 6})
	mc.Advance(3100 * time.Millisecond)
	s.Record(Observation{Shape: "q", Plan: j, Actuals: act, Rows: 2})

	st := s.Statements()[0]
	if st.LastWindow != 3 {
		t.Errorf("LastWindow = %d, want 3 (the window of the latest call)", st.LastWindow)
	}
	if got := st.RowsPerCall(); got != 4 {
		t.Errorf("RowsPerCall = %v, want 4", got)
	}
	tmpl := st.Template
	if tmpl == nil {
		t.Fatal("no template reconstructed despite a catalog and a harvested plan")
	}
	if tmpl.NumTables() != 2 || tmpl.Tables[0] != 0 || tmpl.Tables[1] != 1 {
		t.Fatalf("template tables = %v, want [0 1]", tmpl.Tables)
	}
	if len(tmpl.Filters[0]) != 1 || tmpl.Filters[0][0].Op != expr.BETWEEN {
		t.Errorf("template filters = %+v, want t0's BETWEEN preserved", tmpl.Filters)
	}
	if len(tmpl.Joins) != 1 || tmpl.Joins[0].LeftCol != 0 || tmpl.Joins[0].RightCol != 0 {
		t.Errorf("template joins = %+v", tmpl.Joins)
	}
	// The template is captured once and shared read-only across snapshots.
	if again := s.Statements()[0].Template; again != tmpl {
		t.Error("template pointer changed between snapshots")
	}
}
