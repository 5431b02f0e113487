package exec

import (
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

func indexedSchema(t *testing.T) (*datagen.StarSchema, int) {
	t.Helper()
	rng := mlmath.NewRNG(1)
	sch, err := datagen.NewStarSchema(rng, 5000, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	fact := sch.Cat.Table(sch.FactID)
	col := sch.AttrCols[0]
	fact.AddIndex(catalog.BuildSecondaryIndex(fact, col))
	return sch, col
}

func TestIndexScanMatchesSeqScan(t *testing.T) {
	sch, col := indexedSchema(t)
	e := New(sch.Cat)
	filters := []expr.Pred{
		{Col: col, Op: expr.BETWEEN, Lo: 400, Hi: 500},
		{Col: sch.AttrCols[2], Op: expr.LE, Lo: 300},
	}
	seq := plan.NewScan(0, sch.FactID, filters)
	idx := plan.NewIndexScan(0, sch.FactID, col, filters)
	rs, err := e.Execute(seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ri, err := e.Execute(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != len(ri.Rows) {
		t.Fatalf("index scan %d rows, seq scan %d", len(ri.Rows), len(rs.Rows))
	}
	if ri.Work >= rs.Work {
		t.Errorf("index scan work %d not below seq scan %d on selective predicate", ri.Work, rs.Work)
	}
	if ri.Counters.IndexFetch == 0 || ri.Counters.IndexProbe == 0 {
		t.Errorf("index counters not charged: %+v", ri.Counters)
	}
	if a := ri.Actuals[idx]; a.Fetched < a.Rows {
		t.Errorf("fetched %v < output %v", a.Fetched, a.Rows)
	}
}

func TestIndexScanRequiresIndexAndInterval(t *testing.T) {
	sch, col := indexedSchema(t)
	e := New(sch.Cat)
	// Missing index.
	bad := plan.NewIndexScan(0, sch.FactID, sch.AttrCols[1], []expr.Pred{{Col: sch.AttrCols[1], Op: expr.LE, Lo: 10}})
	if _, err := e.Execute(bad, Options{}); err == nil {
		t.Error("expected error for missing index")
	}
	// No interval predicate on the indexed column.
	noPred := plan.NewIndexScan(0, sch.FactID, col, []expr.Pred{{Col: sch.AttrCols[2], Op: expr.LE, Lo: 10}})
	if _, err := e.Execute(noPred, Options{}); err == nil {
		t.Error("expected error for missing interval predicate")
	}
}

func TestIndexScanIntersectsMultiplePredicates(t *testing.T) {
	sch, col := indexedSchema(t)
	e := New(sch.Cat)
	filters := []expr.Pred{
		{Col: col, Op: expr.GE, Lo: 400},
		{Col: col, Op: expr.LE, Lo: 500},
	}
	seq := plan.NewScan(0, sch.FactID, filters)
	idx := plan.NewIndexScan(0, sch.FactID, col, filters)
	rs, err := e.Execute(seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ri, err := e.Execute(idx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != len(ri.Rows) {
		t.Fatalf("row mismatch: %d vs %d", len(ri.Rows), len(rs.Rows))
	}
}

func TestCountersVecLength(t *testing.T) {
	var c Counters
	if len(c.Vec()) != 11 {
		t.Errorf("counters vec length %d, want 11", len(c.Vec()))
	}
	c.IndexProbe, c.IndexFetch = 3, 4
	if c.Total() != 7 {
		t.Errorf("Total = %d, want 7", c.Total())
	}
}
