package querystore_test

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"ml4db/internal/engine"
	"ml4db/internal/mlmath"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
)

var updateHarvest = flag.Bool("update", false, "rewrite the harvest golden file")

const harvestGolden = "testdata/harvest.golden"

// TestHarvestGolden pins what the store harvests from executed plans — the
// per-statement q-error mean and max and the column heat samples — over a
// fixed engine workload: a three-table chain join under every standard hint
// set, two-table joins, a grouped aggregate, cache-hit replays, a
// partitioned replay through a worker pool, and a budget abort. Floats are
// rendered exactly, so any change to where actuals come from or how they are
// read shows up as a diff. Regenerate with -update.
func TestHarvestGolden(t *testing.T) {
	sch, err := datagen.NewChainSchema(mlmath.NewRNG(11), []int{400, 200, 100})
	if err != nil {
		t.Fatal(err)
	}
	store := querystore.New(querystore.Options{
		Clock:   &mlmath.ManualClock{T: time.Unix(0, 0)},
		Catalog: sch.Cat,
	})
	pool := mlmath.NewPool(3)
	defer pool.Close()
	eng := engine.New(sch.Cat, engine.Options{Store: store, Pool: pool})
	eng.SetParallelism(1)

	chain := func(lo int64) *plan.Query {
		q := plan.NewQuery(sch.TableIDs...)
		q.AddFilter(0, expr.Pred{Col: 2, Op: expr.GE, Lo: lo})
		q.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: 1, RightTable: 1, RightCol: 0})
		q.AddJoin(expr.JoinCond{LeftTable: 1, LeftCol: 1, RightTable: 2, RightCol: 0})
		return q
	}
	pair := func(lo, hi int64) *plan.Query {
		q := plan.NewQuery(sch.TableIDs[1], sch.TableIDs[2])
		q.AddFilter(0, expr.Pred{Col: 2, Op: expr.BETWEEN, Lo: lo, Hi: hi})
		q.AddFilter(1, expr.Pred{Col: 2, Op: expr.LT, Lo: 600})
		q.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: 1, RightTable: 1, RightCol: 0})
		return q
	}
	agg := chain(300)
	agg.SetAgg(2, 2, plan.AggCol{Table: 0, Col: 2})

	run := func(sess *engine.Session, q *plan.Query) {
		t.Helper()
		if _, err := sess.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range optimizer.StandardHintSets() {
		sess := eng.Session()
		sess.Hint = h
		run(sess, chain(450))
		run(sess, chain(450)) // cache hit
		run(sess, pair(200, 700))
	}
	sess := eng.Session()
	run(sess, chain(800))
	run(sess, pair(0, 300))
	run(sess, agg)
	run(sess, agg)

	eng.SetParallelism(3)
	run(sess, chain(450))
	run(sess, agg)

	tiny := eng.Session()
	tiny.Budget = &exec.Budget{MaxWork: 50}
	if _, err := tiny.Run(chain(100)); !errors.Is(err, exec.ErrWorkBudgetExceeded) {
		t.Fatalf("tiny budget err = %v, want a budget abort", err)
	}

	var b strings.Builder
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, st := range store.Statements() {
		fmt.Fprintf(&b, "stmt %d calls=%d qerr_n=%d qerr_mean=%s qerr_max=%s %s\n",
			st.ID, st.Calls, st.QErrCount, g(st.QErrMean()), g(st.QErrMax), st.Shape)
	}
	for _, h := range store.Heat() {
		fmt.Fprintf(&b, "heat t%d.c%d filter=%d join=%d sel_n=%d sel_sum=%s\n",
			h.TableID, h.Col, h.FilterCount, h.JoinCount, h.SelCount, g(h.SelSum))
	}
	got := b.String()

	if *updateHarvest {
		if err := os.WriteFile(harvestGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(harvestGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("harvest differs from %s:\n--- got\n%s--- want\n%s", harvestGolden, got, want)
	}
}
