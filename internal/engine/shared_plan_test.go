package engine_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"ml4db/internal/engine"
	"ml4db/internal/mlmath"
	"ml4db/internal/querystore"
)

// TestConcurrentSessionsShareCachedPlan runs one cached statement from eight
// goroutines at once (run it under -race). Every session must be served the
// same *plan.Node — the cache hands out its stored tree, not a copy — and
// get rows, work, counters, and per-node actuals bit-identical to a
// reference run, while the querystore harvests the shared tree concurrently.
func TestConcurrentSessionsShareCachedPlan(t *testing.T) {
	sch := chainCatalog(t, 23)
	pool := mlmath.NewPool(2)
	defer pool.Close()
	store := querystore.New(querystore.Options{Clock: &mlmath.ManualClock{T: time.Unix(0, 0)}, Catalog: sch.Cat})
	eng := engine.New(sch.Cat, engine.Options{Pool: pool, Store: store})
	q := chainQuery(sch)

	ref, err := eng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Actuals) != ref.Plan.NumNodes() {
		t.Fatalf("reference run recorded %d actuals for %d nodes", len(ref.Actuals), ref.Plan.NumNodes())
	}

	const sessions = 8
	results := make([]*engine.Result, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := eng.Session()
			sess.Analyze = g%2 == 1
			results[g], errs[g] = sess.Run(q)
		}(g)
	}
	wg.Wait()

	for g, res := range results {
		if errs[g] != nil {
			t.Fatalf("session %d: %v", g, errs[g])
		}
		if !res.CacheHit {
			t.Errorf("session %d missed the plan cache", g)
		}
		if res.Plan != ref.Plan {
			t.Errorf("session %d ran plan %p, want the shared cached tree %p", g, res.Plan, ref.Plan)
		}
		if !reflect.DeepEqual(res.Rows, ref.Rows) {
			t.Errorf("session %d: rows differ from the reference run", g)
		}
		if res.Work != ref.Work || res.Counters != ref.Counters {
			t.Errorf("session %d: work %d counters %+v, want %d %+v", g, res.Work, res.Counters, ref.Work, ref.Counters)
		}
		if !reflect.DeepEqual(res.Actuals, ref.Actuals) {
			t.Errorf("session %d: actuals %v, want %v", g, res.Actuals, ref.Actuals)
		}
	}
	if st := store.Statements(); len(st) != 1 || st[0].Calls != sessions+1 || st[0].QErrCount != sessions+1 {
		t.Errorf("store statements = %+v, want one statement harvested from every call", st)
	}
}
