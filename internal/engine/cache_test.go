package engine

import (
	"fmt"
	"testing"

	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

func twoTableQuery(mutate func(q *plan.Query)) *plan.Query {
	q := plan.NewQuery(3, 5)
	q.AddFilter(0, expr.Pred{Col: 1, Op: expr.GE, Lo: 10})
	q.AddFilter(0, expr.Pred{Col: 2, Op: expr.EQ, Lo: 7})
	q.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: 0, RightTable: 1, RightCol: 0})
	if mutate != nil {
		mutate(q)
	}
	return q
}

func TestCacheKeyNormalization(t *testing.T) {
	base := cacheKey(queryShape(twoTableQuery(nil), "default"), 1, 2, 0, 1)

	// Filter order is incidental: reversed filters share the key.
	reordered := plan.NewQuery(3, 5)
	reordered.AddFilter(0, expr.Pred{Col: 2, Op: expr.EQ, Lo: 7})
	reordered.AddFilter(0, expr.Pred{Col: 1, Op: expr.GE, Lo: 10})
	reordered.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: 0, RightTable: 1, RightCol: 0})
	if got := cacheKey(queryShape(reordered, "default"), 1, 2, 0, 1); got != base {
		t.Errorf("filter order changed the key:\n%s\nvs\n%s", got, base)
	}

	// Join orientation is incidental: the flipped condition shares the key.
	flipped := twoTableQuery(func(q *plan.Query) {
		q.Joins = []expr.JoinCond{{LeftTable: 1, LeftCol: 0, RightTable: 0, RightCol: 0}}
	})
	if got := cacheKey(queryShape(flipped, "default"), 1, 2, 0, 1); got != base {
		t.Errorf("join orientation changed the key:\n%s\nvs\n%s", got, base)
	}

	// Everything that changes the planning problem changes the key.
	distinct := map[string]string{
		"literal":    cacheKey(queryShape(twoTableQuery(func(q *plan.Query) { q.Filters[0][0].Lo = 11 }), "default"), 1, 2, 0, 1),
		"operator":   cacheKey(queryShape(twoTableQuery(func(q *plan.Query) { q.Filters[0][0].Op = expr.LE }), "default"), 1, 2, 0, 1),
		"table":      cacheKey(queryShape(twoTableQuery(func(q *plan.Query) { q.Tables[1] = 6 }), "default"), 1, 2, 0, 1),
		"join col":   cacheKey(queryShape(twoTableQuery(func(q *plan.Query) { q.Joins[0].RightCol = 1 }), "default"), 1, 2, 0, 1),
		"hint":       cacheKey(queryShape(twoTableQuery(nil), "hash-only"), 1, 2, 0, 1),
		"stats ver":  cacheKey(queryShape(twoTableQuery(nil), "default"), 2, 2, 0, 1),
		"est ver":    cacheKey(queryShape(twoTableQuery(nil), "default"), 1, 3, 0, 1),
		"design ver": cacheKey(queryShape(twoTableQuery(nil), "default"), 1, 2, 1, 1),
		"par degree": cacheKey(queryShape(twoTableQuery(nil), "default"), 1, 2, 0, 4),
	}
	seen := map[string]string{base: "base"}
	for what, key := range distinct {
		if prev, dup := seen[key]; dup {
			t.Errorf("%s collides with %s: %s", what, prev, key)
		}
		seen[key] = what
	}
}

func TestCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := newPlanCache(2, reg)
	mk := func(i int) *plan.Node { return plan.NewScan(i, i, nil) }
	c.Put("a", mk(1))
	c.Put("b", mk(2))
	// Touch "a" so "b" is the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", mk(3))
	if _, ok := c.Get("b"); ok {
		t.Error("LRU entry b survived past capacity")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used entry a was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("newest entry c was evicted")
	}
	if got := reg.Counter("engine.plancache.evictions").Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

// TestCacheServesStoredPlan pins the no-copy contract: Put keeps the
// planner's tree and every Get serves that same pointer. Sharing is sound
// because plans are read-only once planned.
func TestCacheServesStoredPlan(t *testing.T) {
	c := newPlanCache(4, nil)
	orig := plan.NewJoin(plan.OpHashJoin, plan.NewScan(0, 0, nil), plan.NewScan(1, 1, nil), 0, 0)
	c.Put("k", orig)
	got1, ok1 := c.Get("k")
	got2, ok2 := c.Get("k")
	if !ok1 || !ok2 {
		t.Fatal("stored plan missed")
	}
	if got1 != orig || got2 != orig {
		t.Errorf("Get served %p and %p, want the stored tree %p", got1, got2, orig)
	}
}

func TestCacheInvalidate(t *testing.T) {
	reg := obs.NewRegistry()
	c := newPlanCache(8, reg)
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), plan.NewScan(i, i, nil))
	}
	if n := c.Invalidate(); n != 5 {
		t.Errorf("Invalidate dropped %d, want 5", n)
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after invalidate, want 0", c.Len())
	}
	if _, ok := c.Get("k0"); ok {
		t.Error("entry survived invalidation")
	}
	if got := reg.Counter("engine.plancache.invalidations").Value(); got != 5 {
		t.Errorf("invalidations = %d, want 5", got)
	}
	// Cache keeps working after invalidation.
	c.Put("fresh", plan.NewScan(0, 0, nil))
	if _, ok := c.Get("fresh"); !ok {
		t.Error("cache unusable after invalidation")
	}
}
