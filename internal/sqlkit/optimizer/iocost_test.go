package optimizer

import (
	"path/filepath"
	"testing"

	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/storage"
)

type fixedMissRate float64

func (f fixedMissRate) MissRate() float64 { return float64(f) }

func diskCatalog(t *testing.T, nrows int) *catalog.Catalog {
	t.Helper()
	cat := catalog.NewCatalog()
	tb := catalog.NewTable("t", "a", "b")
	for r := 0; r < nrows; r++ {
		if err := tb.AppendRow([]int64{int64(r), int64(r % 11)}); err != nil {
			t.Fatal(err)
		}
	}
	catalog.AnalyzeTable(tb, 16, 64)
	pool := storage.NewPool(storage.PoolOptions{Capacity: 4})
	if err := tb.SpillToDisk(filepath.Join(t.TempDir(), "t.tbl"), pool); err != nil {
		t.Fatal(err)
	}
	cat.MustAdd(tb)
	return cat
}

func TestScanCostIncludesIOForDiskTables(t *testing.T) {
	cat := diskCatalog(t, 2000)
	pages := float64(cat.Table(0).NumDiskPages())
	if pages == 0 {
		t.Fatal("table has no disk pages")
	}
	o := New(cat)
	o.Cost = TrueCostParams()
	q := plan.NewQuery(0)

	// Without pool feedback the optimizer assumes a cold cache.
	p, err := o.Plan(q, HintSet{})
	if err != nil {
		t.Fatal(err)
	}
	wantCold := o.Cost.ScanCost(2000) + 1*pages
	if p.EstCost != wantCold {
		t.Fatalf("cold EstCost = %v, want %v", p.EstCost, wantCold)
	}

	// A warm pool shrinks the I/O term by the observed miss rate.
	o.IO = fixedMissRate(0.25)
	p, err = o.Plan(q, HintSet{})
	if err != nil {
		t.Fatal(err)
	}
	wantWarm := o.Cost.ScanCost(2000) + 1*pages*0.25
	if p.EstCost != wantWarm {
		t.Fatalf("warm EstCost = %v, want %v", p.EstCost, wantWarm)
	}

	// Annotate applies the same term to externally built plans.
	n := plan.NewScan(0, 0, nil)
	if got := o.Annotate(q, n); got != wantWarm {
		t.Fatalf("Annotate = %v, want %v", got, wantWarm)
	}
}

func TestPlanCostActualUsesRecordedMisses(t *testing.T) {
	cat := diskCatalog(t, 500)
	o := New(cat)
	o.Cost = TrueCostParams()
	n := plan.NewScan(0, 0, nil)
	act := plan.Actuals{n: {Rows: 500, PageMisses: 3}}
	want := o.Cost.ScanCost(500) + 3
	if got := o.PlanCostActual(n, act); got != want {
		t.Fatalf("PlanCostActual = %v, want %v", got, want)
	}
}

func TestPoolSatisfiesIOStats(t *testing.T) {
	var io IOStats = storage.NewPool(storage.PoolOptions{Capacity: 2})
	if io.MissRate() != 1 {
		t.Fatalf("cold pool miss rate = %v", io.MissRate())
	}
}
