package engine_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"ml4db/internal/engine"
	"ml4db/internal/sqlkit/catalog"
)

// TestOrderByLimitMatchesStableSort checks ORDER BY ... LIMIT through
// Session.Query against a reference that stable-sorts the executor's output
// and truncates it: heavy key ties, ascending and descending keys mixed, and
// limits of 0, 1, n-1, n and n+5.
func TestOrderByLimitMatchesStableSort(t *testing.T) {
	cat := catalog.NewCatalog()
	fact := catalog.NewTable("fact", "id", "dim", "a", "b")
	for r := 0; r < 90; r++ {
		if err := fact.AppendRow([]int64{int64(r), int64(r % 7), int64(r*13%4) - 1, int64(r % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	dim := catalog.NewTable("dim", "id", "w")
	for r := 0; r < 7; r++ {
		if err := dim.AppendRow([]int64{int64(r), int64(r % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	cat.MustAdd(fact)
	cat.MustAdd(dim)
	sess := engine.New(cat, engine.Options{}).Session()

	const from = "SELECT fact.id, a, b, w FROM fact, dim WHERE fact.dim = dim.id AND a >= 0"
	base, err := sess.Query(from)
	if err != nil {
		t.Fatal(err)
	}
	n := len(base.Rows)
	if n < 20 {
		t.Fatalf("fixture too small: %d rows", n)
	}
	for _, order := range []struct {
		sql  string
		cols []int
		desc []bool
	}{
		{"a", []int{1}, []bool{false}},
		{"a DESC", []int{1}, []bool{true}},
		{"w DESC, a, b DESC", []int{3, 1, 2}, []bool{true, false, true}},
		{"b, w", []int{2, 3}, []bool{false, false}},
	} {
		want := append([][]int64(nil), base.Rows...)
		sort.SliceStable(want, func(i, j int) bool {
			for k, c := range order.cols {
				if x, y := want[i][c], want[j][c]; x != y {
					return (x < y) != order.desc[k]
				}
			}
			return false
		})
		for _, limit := range []int{0, 1, n - 1, n, n + 5} {
			sql := fmt.Sprintf("%s ORDER BY %s LIMIT %d", from, order.sql, limit)
			got, err := sess.Query(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			w := want[:min(limit, n)]
			if !reflect.DeepEqual(got.Rows, w) {
				t.Fatalf("%s:\n got  %v\n want %v", sql, got.Rows, w)
			}
		}
	}
}
