package sqlparse

import (
	"testing"

	"ml4db/internal/sqlkit/catalog"
)

// fuzzSeeds are the statements the unit tests parse, accepted and rejected.
var fuzzSeeds = []string{
	"SELECT * FROM users",
	"select age, city from users where age >= 18 and city != 3 and id between 10 and 20;",
	"SELECT users.city, orders.amount FROM users, orders WHERE users.id = orders.user_id AND amount > 100",
	"SELECT * FROM users ORDER BY age DESC, id LIMIT 5",
	"SELECT * FROM users WHERE age > -5",
	"FROM users",
	"SELECT * FROM nope",
	"SELECT bogus FROM users",
	"SELECT id FROM users, orders",
	"SELECT * FROM users WHERE users.id = users.age",
	"SELECT * FROM users WHERE age ~ 3",
	"SELECT * FROM users LIMIT -1",
	"SELECT * FROM users extra",
	"SELECT * FROM users WHERE orders.id = 1",
}

// FuzzParse checks that Parse never panics, and that every statement it
// accepts resolves only to tables and columns the catalog has: each FROM
// table is a catalog table, and every projected, ordered, filtered, or
// joined column is a position in that list and a column of its table.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
		for _, cut := range []int{len(s) / 3, len(s) / 2, len(s) - 1} {
			f.Add(s[:cut]) // truncated
		}
		garbled := []byte(s)
		for i := 3; i < len(garbled); i += 7 {
			garbled[i] ^= 0x20 // case flips and punctuation swaps
		}
		f.Add(string(garbled))
	}
	f.Fuzz(func(t *testing.T, sql string) {
		cat := catalog.NewCatalog()
		cat.MustAdd(catalog.NewTable("users", "id", "age", "city"))
		cat.MustAdd(catalog.NewTable("orders", "id", "user_id", "amount"))
		st, err := Parse(cat, sql)
		if err != nil {
			return
		}
		q := st.Query
		for _, id := range q.Tables {
			if id < 0 || id >= len(cat.Tables) {
				t.Fatalf("%q: FROM table id %d outside the catalog", sql, id)
			}
		}
		checkCol := func(what string, pos, col int) {
			t.Helper()
			if pos < 0 || pos >= len(q.Tables) {
				t.Fatalf("%q: %s table position %d outside FROM list of %d", sql, what, pos, len(q.Tables))
			}
			if n := cat.Table(q.Tables[pos]).NumCols(); col < 0 || col >= n {
				t.Fatalf("%q: %s column %d outside table of %d columns", sql, what, col, n)
			}
		}
		for _, c := range st.Cols {
			checkCol("projected", c.TablePos, c.Col)
		}
		for _, k := range st.OrderBy {
			checkCol("ORDER BY", k.Col.TablePos, k.Col.Col)
		}
		for pos, preds := range q.Filters {
			for _, p := range preds {
				checkCol("filter", pos, p.Col)
			}
		}
		for _, j := range q.Joins {
			checkCol("join left", j.LeftTable, j.LeftCol)
			checkCol("join right", j.RightTable, j.RightCol)
		}
	})
}
