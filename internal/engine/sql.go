package engine

import (
	"fmt"
	"sort"

	"ml4db/internal/sqlkit/sqlparse"
)

// RowsResult is the outcome of a SQL query: the projected, ordered, limited
// output rows with their column names, plus the underlying engine result
// (plan, counters, cache/fallback flags) for callers that want it.
type RowsResult struct {
	Columns []string
	Rows    [][]int64
	Exec    *Result
}

// Query parses and runs one SELECT statement (see sqlparse for the
// grammar). The SPJ core goes through the normal planning/execution path —
// plan cache, budgets, estimator fallback, workload recording included —
// and the presentation clauses (projection, ORDER BY, LIMIT) are applied to
// the executed rows. ORDER BY sorts are stable over the executor's
// deterministic output order, so results replay byte-identically; with a
// LIMIT below the row count only the top rows are kept and sorted.
func (s *Session) Query(sql string) (*RowsResult, error) {
	st, err := sqlparse.Parse(s.eng.cat, sql)
	if err != nil {
		return nil, err
	}
	res, err := s.Run(st.Query)
	if err != nil {
		return nil, err
	}

	// The optimizer reorders join leaves, so the executor's output columns
	// are laid out in plan-leaf order, not FROM order — and a view rewrite
	// may have folded several FROM tables into one wider view table. Recover
	// each executed position's base offset from the plan, then route each
	// FROM-relative column through the rewrite's position map.
	exq := res.Query
	leaves := res.Plan.Tables()
	base := make(map[int]int, len(leaves))
	off := 0
	for _, pos := range leaves {
		base[pos] = off
		off += s.eng.cat.Table(exq.Tables[pos]).NumCols()
	}
	colOffset := func(c sqlparse.ColRef) (int, error) {
		pos, shift := c.TablePos, 0
		if res.PosMap != nil {
			pm := res.PosMap[c.TablePos]
			pos, shift = pm.Pos, pm.ColShift
		}
		b, ok := base[pos]
		if !ok {
			return 0, fmt.Errorf("engine: query table position %d missing from executed plan", c.TablePos)
		}
		return b + shift + c.Col, nil
	}

	rows := res.Rows
	if len(st.OrderBy) > 0 {
		keys := make([]int, len(st.OrderBy))
		for i, k := range st.OrderBy {
			if keys[i], err = colOffset(k.Col); err != nil {
				return nil, err
			}
		}
		cmp := func(a, b []int64) int {
			for n, off := range keys {
				x, y := a[off], b[off]
				if x == y {
					continue
				}
				if (x < y) != st.OrderBy[n].Desc {
					return -1
				}
				return 1
			}
			return 0
		}
		if st.Limit >= 0 && st.Limit < len(rows) {
			rows = topK(rows, st.Limit, cmp)
		} else {
			sorted := make([][]int64, len(rows))
			copy(sorted, rows)
			sort.SliceStable(sorted, func(i, j int) bool { return cmp(sorted[i], sorted[j]) < 0 })
			rows = sorted
		}
	}
	if st.Limit >= 0 && len(rows) > st.Limit {
		rows = rows[:st.Limit]
	}

	// SELECT * projects every column in FROM order; an explicit list
	// projects in list order.
	cols := st.Cols
	if cols == nil {
		for pos := range st.Query.Tables {
			t := s.eng.cat.Table(st.Query.Tables[pos])
			for c := 0; c < t.NumCols(); c++ {
				cols = append(cols, sqlparse.ColRef{TablePos: pos, Col: c})
			}
		}
	}
	offsets := make([]int, len(cols))
	names := make([]string, len(cols))
	for i, c := range cols {
		if offsets[i], err = colOffset(c); err != nil {
			return nil, err
		}
		names[i] = s.eng.cat.Table(st.Query.Tables[c.TablePos]).Columns[c.Col].Name
	}
	out := make([][]int64, len(rows))
	for i, r := range rows {
		row := make([]int64, len(offsets))
		for j, o := range offsets {
			row[j] = r[o]
		}
		out[i] = row
	}
	return &RowsResult{Columns: names, Rows: out, Exec: res}, nil
}

// topK returns the first k rows in cmp order, ties kept in input order: the
// same rows, in the same order, as a stable sort truncated to k. It holds k
// row positions in a max-heap whose root is the kept row that sorts last.
func topK(rows [][]int64, k int, cmp func(a, b []int64) int) [][]int64 {
	if k == 0 {
		return rows[:0]
	}
	// before reports whether position i sorts ahead of position j.
	before := func(i, j int) bool {
		c := cmp(rows[i], rows[j])
		return c < 0 || (c == 0 && i < j)
	}
	h := make([]int, 0, k)
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && before(h[c], h[c+1]) {
				c++
			}
			if !before(h[i], h[c]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := range rows {
		if len(h) < k {
			if h = append(h, i); len(h) == k {
				for j := k/2 - 1; j >= 0; j-- {
					down(j)
				}
			}
		} else if before(i, h[0]) {
			h[0] = i
			down(0)
		}
	}
	sort.Slice(h, func(a, b int) bool { return before(h[a], h[b]) })
	out := make([][]int64, k)
	for i, p := range h {
		out[i] = rows[p]
	}
	return out
}
