package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"ml4db/internal/sqlkit/datagen"
)

// database holds the generated column arrays the oracle evaluates over. It
// keeps its own references, so it stays valid after the fact table spills.
type database struct {
	fact [][]int64   // fact[col][row]; fact column d is the foreign key into dim d
	dims [][][]int64 // dims[d][col][row]; dim id == row index
	// byValue[col] lists fact rows in ascending order of column col, for
	// the fact columns queries filter on, so a selective filter reads only
	// the rows it selects.
	byValue map[int][]int32
}

func captureDatabase(ss *datagen.StarSchema) *database {
	db := &database{fact: ss.Cat.Table(ss.FactID).Data}
	for _, id := range ss.DimIDs {
		db.dims = append(db.dims, ss.Cat.Table(id).Data)
	}
	return db
}

// colReader reads one column at a fact row, looking dimension columns up
// through the fact table's foreign key.
type colReader struct{ vals, via []int64 }

func (r colReader) at(row int) int64 {
	if r.via == nil {
		return r.vals[row]
	}
	return r.vals[r.via[row]]
}

func (db *database) reader(c colRef) colReader {
	if c.tab == factTab {
		return colReader{vals: db.fact[c.col]}
	}
	return colReader{vals: db.dims[c.tab][c.col], via: db.fact[c.tab]}
}

// answer evaluates s directly over the column arrays: filter, join through
// the FK index, then group/sum or project, sort and limit. It computes the
// expected result the engine's output is checked against.
func (db *database) answer(s *spec) *expect {
	// Fact filters first: they read one array, so most rows stop there.
	type rf struct {
		r      colReader
		lo, hi int64
	}
	var filters []rf
	for pass := 0; pass < 2; pass++ {
		for _, f := range s.filters {
			if (f.c.tab == factTab) == (pass == 0) {
				filters = append(filters, rf{db.reader(f.c), f.lo, f.hi})
			}
		}
	}
	var rows [][]int64
	groups := map[int64][]int64{}
	var proj []colReader
	for _, c := range s.proj {
		proj = append(proj, db.reader(c))
	}
	var group colReader
	var sums []colReader
	if s.agg != nil {
		group = db.reader(s.agg.group)
		for _, c := range s.agg.sums {
			sums = append(sums, db.reader(c))
		}
	}
	candidates := db.candidates(s.filters)
rows:
	for i := 0; i < len(candidates); i++ {
		r := int(candidates[i])
		for _, f := range filters {
			if v := f.r.at(r); v < f.lo || v > f.hi {
				continue rows
			}
		}
		if s.agg != nil {
			g := group.at(r)
			acc := groups[g]
			if acc == nil {
				acc = make([]int64, 1+len(sums))
				groups[g] = acc
			}
			acc[0]++
			for i, c := range sums {
				acc[1+i] += c.at(r)
			}
			continue
		}
		row := make([]int64, len(proj))
		for i, c := range proj {
			row[i] = c.at(r)
		}
		rows = append(rows, row)
	}
	if s.agg != nil {
		keys := make([]int64, 0, len(groups))
		for g := range groups {
			keys = append(keys, g)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, g := range keys {
			rows = append(rows, append([]int64{g}, groups[g]...))
		}
		return &expect{n: len(rows), ordered: true, hash: seqHash(rows)}
	}
	if len(s.order) == 0 {
		if s.limit >= 0 {
			//ml4db:allow nakedpanic "spec construction bug: the generators never emit a LIMIT without ORDER BY"
			panic("qpbench: a LIMIT without ORDER BY leaves the result open; specs must not use one")
		}
		return &expect{n: len(rows), hash: sumHash(rows)}
	}
	return orderedAnswer(s, rows)
}

// candidates returns the fact rows that satisfy the first filter on an
// indexed fact column, or every row when there is none.
func (db *database) candidates(filters []filter) []int32 {
	for _, f := range filters {
		rows := db.byValue[f.c.col]
		if f.c.tab != factTab || rows == nil {
			continue
		}
		col := db.fact[f.c.col]
		lo := sort.Search(len(rows), func(i int) bool { return col[rows[i]] >= f.lo })
		hi := sort.Search(len(rows), func(i int) bool { return col[rows[i]] > f.hi })
		return rows[lo:max(lo, hi)]
	}
	all := make([]int32, len(db.fact[0]))
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

// index builds byValue for every fact column the queries filter on.
func (db *database) index(qs []*query) {
	db.byValue = map[int][]int32{}
	for _, q := range qs {
		for _, f := range q.spec.filters {
			if f.c.tab != factTab || db.byValue[f.c.col] != nil {
				continue
			}
			col := db.fact[f.c.col]
			rows := make([]int32, len(col))
			for i := range rows {
				rows[i] = int32(i)
			}
			sort.Slice(rows, func(i, j int) bool { return col[rows[i]] < col[rows[j]] })
			db.byValue[f.c.col] = rows
		}
	}
}

// orderedAnswer builds the expectation of an ORDER BY ... LIMIT query: the
// exact key sequence, the multiset of rows ahead of the last key, and the
// candidates for the rows sharing the last key, among which the SQL leaves
// the choice open.
func orderedAnswer(s *spec, rows [][]int64) *expect {
	e := &expect{}
	for _, k := range s.order {
		idx := -1
		for i, c := range s.proj {
			if c == k.c {
				idx = i
			}
		}
		if idx < 0 {
			//ml4db:allow nakedpanic "spec construction bug: the generators project every ORDER BY key"
			panic("qpbench: ORDER BY key must be projected")
		}
		e.keyIdx = append(e.keyIdx, idx)
	}
	less := func(a, b []int64) bool {
		for n, i := range e.keyIdx {
			if a[i] != b[i] {
				return (a[i] < b[i]) != s.order[n].desc
			}
		}
		return false
	}
	sort.SliceStable(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
	e.n = len(rows)
	if s.limit >= 0 && s.limit < e.n {
		e.n = s.limit
	}
	if e.n == 0 {
		return e
	}
	for _, r := range rows[:e.n] {
		e.keys = append(e.keys, e.key(r))
	}
	last := e.keys[e.n-1]
	for i, r := range rows {
		if equal(e.key(r), last) {
			e.tie = append(e.tie, rowHash(r))
		} else if i < e.n {
			e.hash += rowHash(r)
		}
	}
	sort.Slice(e.tie, func(i, j int) bool { return e.tie[i] < e.tie[j] })
	return e
}

// expect is the oracle's answer to one query, in the form the check needs.
type expect struct {
	n       int
	ordered bool      // the whole row sequence is fixed (aggregates: ascending group)
	hash    uint64    // ordered: seqHash; otherwise the sum of row hashes (ahead of the last key with ORDER BY)
	keyIdx  []int     // ORDER BY key positions in the output row
	keys    [][]int64 // expected key tuple of each output row
	tie     []uint64  // sorted hashes of every row sharing the last key
}

func (e *expect) key(r []int64) []int64 {
	k := make([]int64, len(e.keyIdx))
	for i, idx := range e.keyIdx {
		k[i] = r[idx]
	}
	return k
}

// check compares the engine's rows with the expectation, ignoring order
// wherever the SQL leaves it open.
func (e *expect) check(rows [][]int64) error {
	if len(rows) != e.n {
		return fmt.Errorf("got %d rows, want %d", len(rows), e.n)
	}
	switch {
	case e.ordered:
		if seqHash(rows) != e.hash {
			return fmt.Errorf("row sequence differs from the reference")
		}
	case e.keys != nil:
		last := e.keys[e.n-1]
		var sum uint64
		var tie []uint64
		for i, r := range rows {
			for j, idx := range e.keyIdx {
				if r[idx] != e.keys[i][j] {
					return fmt.Errorf("row %d: ORDER BY key %v, want %v", i, e.key(r), e.keys[i])
				}
			}
			if equal(e.keys[i], last) {
				tie = append(tie, rowHash(r))
			} else {
				sum += rowHash(r)
			}
		}
		if sum != e.hash {
			return fmt.Errorf("rows ahead of the last ORDER BY key differ from the reference")
		}
		sort.Slice(tie, func(i, j int) bool { return tie[i] < tie[j] })
		j := 0
		for _, h := range tie {
			for j < len(e.tie) && e.tie[j] < h {
				j++
			}
			if j == len(e.tie) || e.tie[j] != h {
				return fmt.Errorf("a row with the last ORDER BY key is not in the reference result")
			}
			j++
		}
	default:
		if sumHash(rows) != e.hash {
			return fmt.Errorf("row multiset differs from the reference")
		}
	}
	return nil
}

func equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func rowHash(r []int64) uint64 {
	h := uint64(len(r))
	for _, v := range r {
		h = mix(h ^ uint64(v))
	}
	return h
}

// seqHash fingerprints a row sequence, order included.
func seqHash(rows [][]int64) uint64 {
	h := uint64(len(rows))
	for _, r := range rows {
		h = mix(h + rowHash(r))
	}
	return h
}

// sumHash fingerprints a row multiset, order ignored.
func sumHash(rows [][]int64) uint64 {
	var h uint64
	for _, r := range rows {
		h += rowHash(r)
	}
	return h
}

// answerAll fills in the expectation of every query without one, spread
// over one goroutine per CPU.
func answerAll(db *database, sets ...[]*query) {
	var todo []*query
	seen := map[*query]bool{}
	for _, set := range sets {
		for _, q := range set {
			if q.exp == nil && !seen[q] {
				seen[q] = true
				todo = append(todo, q)
			}
		}
	}
	db.index(todo)
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(todo); i += workers {
				todo[i].exp = db.answer(&todo[i].spec)
			}
		}(w)
	}
	wg.Wait()
}
