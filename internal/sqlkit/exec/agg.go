package exec

import (
	"sort"

	"ml4db/internal/sqlkit/plan"
)

// aggTable keeps groups in flat slots, column-major in the output layout:
// cols[0][s] is slot s's group key, cols[1][s] its COUNT(*), and cols[2+j][s]
// its j-th running sum.
type aggTable struct {
	slots map[int64]int32
	cols  [][]int64
}

// slot returns key's slot, opening an empty one on first sight.
func (a *aggTable) slot(key int64) int {
	s, ok := a.slots[key]
	if !ok {
		s = int32(len(a.cols[0]))
		a.slots[key] = s
		a.cols[0] = append(a.cols[0], key)
		for c := 1; c < len(a.cols); c++ {
			a.cols[c] = append(a.cols[c], 0)
		}
	}
	return int(s)
}

// hashAgg groups the single child's rows by GroupCol and emits one row per
// group — [group, COUNT(*), SUM(col)...] — in ascending group order. Each
// input row charges AggInput; each emitted group charges OutputTuple and one
// materialized row. The accumulation is the partitionable kernel: shards
// fill private tables over contiguous input ranges, which merge
// order-insensitively (counts and sums commute), so the sorted emission is
// the same for every partition count.
func (s *execState) hashAgg(n *plan.Node) (rel, error) {
	in, err := s.run(n.Children[0])
	if err != nil {
		return rel{}, err
	}
	groups := in.dense(n.GroupCol)
	vals := make([][]int64, len(n.SumCols))
	for i, c := range n.SumCols {
		vals[i] = in.dense(c)
	}
	parts := shards(n)
	tables, ends := make([]*aggTable, parts), make([]int, parts)
	lim := s.limits()
	err = s.exchange(parts, in.n, func(k, lo, hi int) {
		t := &aggTable{slots: make(map[int64]int32), cols: make([][]int64, 2+len(vals))}
		end := hi
		for r := lo; r < hi; r++ {
			g := t.slot(groups[r])
			t.cols[1][g]++
			for i, v := range vals {
				t.cols[2+i][g] += v[r]
			}
			if lim.over(r-lo+1, 0) {
				end = r + 1
				break
			}
		}
		tables[k], ends[k] = t, end
	}, func(k, lo int) (int, error) {
		return s.chargeRun(&s.ctr.AggInput, nil, run{lo: lo, hi: ends[k]})
	})
	if err != nil {
		return rel{}, err
	}
	t := tables[0]
	for _, part := range tables[1:] {
		for i, key := range part.cols[0] {
			g := t.slot(key)
			for c := 1; c < len(t.cols); c++ {
				t.cols[c][g] += part.cols[c][i]
			}
		}
	}
	order := make([]int32, len(t.cols[0]))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return t.cols[0][order[i]] < t.cols[0][order[j]] })
	if _, err := s.chargeRun(&s.ctr.OutputTuple, nil, run{hi: len(order), dense: true}); err != nil {
		return rel{}, err
	}
	return rel{n: len(order), segs: []seg{{cols: t.cols, sel: order}}}, nil
}
