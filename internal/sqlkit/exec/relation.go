package exec

import "slices"

// rel is the columnar relation operators pass to each other: n rows whose
// columns are the concatenation, left to right, of its segments' columns.
// Operators never copy a row. A scan selects over its table's own columns,
// a join composes row-id vectors, and Result.Rows is built once at the root.
type rel struct {
	n    int
	segs []seg
}

// seg is a run of columns read through one row-id vector: row i of the
// segment is cols[c][sel[i]], or cols[c][i] when sel is nil. The columns
// and vectors are shared and never written once an operator returns them.
type seg struct {
	cols [][]int64
	sel  []int32
}

// col returns column c as the base slice and the row-id vector it is read
// through.
func (r rel) col(c int) ([]int64, []int32) {
	sg := r.segs[0]
	for i := 1; c >= len(sg.cols); i++ {
		c -= len(sg.cols)
		sg = r.segs[i]
	}
	return sg.cols[c], sg.sel
}

// dense returns column c as n contiguous values, gathering only when the
// column is read through a row-id vector.
func (r rel) dense(c int) []int64 {
	data, sel := r.col(c)
	if sel == nil {
		return data[:r.n]
	}
	out := make([]int64, r.n)
	for i, id := range sel {
		out[i] = data[id]
	}
	return out
}

// join returns the relation whose i-th row is left row li[i] followed by
// right row ri[i]. Only the row-id vectors are composed; no column is
// copied.
func join(left, right rel, li, ri []int32) rel {
	segs := make([]seg, 0, len(left.segs)+len(right.segs))
	for _, side := range [...]struct {
		r   rel
		idx []int32
	}{{left, li}, {right, ri}} {
		for _, sg := range side.r.segs {
			sel := side.idx
			if sg.sel != nil {
				sel = make([]int32, len(side.idx))
				for i, x := range side.idx {
					sel[i] = sg.sel[x]
				}
			}
			segs = append(segs, seg{cols: sg.cols, sel: sel})
		}
	}
	return rel{n: len(li), segs: segs}
}

// rows materializes the relation as row slices cut from one slab. Each row
// is capped at its own width, so appending to one never writes into the
// next.
func (r rel) rows() [][]int64 {
	if r.n == 0 {
		return nil
	}
	w := 0
	for _, sg := range r.segs {
		w += len(sg.cols)
	}
	slab := make([]int64, r.n*w)
	out := make([][]int64, r.n)
	for i := range out {
		out[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	off := 0
	for _, sg := range r.segs {
		for _, data := range sg.cols {
			j := off
			if sg.sel == nil {
				for _, v := range data[:r.n] {
					slab[j] = v
					j += w
				}
			} else {
				for _, id := range sg.sel {
					slab[j] = data[id]
					j += w
				}
			}
			off++
		}
	}
	return out
}

// concat joins shard-local vectors in shard order, reusing the only one
// when there is a single shard.
func concat[T any](parts [][]T) []T {
	if len(parts) == 1 {
		return parts[0]
	}
	return slices.Concat(parts...)
}
