package exec

import (
	"sort"

	"ml4db/internal/mlmath"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
)

// This file holds the exchange machinery and the partitionable operators.
// SeqScan, the HashJoin probe, NLJoin and HashAgg are each one kernel over
// a contiguous shard of their input (mlmath.ShardRange); serial is the
// one-shard case run inline, and concatenating shard outputs in shard order
// reproduces its row order exactly. Kernels never touch the budget or the
// counters: each reports the input positions it processed and, in order,
// the positions that emitted tuples, and the coordinator charges the
// shards in shard order with chargeRun, which finds in closed form the
// exact charge where a check after every tuple would have tripped. The pool
// only decides which worker runs which shard, so rows, Counters, typed
// budget aborts and EXPLAIN trees are identical for every worker count.
//
// A kernel stops early once its own charges alone exceed the budget left
// when the operator started: earlier shards only add to the totals, so the
// abort lands at or before that point. For a single shard the stop is
// exact, which keeps a one-shard disk scan from fetching a page the
// tuple-at-a-time scan would not have fetched. See docs/EXECUTOR.md.

// block is how many input positions a scan kernel filters between budget
// checks.
const block = 1024

// run is one contiguous piece of a kernel's work, in serial charge order:
// positions lo..hi-1 each charge one unit, and the k-th emitted tuple
// follows position at[k] (nondecreasing). dense means every position
// emitted exactly one tuple, at[k] = lo+k.
type run struct {
	lo, hi int
	at     []int32
	dense  bool
}

func (r run) emitted() int {
	if r.dense {
		return r.hi - r.lo
	}
	return len(r.at)
}

func (r run) pos(k int) int {
	if r.dense {
		return r.lo + k
	}
	return int(r.at[k])
}

// before counts the tuples emitted at positions before p.
func (r run) before(p int) int {
	if r.dense {
		return p - r.lo
	}
	return sort.Search(len(r.at), func(k int) bool { return int(r.at[k]) >= p })
}

// chargeRun applies r's charges as a loop checking the budget after every
// charge would: each position charges one unit to *pos, then each of its
// emitted tuples charges one unit to *out, when out is not nil, and one
// materialized row. It returns how many tuples were admitted. The charge
// that trips is found in closed form, as an (offset, step) pair: step 0 is
// a position's own charge, 2k+1 and 2k+2 are tuple k's work and row
// charges.
func (s *execState) chargeRun(pos, out *int64, r run) (admitted int, err error) {
	outUnit := int64(0)
	if out != nil {
		outUnit = 1
	}
	n, m := r.hi-r.lo, r.emitted()
	tripOff, tripStep, kind := n, 0, ""
	earlier := func(off, step int) bool { return off < tripOff || (off == tripOff && step < tripStep) }
	if s.maxWork > 0 {
		rem := s.maxWork - s.work
		if i := sort.Search(n, func(i int) bool {
			return int64(i+1)+outUnit*int64(r.before(r.lo+i)) > rem
		}); i < n {
			tripOff, kind = i, "work"
		}
		if out != nil {
			k := sort.Search(m, func(k int) bool { return int64(r.pos(k)-r.lo+k+2) > rem })
			if k < m && earlier(r.pos(k)-r.lo, 2*k+1) {
				tripOff, tripStep, kind = r.pos(k)-r.lo, 2*k+1, "work"
			}
		}
	}
	if s.maxRows > 0 {
		if k := s.maxRows - s.rows; k < int64(m) && earlier(r.pos(int(k))-r.lo, 2*int(k)+2) {
			tripOff, tripStep, kind = r.pos(int(k))-r.lo, 2*int(k)+2, "rows"
		}
	}
	posN, outN, rowN := n, m, m
	switch {
	case kind == "":
	case tripStep == 0:
		posN, outN = tripOff+1, r.before(r.lo+tripOff)
		rowN = outN
	default:
		posN, outN = tripOff+1, (tripStep+1)/2
		rowN = tripStep / 2
	}
	*pos += int64(posN)
	s.work += int64(posN)
	if out != nil {
		*out += int64(outN)
		s.work += int64(outN)
	}
	s.rows += int64(rowN)
	switch kind {
	case "work":
		return rowN, &BudgetExceededError{Kind: "work", Limit: s.maxWork, Used: s.work}
	case "rows":
		return rowN - 1, &BudgetExceededError{Kind: "rows", Limit: s.maxRows, Used: s.rows}
	}
	return rowN, nil
}

// limits is the budget left when an operator starts, negative meaning
// unlimited. A kernel whose own charges pass it guarantees an abort.
type limits struct{ work, rows int64 }

func (s *execState) limits() limits {
	l := limits{-1, -1}
	if s.maxWork > 0 {
		l.work = s.maxWork - s.work
	}
	if s.maxRows > 0 {
		l.rows = s.maxRows - s.rows
	}
	return l
}

func (l limits) over(work, rows int) bool {
	return (l.work >= 0 && int64(work) > l.work) || (l.rows >= 0 && int64(rows) > l.rows)
}

// exchange splits [0, size) into parts contiguous shards, runs kernel on
// each — inline for a single shard, through the pool otherwise — and then
// charges the shards in shard order through charge, which returns how many
// of the shard's tuples were admitted. A partitioned operator opens one
// exec.exchange.shard span per charged shard on the coordinator, so spans
// never depend on the worker count.
func (s *execState) exchange(parts, size int, kernel func(k, lo, hi int), charge func(k, lo int) (int, error)) error {
	shard := func(k int) {
		lo, hi := mlmath.ShardRange(size, parts, k)
		kernel(k, lo, hi)
	}
	if parts <= 1 {
		shard(0)
		_, err := charge(0, 0)
		return err
	}
	s.pool.ForEachShard(parts, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			shard(k)
		}
	})
	for k := 0; k < parts; k++ {
		workBefore := s.work
		sp := s.tr.StartSpan("exec.exchange.shard", s.cur)
		lo, _ := mlmath.ShardRange(size, parts, k)
		admitted, err := charge(k, lo)
		sp.SetInt("shard", int64(k)).SetInt("work", s.work-workBefore).SetInt("rows", int64(admitted))
		sp.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// shards is the shard count of a node: its Partitions knob, at least one.
func shards(n *plan.Node) int { return max(n.Partitions, 1) }

// scanColumns is the in-memory SeqScan over column-major cols: each shard
// filters its row range one column at a time into a selection of row ids
// over cols, with no copy. Unfiltered scans select nothing and read the
// columns directly.
func (s *execState) scanColumns(n *plan.Node, cols [][]int64, nRows, parts int) (rel, error) {
	sels, ends := make([][]int32, parts), make([]int, parts)
	lim := s.limits()
	dense := len(n.Filters) == 0
	err := s.exchange(parts, nRows, func(k, lo, hi int) {
		sels[k], ends[k] = filterRange(cols, n.Filters, lo, hi, lim)
	}, func(k, lo int) (int, error) {
		return s.chargeRun(&s.ctr.ScanTuples, nil, run{lo: lo, hi: ends[k], at: sels[k], dense: dense})
	})
	if err != nil {
		return rel{}, err
	}
	if dense {
		return rel{n: nRows, segs: []seg{{cols: cols}}}, nil
	}
	sel := concat(sels)
	return rel{n: len(sel), segs: []seg{{cols: cols, sel: sel}}}, nil
}

// filterRange selects the rows of [lo, hi) passing every filter, a block at
// a time: the first filter scans its column, each later one compacts the
// block's selection in place. It stops after the block where the shard's
// own charges exceed lim, returning where it stopped.
func filterRange(cols [][]int64, filters []expr.Pred, lo, hi int, lim limits) (sel []int32, end int) {
	if len(filters) == 0 {
		return nil, hi // nothing to evaluate: every position emits
	}
	for b := lo; b < hi; b += block {
		e := min(b+block, hi)
		start := len(sel)
		f, data := filters[0], cols[filters[0].Col]
		for r := b; r < e; r++ {
			if f.Eval(data[r]) {
				sel = append(sel, int32(r))
			}
		}
		for _, f := range filters[1:] {
			data, kept := cols[f.Col], start
			for _, r := range sel[start:] {
				if f.Eval(data[r]) {
					sel[kept] = r
					kept++
				}
			}
			sel = sel[:kept]
		}
		if lim.over(e-lo, len(sel)) {
			return sel, e
		}
	}
	return sel, hi
}

// hashIndex maps each build key to the build rows holding it, in build
// order: one row-id array grouped by key, rows[starts[s]:starts[s+1]] being
// the rows of slot s. Keys spanning a small range are addressed directly
// (slot = key - min); others go through a key→slot map.
type hashIndex struct {
	slots  map[int64]int32
	min    int64
	starts []int32
	rows   []int32
}

// buildIndex groups the build positions by key with a counting sort, which
// keeps each key's rows in ascending build order.
func buildIndex(keys []int64) *hashIndex {
	h := &hashIndex{}
	slot := make([]int32, len(keys))
	nSlots := 0
	if len(keys) > 0 {
		lo, hi := keys[0], keys[0]
		for _, k := range keys {
			lo, hi = min(lo, k), max(hi, k)
		}
		if span := hi - lo; span >= 0 && span < int64(8*len(keys)+4096) {
			h.min, nSlots = lo, int(span)+1
			for i, k := range keys {
				slot[i] = int32(k - lo)
			}
		} else {
			h.slots = make(map[int64]int32)
			for i, k := range keys {
				s, ok := h.slots[k]
				if !ok {
					s = int32(len(h.slots))
					h.slots[k] = s
				}
				slot[i] = s
			}
			nSlots = len(h.slots)
		}
	}
	// Count, prefix-sum to slot ends, then fill backwards so each end
	// walks down to its slot's start.
	h.starts = make([]int32, nSlots+1)
	for _, s := range slot {
		h.starts[s]++
	}
	for s := 1; s <= nSlots; s++ {
		h.starts[s] += h.starts[s-1]
	}
	h.rows = make([]int32, len(keys))
	for i := len(slot) - 1; i >= 0; i-- {
		h.starts[slot[i]]--
		h.rows[h.starts[slot[i]]] = int32(i)
	}
	return h
}

// matches returns the build rows holding key k.
func (h *hashIndex) matches(k int64) []int32 {
	s := uint64(k - h.min)
	if h.slots != nil {
		v, ok := h.slots[k]
		if !ok {
			return nil
		}
		s = uint64(v)
	} else if k < h.min || s >= uint64(len(h.starts)-1) {
		return nil
	}
	return h.rows[h.starts[s]:h.starts[s+1]]
}

// hashJoin builds on the left child and probes with the right. The build
// runs on the coordinator; the probe is the partitionable kernel: each
// shard probes a contiguous range of right rows and records, per output
// tuple, the left and right row positions.
func (s *execState) hashJoin(n *plan.Node) (rel, error) {
	left, right, err := s.children(n)
	if err != nil {
		return rel{}, err
	}
	if _, err := s.chargeRun(&s.ctr.HashBuild, nil, run{hi: left.n}); err != nil {
		return rel{}, err
	}
	ht := buildIndex(left.dense(n.LeftCol))
	keys, sel := right.col(n.RightCol) // read in place: the probe visits each key once
	parts := shards(n)
	li, ri, ends := make([][]int32, parts), make([][]int32, parts), make([]int, parts)
	lim := s.limits()
	err = s.exchange(parts, right.n, func(k, lo, hi int) {
		var lv, rv []int32
		end := hi
		for p := lo; p < hi; p++ {
			id := p
			if sel != nil {
				id = int(sel[p])
			}
			for _, l := range ht.matches(keys[id]) {
				lv, rv = append(lv, l), append(rv, int32(p))
			}
			if lim.over(p-lo+1+len(lv), len(lv)) {
				end = p + 1
				break
			}
		}
		li[k], ri[k], ends[k] = lv, rv, end
	}, func(k, lo int) (int, error) {
		return s.chargeRun(&s.ctr.HashProbe, &s.ctr.OutputTuple, run{lo: lo, hi: ends[k], at: ri[k]})
	})
	if err != nil {
		return rel{}, err
	}
	return join(left, right, concat(li), concat(ri)), nil
}

// nlJoin shards the nested-loop join by contiguous outer (left) ranges;
// each shard scans the whole inner side, preserving the left-major pair
// order within and across shards. Every pair charges NLPairs and every
// match one row, so each outer row is charged as one run over the inner
// positions.
func (s *execState) nlJoin(n *plan.Node) (rel, error) {
	left, right, err := s.children(n)
	if err != nil {
		return rel{}, err
	}
	lk, rk := left.dense(n.LeftCol), right.dense(n.RightCol)
	parts := shards(n)
	li, ri, ends := make([][]int32, parts), make([][]int32, parts), make([]int, parts)
	lim := s.limits()
	err = s.exchange(parts, left.n, func(k, lo, hi int) {
		var lv, rv []int32
		end := hi
		for l := lo; l < hi; l++ {
			for r, v := range rk {
				if v == lk[l] {
					lv, rv = append(lv, int32(l)), append(rv, int32(r))
				}
			}
			if lim.over((l-lo+1)*len(rk), len(lv)) {
				end = l + 1
				break
			}
		}
		li[k], ri[k], ends[k] = lv, rv, end
	}, func(k, lo int) (int, error) {
		admitted, o := 0, 0
		for l := lo; l < ends[k]; l++ {
			e := o
			for e < len(li[k]) && int(li[k][e]) == l {
				e++
			}
			a, err := s.chargeRun(&s.ctr.NLPairs, nil, run{hi: len(rk), at: ri[k][o:e]})
			if admitted += a; err != nil {
				return admitted, err
			}
			o = e
		}
		return admitted, nil
	})
	if err != nil {
		return rel{}, err
	}
	return join(left, right, concat(li), concat(ri)), nil
}
