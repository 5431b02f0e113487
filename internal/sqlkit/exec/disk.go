package exec

import (
	"sort"

	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/storage"
)

// This file holds the disk-table scans, which read heap pages through the
// table's buffer pool. Pool misses are charged as PageMiss work units — the
// executor-side ground truth for the optimizer's PageRead cost term — and
// every pinned page is released on every path by a deferred Unpin.

// diskShard is what one shard of a disk scan read, as one run of unit
// charges in serial order: a PageMiss for each fetched page that missed the
// pool, at the steps in misses, and a ScanTuples for each live tuple. The
// passing tuples (at their steps in at) are kept column-major in cols; err
// is the read error that stopped the shard, if any.
type diskShard struct {
	cols       [][]int64
	at, misses []int32
	steps      int
	err        error
}

// seqScanDisk scans a disk-backed table over contiguous page ranges. One
// shard fetches through the buffer pool (FetchPage), exactly as a
// page-at-a-time scan would. Partitioned shards fetch through
// FetchPageForScan — the bypass that pins resident pages without mutating
// replacement state and reads non-resident pages privately — so the pool's
// contents, tick, and eviction decisions are independent of shard
// interleaving. Miss charges equal the one-shard scan's whenever the pool's
// resident set at scan start matches (always true for a cold table; see
// docs/EXECUTOR.md for the warm-pool caveat).
func (s *execState) seqScanDisk(n *plan.Node, t *catalog.Table) (rel, error) {
	tf := t.Disk
	parts := shards(n)
	fetch := tf.FetchPage
	if parts > 1 {
		fetch = tf.FetchPageForScan
	}
	sh := make([]diskShard, parts)
	lim := s.limits()
	missBefore := s.ctr.PageMiss
	err := s.exchange(parts, tf.NumPages(), func(k, lo, hi int) {
		d := &sh[k]
		d.cols = make([][]int64, t.NumCols())
		row := make([]int64, t.NumCols())
		for pageNo := lo; pageNo < hi && d.err == nil && !lim.over(d.steps, len(d.at)); pageNo++ {
			d.err = d.scanPage(fetch, pageNo, n.Filters, row)
		}
	}, func(k, _ int) (int, error) {
		d := &sh[k]
		var units int64
		admitted, err := s.chargeRun(&units, nil, run{hi: d.steps, at: d.at})
		misses := int64(sort.Search(len(d.misses), func(i int) bool { return int64(d.misses[i]) >= units }))
		s.ctr.PageMiss += misses
		s.ctr.ScanTuples += units - misses
		if err == nil {
			err = d.err
		}
		return admitted, err
	})
	n.ActualPageMisses = float64(s.ctr.PageMiss - missBefore)
	if err != nil {
		return rel{}, err
	}
	cols := sh[0].cols
	for _, d := range sh[1:] {
		for c := range cols {
			cols[c] = append(cols[c], d.cols[c]...)
		}
	}
	return rel{n: len(cols[0]), segs: []seg{{cols: cols}}}, nil
}

// scanPage pins one page, appends its passing tuples to the shard, and
// unpins on every path via defer (the pin discipline the spanend analyzer
// enforces).
func (d *diskShard) scanPage(fetch func(int) (*storage.PageHandle, error), pageNo int, filters []expr.Pred, row []int64) error {
	h, err := fetch(pageNo)
	if err != nil {
		return err
	}
	defer h.Unpin()
	if h.Missed() {
		d.misses = append(d.misses, int32(d.steps))
		d.steps++
	}
	p := h.Page()
	for slot := 0; slot < p.NumSlots(); slot++ {
		if !p.ReadTuple(slot, row) {
			continue
		}
		if passesRow(filters, row) {
			d.at = append(d.at, int32(d.steps))
			for c, v := range row {
				d.cols[c] = append(d.cols[c], v)
			}
		}
		d.steps++
	}
	return nil
}

// passesRow reports whether a row-major tuple satisfies every filter.
func passesRow(filters []expr.Pred, row []int64) bool {
	for _, f := range filters {
		if !f.Eval(row[f.Col]) {
			return false
		}
	}
	return true
}

// indexScanDisk fetches the index's matching heap rows through the pool —
// random page access, the classic reason index scans on disk pay more per
// row than sequential ones. Every fetch moves the pool, so the loop charges
// as it goes and stops on the exact row the budget trips.
func (s *execState) indexScanDisk(n *plan.Node, t *catalog.Table, ix *catalog.SecondaryIndex, lo, hi int64, residual []expr.Pred) (rel, error) {
	cols := make([][]int64, t.NumCols())
	ids := ix.RangeRows(lo, hi)
	missBefore := s.ctr.PageMiss
	err := func() error {
		for _, r := range ids {
			if err := s.charge(&s.ctr.IndexFetch, 1); err != nil {
				return err
			}
			row, ok, missed, err := t.Disk.ReadRow(int64(r))
			if err != nil {
				return err
			}
			if missed {
				if err := s.charge(&s.ctr.PageMiss, 1); err != nil {
					return err
				}
			}
			// A deleted slot (removed after the index was built) is skipped.
			if !ok || !passesRow(residual, row) {
				continue
			}
			if err := s.chargeRows(1); err != nil {
				return err
			}
			for c, v := range row {
				cols[c] = append(cols[c], v)
			}
		}
		return nil
	}()
	n.ActualPageMisses = float64(s.ctr.PageMiss - missBefore)
	if err != nil {
		return rel{}, err
	}
	n.ActualFetched = float64(len(ids))
	return rel{n: len(cols[0]), segs: []seg{{cols: cols}}}, nil
}
