package storage

import "testing"

// TestPoolMissAllocs bounds the allocations of a Fetch miss on a full pool:
// the handle, the frame and the parsed page header. Candidate collection
// reuses a pool-owned slice and the page is read into the victim's buffer,
// so neither a candidate slice nor a page buffer is allocated per miss.
func TestPoolMissAllocs(t *testing.T) {
	const capacity = 32
	hf := newPooledFile(t, "t.heap", capacity+1)
	pool := NewPool(PoolOptions{Capacity: capacity})
	next := 0
	fetch := func() {
		h, err := pool.Fetch(hf, next)
		if err != nil {
			t.Fatal(err)
		}
		h.Unpin()
		next = (next + 1) % hf.NumPages()
	}
	for i := 0; i < 2*hf.NumPages(); i++ {
		fetch() // fill the pool and warm the frame map
	}
	misses := pool.Stats().Misses
	allocs := testing.AllocsPerRun(200, fetch)
	if got := pool.Stats().Misses - misses; got != 201 {
		t.Fatalf("cyclic trace over capacity+1 pages missed %d of 201 fetches", got)
	}
	if allocs > 3 {
		t.Fatalf("Fetch miss on a full pool allocates %.1f times, want <= 3", allocs)
	}
}
