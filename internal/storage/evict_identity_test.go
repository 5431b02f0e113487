package storage

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ml4db/internal/mlmath"
)

var updateGolden = flag.Bool("update", false, "rewrite the eviction-identity golden file")

const (
	identityGolden = "testdata/evict_identity.golden"
	identityTraces = 60
	identityOps    = 500
)

// identityPolicies are the policies the eviction-identity golden covers:
// the LRU baseline, a learned policy whose scores mostly differ (the
// access-count feature), one whose scores always tie, so every victim comes
// from the lowest-key tie-break, and one that never names a candidate, so
// every victim comes from the pool's lowest-key fallback.
var identityPolicies = []struct {
	name string
	mk   func() Policy
}{
	{"lru", func() Policy { return NewLRU() }},
	{"learned-count", func() Policy {
		return NewLearnedPolicy(predictorFunc(func(x []float64) float64 { return x[1] }))
	}},
	{"learned-const", func() Policy {
		return NewLearnedPolicy(predictorFunc(func([]float64) float64 { return 0 }))
	}},
	{"non-candidate", func() Policy { return nonCandidatePolicy{} }},
}

// nonCandidatePolicy always names a key that is never resident.
type nonCandidatePolicy struct{}

func (nonCandidatePolicy) Name() string             { return "non-candidate" }
func (nonCandidatePolicy) OnAccess(PageKey, uint64) {}
func (nonCandidatePolicy) OnRemove(PageKey)         {}
func (nonCandidatePolicy) Victim([]PageKey, uint64) PageKey {
	return PageKey{File: 1 << 31}
}

// refLRU is an order-independent reference LRU: it tracks last-access
// ticks itself and evicts the minimum (tick, key) whatever order the
// candidates arrive in.
type refLRU struct{ last map[PageKey]uint64 }

func (r *refLRU) Name() string                      { return "ref-lru" }
func (r *refLRU) OnAccess(key PageKey, tick uint64) { r.last[key] = tick }
func (r *refLRU) OnRemove(key PageKey)              { delete(r.last, key) }
func (r *refLRU) Victim(cands []PageKey, _ uint64) PageKey {
	best := cands[0]
	for _, k := range cands[1:] {
		if t, bt := r.last[k], r.last[best]; t < bt || (t == bt && k.Less(best)) {
			best = k
		}
	}
	return best
}

// runRandomTrace drives one seeded random trace of Fetch, pin, unpin,
// SetDirty, FetchScan and ReleaseFile over two heap files through a pool of
// capacity 4–16 and returns a fingerprint of every fetch outcome, the
// eviction log and the final counters. Every fetched page is checked to
// hold its own seed tuple, so a frame buffer reused with stale bytes fails
// here rather than changing the fingerprint.
func runRandomTrace(t *testing.T, seed uint64, policy Policy) string {
	t.Helper()
	rng := mlmath.NewRNG(seed)
	capacity := 4 + rng.Intn(13)
	files := []*HeapFile{
		newPooledFile(t, "a.heap", 3*capacity),
		newPooledFile(t, "b.heap", 2*capacity),
	}
	pool := NewPool(PoolOptions{Capacity: capacity, Policy: policy, RecordEvictions: true})
	h := fnv.New64a()
	var held []*PageHandle
	pinnedErrs := 0
	row := make([]int64, 1)
	pick := func() (*HeapFile, int) {
		hf := files[rng.Intn(len(files))]
		n := hf.NumPages()
		if rng.Intn(2) == 0 {
			n = capacity/2 + 1 // hot prefix
		}
		return hf, rng.Intn(n)
	}
	check := func(ph *PageHandle, pageNo int) {
		if !ph.Page().ReadTuple(0, row) || row[0] != int64(pageNo) {
			t.Fatalf("seed %d: page %d holds %v", seed, pageNo, row)
		}
		fmt.Fprintf(h, "%t;", ph.Missed())
	}
	outcome := func(err error) {
		switch {
		case err == nil:
		case errors.Is(err, ErrAllPinned):
			fmt.Fprint(h, "pinned;")
			pinnedErrs++
		default:
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	for op := 0; op < identityOps; op++ {
		switch r := rng.Intn(100); {
		case r < 50: // fetch and release
			hf, pno := pick()
			ph, err := pool.Fetch(hf, pno)
			outcome(err)
			if err == nil {
				check(ph, pno)
				ph.Unpin()
			}
		case r < 62: // fetch and hold the pin
			hf, pno := pick()
			ph, err := pool.Fetch(hf, pno)
			outcome(err)
			if err == nil {
				check(ph, pno)
				held = append(held, ph)
			}
		case r < 77: // unpin a held page, more likely the more are held
			if len(held) > 0 && rng.Intn(capacity) < len(held) {
				i := rng.Intn(len(held))
				held[i].Unpin()
				held = append(held[:i], held[i+1:]...)
			}
		case r < 85: // dirty a held page
			if len(held) > 0 {
				held[rng.Intn(len(held))].SetDirty()
			}
		case r < 96: // read-only scan fetch
			hf, pno := pick()
			ph, err := pool.FetchScan(hf, pno)
			outcome(err)
			if err == nil {
				check(ph, pno)
				ph.Unpin()
			}
		default:
			outcome(pool.ReleaseFile(files[rng.Intn(len(files))]))
		}
	}
	log := pool.EvictionLog()
	fmt.Fprintf(h, "%v;%+v", log, pool.Stats())
	for _, ph := range held {
		ph.Unpin()
	}
	for _, hf := range files {
		_ = hf.Close() // release descriptors now; the cleanup's second Close is a no-op error
	}
	return fmt.Sprintf("cap=%d evictions=%d pinned=%d fp=%016x", capacity, len(log), pinnedErrs, h.Sum64())
}

func identityFingerprints(t *testing.T) []string {
	var out []string
	for _, pol := range identityPolicies {
		for seed := uint64(1); seed <= identityTraces; seed++ {
			out = append(out, fmt.Sprintf("%s seed=%d %s", pol.name, seed, runRandomTrace(t, seed, pol.mk())))
		}
	}
	return out
}

// TestEvictionIdentityGolden pins the eviction decisions and counters of
// seeded random traces to a recorded golden, so a change to how the pool
// tracks recency or offers candidates cannot silently change which pages
// are evicted. Regenerate with -update only when a behaviour change is
// intended.
func TestEvictionIdentityGolden(t *testing.T) {
	got := identityFingerprints(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(identityGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(identityGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(identityGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d fingerprints, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("fingerprint diverges from golden:\n got  %s\n want %s", got[i], want[i])
		}
	}
}

// TestLRUMatchesReferenceLRU checks NewLRU against the order-independent
// reference on the same traces: identical fetch outcomes, eviction logs and
// counters.
func TestLRUMatchesReferenceLRU(t *testing.T) {
	for seed := uint64(1); seed <= identityTraces; seed++ {
		got := runRandomTrace(t, seed, NewLRU())
		want := runRandomTrace(t, seed, &refLRU{last: make(map[PageKey]uint64)})
		if got != want {
			t.Fatalf("seed %d: LRU %s, reference %s", seed, got, want)
		}
	}
}

// TestShadowLRUMatchesPoolLRU checks the Guard's shadow simulation against a
// live LRU pool of the same capacity: on the same fetch sequence both must
// hit and miss at exactly the same accesses.
func TestShadowLRUMatchesPoolLRU(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		rng := mlmath.NewRNG(seed)
		capacity := 4 + rng.Intn(13)
		hf := newPooledFile(t, "s.heap", 3*capacity)
		shadow := newShadowLRU(capacity)
		var diverged int
		pool := NewPool(PoolOptions{Capacity: capacity, Observer: func(k PageKey, hit bool) {
			if shadow.access(k) != hit {
				diverged++
			}
		}})
		for i := 0; i < 1000; i++ {
			fetchAndRelease(t, pool, hf, rng.Intn(hf.NumPages()))
		}
		if diverged != 0 {
			t.Fatalf("seed %d: shadow LRU diverged from the pool on %d of 1000 accesses", seed, diverged)
		}
	}
}
