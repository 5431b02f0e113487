package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ml4db/internal/obs"
)

// ErrAllPinned matches any eviction failure caused by every frame being
// pinned.
var ErrAllPinned = errors.New("storage: all buffer-pool frames are pinned")

// AllPinnedError reports that a page could not be brought in because every
// frame is pinned — eviction of a pinned page is refused, never forced.
type AllPinnedError struct {
	Capacity int
}

// Error implements error.
func (e *AllPinnedError) Error() string {
	return fmt.Sprintf("storage: cannot evict, all %d buffer-pool frames are pinned", e.Capacity)
}

// Is reports all-pinned failures as ErrAllPinned so errors.Is matches.
func (e *AllPinnedError) Is(target error) bool { return target == ErrAllPinned }

// PageKey identifies one page of one registered heap file inside a Pool.
type PageKey struct {
	File uint32
	Page uint32
}

// Less orders keys (file, then page) — the deterministic tie-break order
// used everywhere candidates are enumerated.
func (k PageKey) Less(o PageKey) bool {
	if k.File != o.File {
		return k.File < o.File
	}
	return k.Page < o.Page
}

// Policy decides which unpinned resident page to evict. The pool owns the
// policy and drives it single-threaded under its lock: OnAccess on every
// fetch (hit or load), OnRemove when a page leaves the pool, Victim when a
// frame must be freed. Candidates arrive least recently fetched first (the
// pool's own recency order, so cands[0] is the LRU page); implementations
// must return one of them and must break score ties explicitly toward the
// lowest PageKey, independent of candidate order, so eviction sequences
// replay bit-identically. A returned non-candidate falls back to the
// lowest-key candidate.
type Policy interface {
	Name() string
	OnAccess(key PageKey, tick uint64)
	OnRemove(key PageKey)
	Victim(cands []PageKey, tick uint64) PageKey
}

// PoolOptions configures a Pool.
type PoolOptions struct {
	// Capacity is the frame count; values below one default to 64.
	Capacity int
	// Policy selects eviction victims; nil defaults to NewLRU().
	Policy Policy
	// Metrics, when non-nil, receives storage.pool.* instruments.
	Metrics *obs.Registry
	// RecordEvictions keeps the eviction sequence for replay-determinism
	// checks (EvictionLog). Off by default: the log grows with evictions.
	RecordEvictions bool
	// Observer, when non-nil, sees every fetch (key, hit) in access order —
	// the hook Guard uses to shadow-score the live hit rate against LRU.
	Observer func(key PageKey, hit bool)
}

// frame is one resident page, linked into the pool's recency list.
type frame struct {
	key        PageKey
	hf         *HeapFile
	page       *Page
	pins       int
	dirty      bool
	lastTick   uint64
	prev, next *frame
}

// Pool is the buffer pool: a fixed number of frames caching heap-file pages
// with pin/unpin discipline, dirty tracking and write-back, and pluggable
// eviction. All state transitions happen under one mutex, in caller order,
// with a logical tick as the only clock — which is what makes eviction
// sequences replayable.
type Pool struct {
	mu     sync.Mutex
	opts   PoolOptions
	frames map[PageKey]*frame
	lru    recencyList // resident frames in Fetch order; FetchScan leaves it alone
	cands  []PageKey   // eviction scratch, reused so a warm pool does not allocate
	files  map[*HeapFile]uint32
	nextID uint32
	tick   uint64

	hits, misses, evictions, writebacks int64
	evictLog                            []PageKey

	cHits, cMisses, cEvictions, cWritebacks *obs.Counter
	hReuse                                  *obs.Histogram
}

// reuseBuckets cover on-hit reuse distances (ticks) from 1 to ~16M.
var reuseBuckets = obs.ExpBuckets(1, 4, 13)

// NewPool returns a buffer pool with the given options.
func NewPool(opts PoolOptions) *Pool {
	if opts.Capacity < 1 {
		opts.Capacity = 64
	}
	if opts.Policy == nil {
		opts.Policy = NewLRU()
	}
	p := &Pool{
		opts:   opts,
		frames: make(map[PageKey]*frame, opts.Capacity),
		files:  make(map[*HeapFile]uint32),
	}
	p.lru.init()
	if m := opts.Metrics; m != nil {
		p.cHits = m.Counter("storage.pool.hits")
		p.cMisses = m.Counter("storage.pool.misses")
		p.cEvictions = m.Counter("storage.pool.evictions")
		p.cWritebacks = m.Counter("storage.pool.writebacks")
		p.hReuse = m.Histogram("storage.pool.reuse_dist", reuseBuckets)
	}
	return p
}

// Capacity returns the frame count.
func (p *Pool) Capacity() int { return p.opts.Capacity }

// PolicyName returns the active eviction policy's name.
func (p *Pool) PolicyName() string { return p.opts.Policy.Name() }

// fileID registers hf on first use. Registration order follows first-fetch
// order, so key assignment is deterministic for a deterministic workload.
func (p *Pool) fileID(hf *HeapFile) uint32 {
	if id, ok := p.files[hf]; ok {
		return id
	}
	id := p.nextID
	p.nextID++
	p.files[hf] = id
	return id
}

// PageHandle is a pinned page. The holder may read the page, mutate it and
// mark it dirty; it must call Unpin on every non-error path when done (the
// spanend analyzer checks this). Unpin is idempotent per handle.
//
// Handles from FetchScan may instead wrap a private page read around the
// pool (pool and fr nil, page set); such handles are read-only.
type PageHandle struct {
	pool     *Pool
	fr       *frame
	page     *Page // bypass handles only: private copy, not resident
	missed   bool
	released bool
}

// Page returns the pinned page. Valid until Unpin: after that a miss may
// read another page into the same buffer, so copy tuples out first.
func (h *PageHandle) Page() *Page {
	if h.fr == nil {
		return h.page
	}
	return h.fr.page
}

// Missed reports whether this fetch had to read the page from disk (a pool
// miss) — the signal the executor charges as PageMiss work.
func (h *PageHandle) Missed() bool { return h.missed }

// SetDirty marks the page as modified so eviction and Flush write it back.
// FetchScan bypass handles are read-only: dirtying a private copy would
// silently lose the write, so that is a programming error.
func (h *PageHandle) SetDirty() {
	if h.pool == nil {
		//ml4db:allow nakedpanic "read-only bypass handles have no frame to dirty; losing the write silently would corrupt the table"
		panic("storage: SetDirty on a read-only scan handle")
	}
	h.pool.mu.Lock()
	h.fr.dirty = true
	h.pool.mu.Unlock()
}

// Unpin releases the pin. Calling it more than once is a no-op. Bypass
// handles hold no pool state; for them Unpin only marks the handle released.
func (h *PageHandle) Unpin() {
	if h.pool == nil {
		h.released = true
		return
	}
	h.pool.mu.Lock()
	if !h.released {
		h.released = true
		if h.fr.pins > 0 {
			h.fr.pins--
		}
	}
	h.pool.mu.Unlock()
}

// Fetch pins pageNo of hf into the pool, reading it from disk on a miss
// (evicting an unpinned victim first when the pool is full) and returns the
// handle. With every frame pinned it fails with *AllPinnedError; a page
// that fails its checksum on load surfaces as *ChecksumError.
func (p *Pool) Fetch(hf *HeapFile, pageNo int) (*PageHandle, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tick++
	key := PageKey{File: p.fileID(hf), Page: uint32(pageNo)}
	if fr, ok := p.frames[key]; ok {
		p.hits++
		p.cHits.Inc()
		p.hReuse.Observe(float64(p.tick - fr.lastTick))
		fr.lastTick = p.tick
		fr.pins++
		p.lru.remove(fr)
		p.lru.pushBack(fr)
		p.notifyLocked(key, true)
		return &PageHandle{pool: p, fr: fr, missed: false}, nil
	}
	var buf []byte
	if len(p.frames) >= p.opts.Capacity {
		victim, err := p.evictLocked()
		if err != nil {
			return nil, err
		}
		buf = victim.page.Bytes()
	} else {
		buf = make([]byte, PageSize)
	}
	page, err := hf.readPageInto(buf, pageNo)
	if err != nil {
		return nil, err
	}
	p.misses++
	p.cMisses.Inc()
	fr := &frame{key: key, hf: hf, page: page, pins: 1, lastTick: p.tick}
	p.frames[key] = fr
	p.lru.pushBack(fr)
	p.notifyLocked(key, false)
	return &PageHandle{pool: p, fr: fr, missed: true}, nil
}

// FetchScan is the read-only bulk-scan path: it returns pageNo of hf without
// perturbing any replacement state, so concurrent scan shards can fetch pages
// in any interleaving and leave the pool's future eviction decisions — and
// therefore replay determinism — untouched. A resident page is pinned and
// counted as a hit, but the logical tick, the eviction policy, the reuse
// histogram, and the observer are all left alone; a non-resident page is read
// from disk outside the lock into a private page that is never inserted (no
// eviction, no registration of unknown files) and counted as a miss. Safe for
// concurrent use with Fetch and with other FetchScan calls.
func (p *Pool) FetchScan(hf *HeapFile, pageNo int) (*PageHandle, error) {
	p.mu.Lock()
	if id, ok := p.files[hf]; ok {
		key := PageKey{File: id, Page: uint32(pageNo)}
		if fr, ok := p.frames[key]; ok {
			p.hits++
			p.cHits.Inc()
			fr.pins++
			p.mu.Unlock()
			return &PageHandle{pool: p, fr: fr, missed: false}, nil
		}
	}
	p.mu.Unlock()
	page, err := hf.ReadPage(pageNo)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.misses++
	p.cMisses.Inc()
	p.mu.Unlock()
	return &PageHandle{page: page, missed: true}, nil
}

// notifyLocked drives the policy and observer for one access, in access
// order under the pool lock.
func (p *Pool) notifyLocked(key PageKey, hit bool) {
	p.opts.Policy.OnAccess(key, p.tick)
	if p.opts.Observer != nil {
		p.opts.Observer(key, hit)
	}
}

// recencyList is an intrusive doubly linked list of frames in fetch order:
// root.next is the least recently used frame, root.prev the most.
type recencyList struct{ root frame }

func (l *recencyList) init() { l.root.prev, l.root.next = &l.root, &l.root }

// pushBack links fr at the most-recently-used end.
func (l *recencyList) pushBack(fr *frame) {
	fr.prev, fr.next = l.root.prev, &l.root
	fr.prev.next = fr
	l.root.prev = fr
}

// remove unlinks fr.
func (l *recencyList) remove(fr *frame) {
	fr.prev.next, fr.next.prev = fr.next, fr.prev
	fr.prev, fr.next = nil, nil
}

// evictLocked frees one frame and returns it, unlinked and out of the frame
// map, so the caller can read the incoming page into its buffer. Unpinned
// candidates are offered to the policy least recently fetched first, the
// victim is written back if dirty, and the eviction is logged when
// RecordEvictions is set.
func (p *Pool) evictLocked() (*frame, error) {
	cands := p.cands[:0]
	for fr := p.lru.root.next; fr != &p.lru.root; fr = fr.next {
		if fr.pins == 0 {
			cands = append(cands, fr.key)
		}
	}
	p.cands = cands
	if len(cands) == 0 {
		return nil, &AllPinnedError{Capacity: p.opts.Capacity}
	}
	victim := p.opts.Policy.Victim(cands, p.tick)
	fr, ok := p.frames[victim]
	if !ok || fr.pins != 0 {
		// A policy returning a non-candidate must not corrupt the pool:
		// fall back to the lowest-key candidate deterministically.
		victim = cands[0]
		for _, k := range cands[1:] {
			if k.Less(victim) {
				victim = k
			}
		}
		fr = p.frames[victim]
	}
	if fr.dirty {
		if err := fr.hf.WritePage(fr.page); err != nil {
			return nil, err
		}
		p.writebacks++
		p.cWritebacks.Inc()
	}
	delete(p.frames, victim)
	p.lru.remove(fr)
	p.opts.Policy.OnRemove(victim)
	p.evictions++
	p.cEvictions.Inc()
	if p.opts.RecordEvictions {
		p.evictLog = append(p.evictLog, victim)
	}
	return fr, nil
}

// PoolStats is a snapshot of the pool's counters and occupancy.
type PoolStats struct {
	Hits, Misses, Evictions, Writebacks int64
	Resident, Pinned                    int
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStats{
		Hits: p.hits, Misses: p.misses,
		Evictions: p.evictions, Writebacks: p.writebacks,
		Resident: len(p.frames),
	}
	for _, fr := range p.frames {
		if fr.pins > 0 {
			st.Pinned++
		}
	}
	return st
}

// PinnedCount returns how many frames currently hold at least one pin —
// zero after any well-behaved scan, aborted or not.
func (p *Pool) PinnedCount() int { return p.Stats().Pinned }

// MissRate returns misses/(hits+misses), or 1 before any access — the cold
// assumption the optimizer's I/O term starts from.
func (p *Pool) MissRate() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.hits + p.misses
	if total == 0 {
		return 1
	}
	return float64(p.misses) / float64(total)
}

// HitRate returns hits/(hits+misses), or 0 before any access.
func (p *Pool) HitRate() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.hits + p.misses
	if total == 0 {
		return 0
	}
	return float64(p.hits) / float64(total)
}

// EvictionLog returns a copy of the recorded eviction sequence (empty
// unless RecordEvictions was set).
func (p *Pool) EvictionLog() []PageKey {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PageKey, len(p.evictLog))
	copy(out, p.evictLog)
	return out
}

// FlushAll writes back every dirty resident page (in key order) without
// evicting anything.
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked(nil)
}

// FlushFile writes back hf's dirty resident pages (in key order).
func (p *Pool) FlushFile(hf *HeapFile) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flushLocked(hf)
}

func (p *Pool) flushLocked(only *HeapFile) error {
	keys := make([]PageKey, 0, len(p.frames))
	for key, fr := range p.frames {
		if fr.dirty && (only == nil || fr.hf == only) {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	for _, key := range keys {
		fr := p.frames[key]
		if err := fr.hf.WritePage(fr.page); err != nil {
			return err
		}
		fr.dirty = false
		p.writebacks++
		p.cWritebacks.Inc()
	}
	return nil
}

// ReleaseFile flushes hf's dirty pages and drops all its frames from the
// pool (so the file can be closed or reopened). It fails with
// *AllPinnedError semantics if any of hf's pages is still pinned.
func (p *Pool) ReleaseFile(hf *HeapFile) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := make([]PageKey, 0, len(p.frames))
	for key, fr := range p.frames {
		if fr.hf == hf {
			if fr.pins > 0 {
				return fmt.Errorf("storage: releasing %s with page %d still pinned: %w", hf.Path(), key.Page, ErrAllPinned)
			}
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	for _, key := range keys {
		fr := p.frames[key]
		if fr.dirty {
			if err := fr.hf.WritePage(fr.page); err != nil {
				return err
			}
			p.writebacks++
			p.cWritebacks.Inc()
		}
		delete(p.frames, key)
		p.lru.remove(fr)
		//ml4db:allow lockcheck "the policy is pool-owned single-threaded state driven strictly in access order under p.mu; snapshotting and calling outside would let a concurrent Fetch interleave OnAccess between the delete and the OnRemove"
		p.opts.Policy.OnRemove(key)
	}
	return nil
}
