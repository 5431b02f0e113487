package storage

// LRU is the deterministic baseline eviction policy: evict the least
// recently fetched unpinned page. It keeps no state of its own — the pool
// already offers candidates in recency order, and fetch ticks are unique per
// resident page, so the first candidate is the LRU victim and no tie can
// arise.
type LRU struct{}

// NewLRU returns the LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (*LRU) Name() string { return "lru" }

// OnAccess implements Policy.
func (*LRU) OnAccess(PageKey, uint64) {}

// OnRemove implements Policy.
func (*LRU) OnRemove(PageKey) {}

// Victim implements Policy: the least recently fetched candidate.
func (*LRU) Victim(cands []PageKey, _ uint64) PageKey { return cands[0] }
