package storage

import (
	"fmt"
	"math"

	"ml4db/internal/mlmath"
	"ml4db/internal/modelsvc"
	"ml4db/internal/nn"
)

// FeatureDim is the width of the eviction feature vector.
const FeatureDim = 3

// EvictionFeatures encodes one page's access history at decision time:
// log1p of (ticks since last access, lifetime access count, last
// inter-access gap). The same encoding feeds training and serving, so a
// scorer's inputs replay bit-identically.
func EvictionFeatures(recency, count, gap uint64) []float64 {
	return []float64{
		math.Log1p(float64(recency)),
		math.Log1p(float64(count)),
		math.Log1p(float64(gap)),
	}
}

// Recency is the LRU-equivalent heuristic scorer: the predicted forward
// reuse distance is exactly the time since last access, so evicting the
// maximum prediction evicts the least recently used page. It is the gate's
// incumbent and demotion fallback — the learned policy can never do worse
// than LRU for longer than one canary window.
type Recency struct{}

// Predict implements modelsvc.Predictor.
func (Recency) Predict(x []float64) float64 { return x[0] }

// pageStat is the per-resident-page access history a LearnedPolicy keeps.
type pageStat struct {
	last  uint64 // tick of the most recent access
	prev  uint64 // tick of the access before that (0 if none)
	count uint64 // lifetime accesses while resident
}

func (s *pageStat) features(tick uint64) []float64 {
	gap := uint64(0)
	if s.prev > 0 {
		gap = s.last - s.prev
	}
	return EvictionFeatures(tick-s.last, s.count, gap)
}

// LearnedPolicy evicts the candidate whose predicted forward reuse
// distance is largest (the Belady direction), scoring each candidate's
// access-history features with a modelsvc.Predictor — typically a *Gate, so
// the model behind the score is hot-swapped by canary promotions and
// demotions without touching the pool. Non-finite scores fall back to the
// recency feature, so a broken model degrades toward LRU instead of
// corrupting eviction.
type LearnedPolicy struct {
	scorer modelsvc.Predictor
	st     map[PageKey]*pageStat
}

// NewLearnedPolicy returns a learned eviction policy over scorer.
func NewLearnedPolicy(scorer modelsvc.Predictor) *LearnedPolicy {
	return &LearnedPolicy{scorer: scorer, st: make(map[PageKey]*pageStat)}
}

// Name implements Policy.
func (l *LearnedPolicy) Name() string { return "learned" }

// OnAccess implements Policy.
func (l *LearnedPolicy) OnAccess(key PageKey, tick uint64) {
	s := l.st[key]
	if s == nil {
		s = &pageStat{}
		l.st[key] = s
	}
	s.prev = s.last
	s.last = tick
	s.count++
}

// OnRemove implements Policy.
func (l *LearnedPolicy) OnRemove(key PageKey) { delete(l.st, key) }

// Victim implements Policy: the maximum predicted reuse distance, with
// ties broken explicitly toward the lowest key so the victim does not depend
// on candidate order. Scores are never NaN (see score), so the comparison is
// a total order.
func (l *LearnedPolicy) Victim(cands []PageKey, tick uint64) PageKey {
	best := cands[0]
	bestScore := l.score(best, tick)
	for _, k := range cands[1:] {
		s := l.score(k, tick)
		//ml4db:allow floateq "exact score tie: the lowest-key tie-break is the replay contract, an epsilon would change victims"
		if s > bestScore || (s == bestScore && k.Less(best)) {
			best, bestScore = k, s
		}
	}
	return best
}

func (l *LearnedPolicy) score(key PageKey, tick uint64) float64 {
	s := l.st[key]
	if s == nil {
		// Never accessed while resident — should not happen, but an unknown
		// page is the safest eviction.
		return math.MaxFloat64
	}
	x := s.features(tick)
	v := l.scorer.Predict(x)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return x[0] // recency fallback: degrade toward LRU, never corrupt
	}
	return v
}

// Sample is one supervised eviction-training example: the page's feature
// vector at an access, labeled with log1p of the actual forward reuse
// distance (capped at the horizon).
type Sample struct {
	X []float64
	Y float64
}

// TraceSamples replays an access trace and emits one Sample per access
// whose page has prior history, labeling it with the distance to the
// page's next access (capped at horizon; horizon <= 0 means the trace
// length). This is the training set for a learned eviction scorer and the
// replay window the Gate shadows candidates over.
func TraceSamples(trace []PageKey, horizon int) []Sample {
	if horizon <= 0 {
		horizon = len(trace)
	}
	// next[i] is the distance from access i to the next access of the same
	// page, capped at horizon.
	next := make([]uint64, len(trace))
	lastSeen := make(map[PageKey]int, 64)
	for i := len(trace) - 1; i >= 0; i-- {
		if j, ok := lastSeen[trace[i]]; ok && j-i <= horizon {
			next[i] = uint64(j - i)
		} else {
			next[i] = uint64(horizon)
		}
		lastSeen[trace[i]] = i
	}
	st := make(map[PageKey]*pageStat, 64)
	var out []Sample
	for i, key := range trace {
		tick := uint64(i + 1)
		if s := st[key]; s != nil {
			out = append(out, Sample{X: s.features(tick), Y: math.Log1p(float64(next[i]))})
		}
		s := st[key]
		if s == nil {
			s = &pageStat{}
			st[key] = s
		}
		s.prev = s.last
		s.last = tick
		s.count++
	}
	return out
}

// MLPScorer is a trained eviction scorer: an MLP regressing log1p forward
// reuse distance from EvictionFeatures. It implements modelsvc.Predictor
// for serving through a Gate and nn.Module for publication through a
// modelsvc.Registry (modelsvc.PublishModule/LoadModule), so every
// candidate's lineage is versioned and checksummed.
type MLPScorer struct {
	M *nn.MLP
}

// Predict implements modelsvc.Predictor.
func (s *MLPScorer) Predict(x []float64) float64 { return s.M.Predict1(x) }

// Params implements nn.Module.
func (s *MLPScorer) Params() []*nn.Param { return s.M.Params() }

// NewMLPScorer returns an untrained scorer with the standard architecture
// (FeatureDim → 16 → 1), initialized from seed.
func NewMLPScorer(seed uint64) *MLPScorer {
	rng := mlmath.NewRNG(seed)
	return &MLPScorer{M: nn.NewMLP([]int{FeatureDim, 16, 1}, nn.LeakyReLU{}, nn.Identity{}, rng)}
}

// TrainScorer fits an MLPScorer on the samples. Same samples + same seed →
// bit-identical model (the nn.Fit contract); pool may be nil for strictly
// serial training.
func TrainScorer(samples []Sample, seed uint64, epochs int, pool *mlmath.Pool) (*MLPScorer, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("storage: no training samples")
	}
	if epochs < 1 {
		epochs = 30
	}
	xs := make([][]float64, len(samples))
	ys := make([][]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.X
		ys[i] = []float64{s.Y}
	}
	sc := NewMLPScorer(seed)
	sc.M.Fit(xs, ys, nn.FitOptions{
		Epochs:    epochs,
		BatchSize: 32,
		Optimizer: nn.NewAdam(0.005),
		RNG:       mlmath.NewRNG(seed + 1),
		Pool:      pool,
	})
	return sc, nil
}
