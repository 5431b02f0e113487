package study

import (
	"fmt"
	"math"

	"ml4db/internal/mlmath"
	"ml4db/internal/nn"
	"ml4db/internal/planrep"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/tree"
	"ml4db/internal/workload"
)

// Sample is one labeled plan.
type Sample struct {
	Query *plan.Query
	Plan  *plan.Node
	// LogWork is log(1 + executor work units), the regression target.
	LogWork float64
	// QueryIdx groups plans of the same query for ranking evaluation.
	QueryIdx int
}

// Dataset is a labeled plan corpus.
type Dataset struct {
	Samples []Sample
	// NumQueries is the number of distinct queries.
	NumQueries int
}

// BuildCardDataset generates numQueries star-join queries, plans each with
// the expert optimizer, executes it, and labels the plan with its log output
// cardinality — the cardinality-estimation task of the comparative study
// (the task of E2E-Cost and QueryFormer's evaluations). One plan per query;
// ranking is evaluated globally across queries.
func BuildCardDataset(sch *datagen.StarSchema, rng *mlmath.RNG, numQueries int) (*Dataset, error) {
	gen := workload.NewStarGen(sch, rng)
	opt := optimizer.New(sch.Cat)
	ex := exec.New(sch.Cat)
	ds := &Dataset{NumQueries: numQueries}
	for qi := 0; qi < numQueries; qi++ {
		q := gen.Query()
		p, err := opt.Plan(q, optimizer.NoHint())
		if err != nil {
			return nil, fmt.Errorf("study: planning query %d: %w", qi, err)
		}
		res, err := ex.Execute(p, exec.Options{})
		if err != nil {
			return nil, fmt.Errorf("study: executing query %d: %w", qi, err)
		}
		ds.Samples = append(ds.Samples, Sample{
			Query:    q,
			Plan:     p,
			LogWork:  logp1(float64(len(res.Rows))),
			QueryIdx: qi,
		})
	}
	return ds, nil
}

// BuildCostDataset generates numQueries star-join queries, plans each under
// several hint sets (yielding structurally diverse plans), executes
// them, and labels each plan with its log work.
func BuildCostDataset(sch *datagen.StarSchema, rng *mlmath.RNG, numQueries int) (*Dataset, error) {
	gen := workload.NewStarGen(sch, rng)
	opt := optimizer.New(sch.Cat)
	ex := exec.New(sch.Cat)
	// Reasonable plan variants only (no forced nested-loop disasters): as in
	// the surveyed cost-estimation corpora, labels vary mostly with data and
	// predicate selectivity rather than with adversarial operator choices.
	hints := []optimizer.HintSet{
		optimizer.NoHint(),
		{Name: "hash-only", JoinOps: []plan.OpType{plan.OpHashJoin}},
		{Name: "merge-only", JoinOps: []plan.OpType{plan.OpMergeJoin}},
		{Name: "left-deep", LeftDeepOnly: true},
	}
	ds := &Dataset{NumQueries: numQueries}
	for qi := 0; qi < numQueries; qi++ {
		q := gen.Query()
		seen := make(map[string]bool)
		for _, h := range hints {
			p, err := opt.Plan(q, h)
			if err != nil {
				return nil, fmt.Errorf("study: planning query %d: %w", qi, err)
			}
			key := p.String()
			if seen[key] {
				continue // identical plan under a different hint
			}
			seen[key] = true
			res, err := ex.Execute(p, exec.Options{})
			if err != nil {
				return nil, fmt.Errorf("study: executing query %d: %w", qi, err)
			}
			ds.Samples = append(ds.Samples, Sample{
				Query:    q,
				Plan:     p,
				LogWork:  logp1(float64(res.Work)),
				QueryIdx: qi,
			})
		}
	}
	return ds, nil
}

// logp1 maps work to log(1+work); the natural log keeps regression targets
// in a small range.
func logp1(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return mlmath.Clamp(math.Log(x+1), 0, 64)
}

// Config controls the study.
type Config struct {
	Hidden    int // tree model hidden width
	Epochs    int
	TrainFrac float64
	Seed      uint64
	// Clock supplies the timing reads behind TrainSec; nil means the system
	// clock. Inject a *mlmath.ManualClock for reproducible study output.
	Clock mlmath.Clock
	// Pool parallelizes plan encoding and test-set evaluation, both of
	// which are read-only per sample and therefore bit-identical for any
	// worker count. Nil runs serially. Training itself stays serial: the
	// recursive tree encoders backpropagate through per-sample graphs.
	Pool *mlmath.Pool
}

// Result is the evaluation of one (feature set, tree model) combination.
type Result struct {
	Feature  string
	Model    string
	MAE      float64 // mean absolute error on log-work (absolute accuracy)
	RankAcc  float64 // pairwise ranking accuracy within queries (relative)
	TrainSec float64
	Params   int
}

// ModelNames lists the tree models under study, in Table 1 order.
var ModelNames = []string{"flat", "lstm", "treecnn", "treelstm", "treernn", "transformer"}

// FeatureConfigs lists the feature-encoding variants under study, from
// information-poor to information-rich.
func FeatureConfigs() []planrep.FeatureConfig {
	return []planrep.FeatureConfig{
		planrep.MinimalFeatures(), planrep.SemanticOnly(), planrep.StatsOnly(), planrep.FullFeatures(),
	}
}

// NewEncoder constructs the named tree model for the given feature width.
func NewEncoder(name string, featDim, hidden int, rng *mlmath.RNG) (tree.Encoder, error) {
	switch name {
	case "flat":
		return tree.NewFlatEncoder(featDim, 16), nil
	case "lstm":
		return tree.NewLSTMEncoder(featDim, hidden, rng), nil
	case "treernn":
		return tree.NewTreeRNNEncoder(featDim, hidden, rng), nil
	case "treelstm":
		return tree.NewTreeLSTMEncoder(featDim, hidden, rng), nil
	case "treecnn":
		return tree.NewTreeCNNEncoder(featDim, hidden, rng), nil
	case "transformer":
		return tree.NewTransformerEncoder(featDim, hidden, rng), nil
	default:
		return nil, fmt.Errorf("study: unknown model %q", name)
	}
}

// Run trains and evaluates every (feature, model) combination on the dataset
// and returns one Result per combination.
func Run(sch *datagen.StarSchema, ds *Dataset, cfg Config) ([]Result, error) {
	var results []Result
	for _, fc := range FeatureConfigs() {
		pe := planrep.NewPlanEncoder(sch.Cat, fc)
		trees := make([]*tree.EncTree, len(ds.Samples))
		cfg.Pool.ParallelFor(len(ds.Samples), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				trees[i] = pe.Encode(ds.Samples[i].Plan)
			}
		})
		trainIdx, testIdx := splitByQuery(ds, cfg.TrainFrac, mlmath.NewRNG(cfg.Seed))
		for _, mn := range ModelNames {
			rng := mlmath.NewRNG(cfg.Seed + 1000)
			enc, err := NewEncoder(mn, pe.FeatDim(), cfg.Hidden, rng)
			if err != nil {
				return nil, err
			}
			reg := tree.NewRegressor(enc, []int{32}, rng)
			var trainTrees []*tree.EncTree
			var trainYs []float64
			for _, i := range trainIdx {
				trainTrees = append(trainTrees, trees[i])
				trainYs = append(trainYs, ds.Samples[i].LogWork)
			}
			clock := mlmath.ClockOrSystem(cfg.Clock)
			start := clock.Now()
			reg.Fit(trainTrees, trainYs, tree.FitOptions{
				Epochs: cfg.Epochs, BatchSize: 16,
				Optimizer: nn.NewAdam(3e-3), RNG: mlmath.NewRNG(cfg.Seed + 2),
			})
			elapsed := clock.Now().Sub(start).Seconds()
			mae, rank := evaluate(reg, trees, ds, testIdx, cfg.Pool)
			results = append(results, Result{
				Feature: fc.Name(), Model: mn,
				MAE: mae, RankAcc: rank,
				TrainSec: elapsed, Params: nn.ParamCount(reg),
			})
		}
	}
	return results, nil
}

// splitByQuery assigns whole queries to train or test so no plan of a test
// query is seen in training.
func splitByQuery(ds *Dataset, trainFrac float64, rng *mlmath.RNG) (train, test []int) {
	perm := rng.Perm(ds.NumQueries)
	cut := int(float64(ds.NumQueries) * trainFrac)
	isTrain := make(map[int]bool, cut)
	for _, q := range perm[:cut] {
		isTrain[q] = true
	}
	for i, s := range ds.Samples {
		if isTrain[s.QueryIdx] {
			train = append(train, i)
		} else {
			test = append(test, i)
		}
	}
	return train, test
}

func evaluate(reg *tree.Regressor, trees []*tree.EncTree, ds *Dataset, testIdx []int, pool *mlmath.Pool) (mae, rankAcc float64) {
	testTrees := make([]*tree.EncTree, len(testIdx))
	for k, i := range testIdx {
		testTrees[k] = trees[i]
	}
	scores := reg.PredictBatch(testTrees, pool)
	preds := make(map[int]float64, len(testIdx))
	var absErr float64
	for k, i := range testIdx {
		p := scores[k]
		preds[i] = p
		d := p - ds.Samples[i].LogWork
		if d < 0 {
			d = -d
		}
		absErr += d
	}
	if len(testIdx) > 0 {
		mae = absErr / float64(len(testIdx))
	}
	// Global pairwise ranking over the test set (the "relative performance"
	// metric: does the representation order workloads correctly?).
	correct, total := 0, 0
	for a := 0; a < len(testIdx); a++ {
		for b := a + 1; b < len(testIdx); b++ {
			i, j := testIdx[a], testIdx[b]
			ti, tj := ds.Samples[i].LogWork, ds.Samples[j].LogWork
			//ml4db:allow floateq "exact tie on recorded labels: skipping tied pairs is the ranking-metric definition"
			if ti == tj {
				continue
			}
			total++
			if (preds[i] < preds[j]) == (ti < tj) {
				correct++
			}
		}
	}
	if total > 0 {
		rankAcc = float64(correct) / float64(total)
	}
	return mae, rankAcc
}

// SpreadAnalysis summarizes the study finding: the spread (max−min) of MAE
// across feature sets holding the model fixed, versus across models holding
// the feature set fixed. The paper's claim holds when the feature spread
// exceeds the model spread.
type SpreadAnalysis struct {
	MeanFeatureSpread float64 // averaged over models
	MeanModelSpread   float64 // averaged over feature sets
}

// AnalyzeSpread computes the SpreadAnalysis of study results.
func AnalyzeSpread(results []Result) SpreadAnalysis {
	byModel := make(map[string][]float64)
	byFeature := make(map[string][]float64)
	for _, r := range results {
		byModel[r.Model] = append(byModel[r.Model], r.MAE)
		byFeature[r.Feature] = append(byFeature[r.Feature], r.MAE)
	}
	spread := func(v []float64) float64 {
		if len(v) == 0 {
			return 0
		}
		lo, hi := v[0], v[0]
		for _, x := range v {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return hi - lo
	}
	var fs, ms float64
	for _, v := range byModel {
		fs += spread(v)
	}
	fs /= float64(len(byModel))
	for _, v := range byFeature {
		ms += spread(v)
	}
	ms /= float64(len(byFeature))
	return SpreadAnalysis{MeanFeatureSpread: fs, MeanModelSpread: ms}
}
