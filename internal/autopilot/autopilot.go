package autopilot

import (
	"fmt"
	"sync"
	"time"

	"ml4db/internal/mlmath"
	"ml4db/internal/qo"
	"ml4db/internal/querystore"
	"ml4db/internal/sqlkit/catalog"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
	"ml4db/internal/views"
)

// Host is the engine surface the autopilot acts through. *engine.Engine
// satisfies it; the indirection keeps autopilot importable from anywhere
// below the engine and mockable in tests.
type Host interface {
	// Catalog returns the shared catalog the host plans against.
	Catalog() *catalog.Catalog
	// Quiesce runs fn with no query planning or executing in flight. fn must
	// not run queries through the host.
	Quiesce(fn func())
	// NotifyDesignChange invalidates plans cached over the old physical
	// design after an index build/drop.
	NotifyDesignChange()
	// SetRewriters installs the view rewriters applied before planning
	// (and bumps the design version itself).
	SetRewriters(rs []plan.QueryRewriter)
}

// Options configures an Autopilot. Zero values take the documented defaults.
type Options struct {
	// Clock supplies event timestamps and mining cadence. Defaults to the
	// wall clock; replay-exact runs inject mlmath.ManualClock.
	Clock mlmath.Clock
	// Store is the querystore being mined. Required.
	Store *querystore.Store
	// Host is the engine being tuned. Required.
	Host Host

	// Interval is the minimum gap between mining passes (default 10s).
	// Ticks inside the gap only advance an open shadow trial.
	Interval time.Duration
	// TopStatements caps the mined workload per pass (default 16).
	TopStatements int
	// MaxViewCandidates caps the join pairs what-if probed per pass
	// (default 4).
	MaxViewCandidates int
	// MinWinFrac is the minimum estimated win as a fraction of the baseline
	// workload cost (default 0.05). BuildCostWeight scales the one-time
	// build charge subtracted from the win (default 1; negative disables).
	MinWinFrac      float64
	BuildCostWeight float64
	// MemoryBudgetBytes bounds the total adopted footprint (default 64 MiB).
	MemoryBudgetBytes int64

	// VerifyWindows is how many fresh sealed querystore windows a shadow
	// trial must span before judging (default 2). RegressRatio drops the
	// adoption when observed work per call exceeds baseline × ratio
	// (default 1.25).
	VerifyWindows int
	RegressRatio  float64

	// MaxEvents caps the retained ledger ring (default 256).
	MaxEvents int
}

// adoption is one live adopted object and what reverting it takes.
type adoption struct {
	kind      Kind
	target    string
	tableID   int
	col       int
	sizeBytes int64
	view      *views.Materialized // nil for indexes
}

// trial is an open shadow verification: the adoption under watch plus the
// pre-adoption baseline it is judged against.
type trial struct {
	adoptIdx    int // into a.adopted
	startWindow int64
	baselineWPC float64
	// baseline maps each affected statement shape to its lifetime totals at
	// adoption time; verification diffs live totals against these.
	baseline map[string]stmtTotals
}

// Autopilot drives the tuning loop. All state is guarded by mu; the loop
// advances only inside Tick, under host quiescence, on the caller's
// goroutine.
type Autopilot struct {
	opts  Options
	clock mlmath.Clock
	host  Host
	env   *qo.Env
	opt   *optimizer.Optimizer

	mu       sync.Mutex
	prev     map[string]stmtTotals
	adopted  []adoption
	memUsed  int64
	trial    *trial
	nextMine time.Time
	haveNext bool
	nameSeq  int
	hypoSeq  int
	seq      int64
	events   []TuningEvent
	scratch  []TuningEvent
}

// New returns an autopilot over the store and host.
func New(opts Options) (*Autopilot, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("autopilot: Options.Store is required")
	}
	if opts.Host == nil {
		return nil, fmt.Errorf("autopilot: Options.Host is required")
	}
	opts.Clock = mlmath.ClockOrSystem(opts.Clock)
	if opts.Interval <= 0 {
		opts.Interval = 10 * time.Second
	}
	if opts.TopStatements < 1 {
		opts.TopStatements = 16
	}
	if opts.MaxViewCandidates < 1 {
		opts.MaxViewCandidates = 4
	}
	if opts.MinWinFrac <= 0 {
		opts.MinWinFrac = 0.05
	}
	if opts.BuildCostWeight == 0 {
		opts.BuildCostWeight = 1
	}
	if opts.BuildCostWeight < 0 {
		opts.BuildCostWeight = 0
	}
	if opts.MemoryBudgetBytes <= 0 {
		opts.MemoryBudgetBytes = 64 << 20
	}
	if opts.VerifyWindows < 1 {
		opts.VerifyWindows = 2
	}
	if opts.RegressRatio <= 0 {
		opts.RegressRatio = 1.25
	}
	if opts.MaxEvents < 1 {
		opts.MaxEvents = 256
	}
	cat := opts.Host.Catalog()
	env := qo.NewEnv(cat)
	return &Autopilot{
		opts:  opts,
		clock: opts.Clock,
		host:  opts.Host,
		env:   env,
		opt:   env.Opt,
		prev:  map[string]stmtTotals{},
	}, nil
}

// Tick advances the loop one deterministic step under engine quiescence and
// returns the events it emitted. With a shadow trial open it only checks the
// trial; otherwise, once the mining interval has elapsed, it mines the
// store, costs candidates, and adopts at most one winner — one reversible
// change in flight at a time. Tick never runs queries through the host;
// driving the workload between ticks is the caller's job.
func (a *Autopilot) Tick() ([]TuningEvent, error) {
	now := a.clock.Now()
	var evs []TuningEvent
	var err error
	a.host.Quiesce(func() { evs, err = a.tickQuiesced(now) })
	return evs, err
}

// tickQuiesced is Tick's body, running with the host quiesced.
func (a *Autopilot) tickQuiesced(now time.Time) ([]TuningEvent, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.scratch = a.scratch[:0]
	var err error
	if a.trial != nil {
		a.verifyLocked(now)
	} else if !a.haveNext || !now.Before(a.nextMine) {
		err = a.minePass(now)
		a.nextMine = now.Add(a.opts.Interval)
		a.haveNext = true
	}
	return append([]TuningEvent(nil), a.scratch...), err
}

// adoptLocked builds and installs the winning proposal, then opens its
// shadow trial against the pre-adoption observed baseline.
func (a *Autopilot) adoptLocked(now time.Time, p *proposal, mined []MinedStatement) error {
	cat := a.host.Catalog()
	ad := adoption{kind: p.kind, target: p.target, tableID: p.tableID, col: p.col}
	switch p.kind {
	case KindIndex:
		t := cat.Table(p.tableID)
		ix := catalog.BuildSecondaryIndex(t, p.col)
		t.AddIndex(ix)
		ad.sizeBytes = int64(ix.SizeBytes())
		a.adopted = append(a.adopted, ad)
		a.host.NotifyDesignChange()
	case KindView:
		a.nameSeq++
		v, err := views.Materialize(a.env, p.viewCand, fmt.Sprintf("ap_view_%d", a.nameSeq))
		if err != nil {
			return fmt.Errorf("autopilot: materializing %s: %w", p.target, err)
		}
		ad.view = v
		ad.tableID = v.TableID
		ad.sizeBytes = int64(v.SizeBytes(cat))
		a.adopted = append(a.adopted, ad)
		a.host.SetRewriters(a.rewriterListLocked())
	}
	a.memUsed += ad.sizeBytes

	// Baseline: the affected statements' observed work per call over the
	// deltas this pass mined, plus their lifetime totals right now — the
	// trial diffs against those totals.
	affected := make(map[string]bool, len(p.affected))
	var bw, bc int64
	for _, i := range p.affected {
		affected[mined[i].Shape] = true
		bw += mined[i].DeltaWork
		bc += mined[i].DeltaCalls
	}
	baseline := make(map[string]stmtTotals, len(affected))
	for _, st := range a.opts.Store.Statements() {
		if affected[st.Shape] {
			baseline[st.Shape] = stmtTotals{work: st.TotalWork, calls: st.Calls, misses: st.PageMisses}
		}
	}
	wpc := 0.0
	if bc > 0 {
		wpc = float64(bw) / float64(bc)
	}
	a.trial = &trial{
		adoptIdx:    len(a.adopted) - 1,
		startWindow: a.opts.Store.LastWindowIndex(),
		baselineWPC: wpc,
		baseline:    baseline,
	}
	a.emitLocked(now, TuningEvent{
		Stage: StageAdopted, Kind: p.kind, Target: p.target,
		TableID: ad.tableID, Col: ad.col,
		EstBase: p.estBase, EstWith: p.estWith, BuildCost: p.buildCost,
		NetWin: p.netWin, SizeBytes: ad.sizeBytes, BaselineWPC: wpc,
	})
	return nil
}

// verifyLocked advances the open shadow trial: once enough fresh windows
// sealed and the affected statements saw traffic, compare observed work per
// call against the baseline and keep or revert the adoption.
func (a *Autopilot) verifyLocked(now time.Time) {
	tr := a.trial
	fresh := 0
	for _, w := range a.opts.Store.Windows() {
		if w.Index > tr.startWindow {
			fresh++
		}
	}
	if fresh < a.opts.VerifyWindows {
		return
	}
	var dw, dc int64
	for _, st := range a.opts.Store.Statements() {
		b, ok := tr.baseline[st.Shape]
		if !ok {
			continue
		}
		dw += st.TotalWork - b.work
		dc += st.Calls - b.calls
	}
	if dc == 0 {
		return // windows elapsed but the affected statements saw no traffic
	}
	obs := float64(dw) / float64(dc)
	ad := a.adopted[tr.adoptIdx]
	ev := TuningEvent{
		Kind: ad.kind, Target: ad.target, TableID: ad.tableID, Col: ad.col,
		SizeBytes: ad.sizeBytes, BaselineWPC: tr.baselineWPC,
		ObservedWPC: obs, TrialCalls: dc,
	}
	if obs <= tr.baselineWPC*a.opts.RegressRatio {
		ev.Stage = StageKept
	} else {
		ev.Stage = StageDropped
		a.revertLocked(tr.adoptIdx)
	}
	a.emitLocked(now, ev)
	a.trial = nil
}

// revertLocked undoes the adoption at idx: the index is dropped, or the view
// is unplugged from the rewrite path first and then emptied.
func (a *Autopilot) revertLocked(idx int) {
	ad := a.adopted[idx]
	cat := a.host.Catalog()
	a.adopted = append(a.adopted[:idx], a.adopted[idx+1:]...)
	switch ad.kind {
	case KindIndex:
		cat.Table(ad.tableID).DropIndex(ad.col)
		a.host.NotifyDesignChange()
	case KindView:
		a.host.SetRewriters(a.rewriterListLocked())
		views.Drop(cat, ad.view)
	}
	a.memUsed -= ad.sizeBytes
}

// rewriterListLocked renders the adopted views as the host's rewriter chain.
func (a *Autopilot) rewriterListLocked() []plan.QueryRewriter {
	var rs []plan.QueryRewriter
	for _, ad := range a.adopted {
		if ad.view != nil {
			rs = append(rs, ad.view)
		}
	}
	return rs
}

// Adoption describes one live adopted tuning object.
type Adoption struct {
	Kind      Kind
	Target    string
	TableID   int
	Col       int
	SizeBytes int64
}

// Adoptions lists the currently adopted objects in adoption order.
func (a *Autopilot) Adoptions() []Adoption {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Adoption, len(a.adopted))
	for i, ad := range a.adopted {
		out[i] = Adoption{Kind: ad.kind, Target: ad.target, TableID: ad.tableID, Col: ad.col, SizeBytes: ad.sizeBytes}
	}
	return out
}

// MemoryUsed returns the total adopted footprint in bytes.
func (a *Autopilot) MemoryUsed() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.memUsed
}
