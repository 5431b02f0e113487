package querystore

import (
	"testing"
	"time"

	"ml4db/internal/modelsvc"
	"ml4db/internal/sqlkit/plan"
)

// obsWithQErr fabricates an observation whose single-node plan yields the
// given q-error (est = q*actual pseudocounted away by large numbers).
func obsWithQErr(version int, q float64) Observation {
	n := plan.NewScan(0, 0, nil)
	n.EstRows = q*1e6 - 1
	return Observation{Shape: "q", Plan: n, Actuals: plan.Actuals{n: {Rows: 1e6 - 1}}, EstimatorVersion: version}
}

func TestQErrorDrift(t *testing.T) {
	var fired []DriftEvent
	s, mc := manualStore(Options{
		Drift:   DriftOptions{Recent: 2, Baseline: 3, QErrRatio: 2},
		OnDrift: func(ev DriftEvent) { fired = append(fired, ev) },
	})
	// Three baseline windows at q-error ~1, then two recent at ~4.
	for i := 0; i < 3; i++ {
		s.Record(obsWithQErr(1, 1))
		mc.Advance(time.Second)
	}
	for i := 0; i < 2; i++ {
		s.Record(obsWithQErr(1, 4))
		mc.Advance(time.Second)
	}
	s.Record(Observation{Shape: "pad"}) // seals the 5th window
	s.Flush()

	evs := s.DriftEvents()
	if len(evs) != 1 {
		t.Fatalf("drift events = %+v, want exactly 1", evs)
	}
	ev := evs[0]
	if ev.Kind != DriftQError || ev.EstimatorVersion != 1 {
		t.Errorf("event = %+v, want qerror drift for version 1", ev)
	}
	if ev.After <= ev.Before*2 {
		t.Errorf("after %v not above ratio threshold over before %v", ev.After, ev.Before)
	}
	if len(ev.Evidence) != 2 {
		t.Errorf("evidence = %+v, want the 2 recent windows", ev.Evidence)
	}
	if len(fired) != 1 || fired[0].Seq != ev.Seq {
		t.Errorf("OnDrift saw %+v, want the stored event", fired)
	}
}

func TestFallbackDriftAndCooldown(t *testing.T) {
	s, mc := manualStore(Options{
		Drift: DriftOptions{Recent: 1, Baseline: 2, FallbackJump: 0.5},
	})
	// Two clean baseline windows, then fallback-heavy windows.
	for i := 0; i < 2; i++ {
		s.Record(Observation{Shape: "a"})
		mc.Advance(time.Second)
	}
	for i := 0; i < 2; i++ {
		s.Record(Observation{Shape: "a", Fallback: true})
		mc.Advance(time.Second)
	}
	s.Flush()
	evs := s.DriftEvents()
	if len(evs) != 1 {
		t.Fatalf("drift events = %+v, want 1 (cooldown must suppress the repeat)", evs)
	}
	if evs[0].Kind != DriftFallback {
		t.Errorf("kind = %v, want fallback", evs[0].Kind)
	}
}

func TestHitRateDrift(t *testing.T) {
	var pool fakePool
	s, mc := manualStore(Options{
		Pool:  &pool,
		Drift: DriftOptions{Recent: 1, Baseline: 2, HitRateDrop: 0.3},
	})
	hits, misses := int64(0), int64(0)
	step := func(h, m int64) {
		hits += h
		misses += m
		pool.stats.Hits, pool.stats.Misses = hits, misses
		s.Record(Observation{Shape: "a"})
		mc.Advance(time.Second)
	}
	// A window's pool delta is sampled when it seals, i.e. when the NEXT
	// step's Record advances past it — so each step's traffic lands in the
	// previous window.
	step(0, 0)   // opens window 0
	step(90, 10) // seals window 0 at 0.9 (baseline)
	step(90, 10) // seals window 1 at 0.9 (baseline)
	step(10, 90) // seals window 2 at 0.1 (the collapse)
	s.Flush()
	evs := s.DriftEvents()
	if len(evs) != 1 || evs[0].Kind != DriftHitRate {
		t.Fatalf("drift events = %+v, want one hitrate event", evs)
	}
	if evs[0].Before < 0.8 || evs[0].After > 0.2 {
		t.Errorf("before/after = %v/%v, want ~0.9 -> ~0.1", evs[0].Before, evs[0].After)
	}
}

func TestModelEventsFromRollout(t *testing.T) {
	s, _ := manualStore(Options{})
	s.RecordModelInstall(1)

	r := modelsvc.NewRollout(
		modelsvc.Deployment{Version: 1, Model: constModel(10)},
		modelsvc.RolloutOptions{Window: 2, Events: RolloutSink(s)},
	)
	r.SetCandidate(modelsvc.Deployment{Version: 2, Model: constModel(5)})
	// Candidate is closer to truth 6: promoted after the window fills.
	r.Observe([]float64{0}, 6)
	if out := r.Observe([]float64{0}, 6); out != modelsvc.OutcomePromoted {
		t.Fatalf("outcome = %v, want promoted", out)
	}
	if !r.Demote() {
		t.Fatal("demote failed")
	}

	evs := s.ModelEvents()
	want := []struct {
		action    ModelAction
		version   int
		incumbent int
	}{
		{ModelInstall, 1, 1},
		{ModelCandidate, 2, 1},
		{ModelPromoted, 2, 2},
		{ModelDemoted, 1, 1},
	}
	if len(evs) != len(want) {
		t.Fatalf("model events = %+v, want %d", evs, len(want))
	}
	for i, w := range want {
		e := evs[i]
		if e.Action != w.action || e.Version != w.version || e.Incumbent != w.incumbent {
			t.Errorf("event %d = %+v, want %+v", i, e, w)
		}
		if e.Seq != int64(i+1) {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, i+1)
		}
	}
}

type constModel float64

func (m constModel) Predict([]float64) float64 { return float64(m) }
