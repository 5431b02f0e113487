package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"ml4db/internal/engine"
)

// clientCount is the number of closed-loop clients: one, or one per CPU the
// process may use. There are never more clients than CPUs.
func clientCount(many bool) int {
	if !many {
		return 1
	}
	n := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < n {
		n = g
	}
	return n
}

// phaseOpts configures one measured phase.
type phaseOpts struct {
	dur time.Duration
	// minPerClient queries run per client even past the deadline, so every
	// run covers the same stream prefix.
	minPerClient int
	// analyze collects EXPLAIN ANALYZE stats (traced phase).
	analyze bool
	// record, when non-nil, receives each result's row-sequence fingerprint
	// by client and stream index.
	record [][]uint64
	// compare, when non-nil, holds fingerprints a query's rows must match.
	compare [][]uint64
	// observe, when non-nil, sees every completed call (traced phase).
	observe func(client int, q *query, start, end time.Time, res *engine.Result)
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	latMs               []float64
	attempted, failed   int
	wall                time.Duration
	mallocs, allocBytes uint64
	heapLiveBytes       uint64
	firstErr            error
	perClientCompleted  []int
}

func (p *phase) qps() float64 { return float64(p.attempted) / p.wall.Seconds() }

// runPhase drives the streams through the engine as a closed loop: each
// client goroutine issues its next query only when the previous one has
// returned and been checked. Latency is the Session.Query or Session.Run
// call alone; checking happens outside it but inside the wall time.
func runPhase(eng *engine.Engine, streams [][]*query, o phaseOpts) *phase {
	type clientOut struct {
		lat               []float64
		attempted, failed int
		err               error
	}
	outs := make([]clientOut, len(streams))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(o.dur)
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			stream := streams[c]
			s := eng.Session()
			s.Analyze = o.analyze
			for i := 0; i < o.minPerClient || time.Now().Before(deadline); i++ {
				q := stream[i%len(stream)]
				t0 := time.Now()
				rows, res, err := q.run(s)
				t1 := time.Now()
				out.lat = append(out.lat, float64(t1.Sub(t0))/float64(time.Millisecond))
				out.attempted++
				if err == nil {
					err = q.exp.check(rows)
				}
				if err == nil && (o.record != nil || o.compare != nil) && i < len(stream) {
					fp := seqHash(rows) | 1
					if o.record != nil {
						o.record[c][i] = fp
					}
					if o.compare != nil && o.compare[c][i] != 0 && o.compare[c][i] != fp {
						err = fmt.Errorf("traced rows differ from the untraced rows")
					}
				}
				if err != nil {
					out.failed++
					if out.err == nil {
						out.err = fmt.Errorf("%s: %w", q.label(), err)
					}
				}
				if o.observe != nil && res != nil {
					o.observe(c, q, t0, t1, res)
				}
			}
		}(c)
	}
	wg.Wait()
	p := &phase{wall: time.Since(start)}
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&after)
	p.heapLiveBytes = after.HeapAlloc
	for _, out := range outs {
		p.latMs = append(p.latMs, out.lat...)
		p.attempted += out.attempted
		p.failed += out.failed
		p.perClientCompleted = append(p.perClientCompleted, out.attempted)
		if p.firstErr == nil {
			p.firstErr = out.err
		}
	}
	return p
}

func newFingerprints(streams [][]*query) [][]uint64 {
	fp := make([][]uint64, len(streams))
	for c, s := range streams {
		fp[c] = make([]uint64, len(s))
	}
	return fp
}
