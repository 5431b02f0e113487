package main

// Executor benchmark mode (-exec): exercises the partitioned parallel
// operators in internal/sqlkit/exec and writes BENCH_exec.json.
//
//   - per-operator speedup: for SeqScan, HashJoin, and HashAgg plans the
//     optimizer is asked to partition (Parallelism = worker count) and the
//     partitioned execution over an mlmath.Pool is timed against the same
//     plan with every Partitions annotation stripped. With GOMAXPROCS ≥ 4
//     (speedup_gate_enforced: true) the slowest operator must still clear
//     2×; with fewer CPUs the measured speedup is recorded, not enforced;
//   - bit-identity: every parallel run must return byte-identical rows, an
//     identical work total, and identical per-category counters to the
//     serial run — and must stay identical when the same partitioned plan
//     runs over pools with different worker counts (the exchange contract:
//     Partitions decides the shard layout, workers only decide who runs
//     which shard);
//   - abort identity: with a work budget that trips mid-operator, serial
//     and parallel runs must fail with the same typed BudgetExceededError
//     (same kind, limit, and used count), the same work total, and the
//     same counters;
//   - plan-cache coherence: an engine plan cached at one parallelism degree
//     must never be served at another — switching the knob re-plans, and
//     switching back re-hits the original entry.
//
// Any violated contract makes the benchmark exit nonzero; check.sh runs the
// -quick variant as a smoke test.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"

	"ml4db/internal/engine"
	"ml4db/internal/mlmath"
	"ml4db/internal/obs"
	"ml4db/internal/sqlkit/datagen"
	"ml4db/internal/sqlkit/exec"
	"ml4db/internal/sqlkit/expr"
	"ml4db/internal/sqlkit/optimizer"
	"ml4db/internal/sqlkit/plan"
)

type execOpReport struct {
	Name        string  `json:"name"`
	Rows        int     `json:"rows"`
	Partitions  int     `json:"partitions"`
	SerialSec   float64 `json:"serial_sec"`
	ParallelSec float64 `json:"parallel_sec"`
	Speedup     float64 `json:"speedup"`
}

type execReport struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	Seed       uint64 `json:"seed"`
	Quick      bool   `json:"quick"`

	Workers  int `json:"workers"`
	FactRows int `json:"fact_rows"`
	// SpeedupGateEnforced is set when GOMAXPROCS ≥ 4, the only case where
	// the ≥2× speedup is required.
	SpeedupGateEnforced bool `json:"speedup_gate_enforced"`

	Operators []execOpReport `json:"operators"`

	BitIdentical   bool `json:"bit_identical"`
	AbortIdentical bool `json:"abort_identical"`
	CacheCoherent  bool `json:"cache_coherent"`
}

// stripExecPartitions clears every Partitions annotation, yielding the
// serial reference plan for an identity comparison.
func stripExecPartitions(p *plan.Node) *plan.Node {
	c := p.Clone()
	c.Walk(func(n *plan.Node) { n.Partitions = 0 })
	return c
}

func maxExecPartitions(p *plan.Node) int {
	parts := 1
	p.Walk(func(n *plan.Node) {
		if n.Partitions > parts {
			parts = n.Partitions
		}
	})
	return parts
}

// sameExecResult reports whether two executions are bit-identical: rows,
// work total, and the per-category counter breakdown.
func sameExecResult(a, b *exec.Result) bool {
	return a.Work == b.Work && a.Counters == b.Counters && reflect.DeepEqual(a.Rows, b.Rows)
}

func runExecBench(seed uint64, outPath string, quick bool) error {
	reps := 3
	factRows, dimRows := 120000, 400
	if quick {
		reps = 1
		factRows = 24000
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	if workers > 8 {
		workers = 8
	}
	rep := execReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: seed, Quick: quick,
		Workers: workers, FactRows: factRows,
		SpeedupGateEnforced: runtime.GOMAXPROCS(0) >= 4,
		BitIdentical:        true,
	}

	sch, err := datagen.NewStarSchema(mlmath.NewRNG(seed), factRows, dimRows, 2)
	if err != nil {
		return err
	}
	pool := mlmath.NewPool(workers)
	defer pool.Close()
	// A second, smaller pool proves worker-count independence: the same
	// partitioned plan must produce the same bytes regardless of who runs
	// which shard.
	altPool := mlmath.NewPool(3)
	defer altPool.Close()

	scanQ := plan.NewQuery(sch.FactID)
	scanQ.AddFilter(0, expr.Pred{Col: sch.AttrCols[0], Op: expr.LE, Lo: 700})
	joinQ := plan.NewQuery(sch.FactID, sch.DimIDs[0], sch.DimIDs[1])
	joinQ.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: sch.FKCol[0], RightTable: 1, RightCol: 0})
	joinQ.AddJoin(expr.JoinCond{LeftTable: 0, LeftCol: sch.FKCol[1], RightTable: 2, RightCol: 0})
	aggQ := plan.NewQuery(sch.FactID)
	aggQ.SetAgg(0, sch.FKCol[0], plan.AggCol{Table: 0, Col: sch.AttrCols[0]})

	exc := exec.New(sch.Cat)
	cases := []struct {
		name string
		q    *plan.Query
	}{
		{"seqscan", scanQ},
		{"hashjoin", joinQ},
		{"hashagg", aggQ},
	}
	rep.AbortIdentical = true
	for _, c := range cases {
		opt := optimizer.New(sch.Cat)
		opt.Parallelism = workers
		par, err := opt.Plan(c.q, optimizer.NoHint())
		if err != nil {
			return err
		}
		parts := maxExecPartitions(par)
		if parts < 2 {
			return fmt.Errorf("%s: optimizer never partitioned (%d fact rows, parallelism %d); speedup would be vacuous", c.name, factRows, workers)
		}
		serial := stripExecPartitions(par)

		serRes, err := exc.Execute(serial, exec.Options{})
		if err != nil {
			return err
		}
		parRes, err := exc.Execute(par, exec.Options{Pool: pool})
		if err != nil {
			return err
		}
		altRes, err := exc.Execute(par, exec.Options{Pool: altPool})
		if err != nil {
			return err
		}
		if !sameExecResult(serRes, parRes) || !sameExecResult(serRes, altRes) {
			rep.BitIdentical = false
			return fmt.Errorf("%s: parallel result differs from serial (serial work=%d rows=%d, pool[%d] work=%d rows=%d, pool[3] work=%d rows=%d)",
				c.name, serRes.Work, len(serRes.Rows), workers, parRes.Work, len(parRes.Rows), altRes.Work, len(altRes.Rows))
		}

		opRep := execOpReport{Name: c.name, Rows: len(serRes.Rows), Partitions: parts}
		opRep.SerialSec = bestOf(reps, func() {
			if _, err := exc.Execute(serial, exec.Options{}); err != nil {
				panic(err)
			}
		})
		opRep.ParallelSec = bestOf(reps, func() {
			if _, err := exc.Execute(par, exec.Options{Pool: pool}); err != nil {
				panic(err)
			}
		})
		opRep.Speedup = opRep.SerialSec / opRep.ParallelSec
		rep.Operators = append(rep.Operators, opRep)
		fmt.Printf("%-24s serial %8.4fs  parallel %8.4fs  speedup %.2fx  (parts=%d rows=%d)\n",
			c.name, opRep.SerialSec, opRep.ParallelSec, opRep.Speedup, parts, opRep.Rows)

		// Abort identity: a budget that trips mid-operator must stop serial
		// and parallel runs at the same typed error (same kind, limit, and
		// used count), the same work total, and the same counters. Execute
		// discards partial rows on error, so the row comparison is the
		// empty-vs-empty degenerate case; the counter identity is the real
		// assertion that the shard charging stopped at the same charge.
		budget := exec.Options{Budget: &exec.Budget{MaxWork: serRes.Work * 3 / 4}}
		serAb, serErr := exc.Execute(serial, budget)
		budget.Pool = pool
		parAb, parErr := exc.Execute(par, budget)
		var serBE, parBE *exec.BudgetExceededError
		identical := errors.As(serErr, &serBE) && errors.As(parErr, &parBE) &&
			*serBE == *parBE && sameExecResult(serAb, parAb)
		if !identical {
			rep.AbortIdentical = false
			return fmt.Errorf("%s: budget abort diverged: serial err=%v work=%d rows=%d, parallel err=%v work=%d rows=%d",
				c.name, serErr, serAb.Work, len(serAb.Rows), parErr, parAb.Work, len(parAb.Rows))
		}
		fmt.Printf("%-24s limit %d  used %d  identical %v\n",
			c.name+"_abort", budget.Budget.MaxWork, serAb.Work, identical)
	}
	if rep.SpeedupGateEnforced {
		for _, op := range rep.Operators {
			if op.Speedup < 2.0 {
				return fmt.Errorf("%s: speedup %.2fx < 2x with GOMAXPROCS=%d", op.Name, op.Speedup, rep.GOMAXPROCS)
			}
		}
	}

	// Plan-cache coherence across the parallelism knob: cached at p=workers,
	// re-planned serial at p=1, re-hit when switched back.
	reg := obs.NewRegistry()
	eng := engine.New(sch.Cat, engine.Options{Metrics: reg, Pool: pool})
	first, err := eng.Run(joinQ)
	if err != nil {
		return err
	}
	eng.SetParallelism(1)
	serialRun, err := eng.Run(joinQ)
	if err != nil {
		return err
	}
	eng.SetParallelism(workers)
	back, err := eng.Run(joinQ)
	if err != nil {
		return err
	}
	stillSerial := true
	serialRun.Plan.Walk(func(n *plan.Node) {
		if n.Partitions > 1 {
			stillSerial = false
		}
	})
	rep.CacheCoherent = !serialRun.CacheHit && stillSerial && back.CacheHit &&
		back.Plan.String() == first.Plan.String() &&
		reflect.DeepEqual(first.Rows, serialRun.Rows)
	if !rep.CacheCoherent {
		return fmt.Errorf("plan-cache coherence violated across parallelism change: p1Hit=%v p1Serial=%v backHit=%v",
			serialRun.CacheHit, stillSerial, back.CacheHit)
	}
	fmt.Printf("%-24s p=%d cached, p=1 re-planned serial, p=%d re-hit\n",
		"cache_coherence", workers, workers)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (gomaxprocs=%d, speedup_gate_enforced=%v)\n", outPath, rep.GOMAXPROCS, rep.SpeedupGateEnforced)
	return nil
}
