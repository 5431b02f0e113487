package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// tiny returns a small copy of the named workload: the same generators and
// engine configuration over a few thousand fact rows.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *w
	c.factRows /= 40
	if c.dimRows > 400 {
		c.dimRows = 400
	}
	return &c
}

func TestPercentileRefusesThinTail(t *testing.T) {
	values := make([]float64, 199)
	for i := range values {
		values[len(values)-1-i] = float64(i + 1)
	}
	if _, err := percentile(values, 0.95); err == nil {
		t.Fatal("p95 of 199 samples has only 9 beyond it and must be refused")
	}
	values = append(values, 200)
	p95, err := percentile(values, 0.95)
	if err != nil {
		t.Fatalf("p95 of 200 samples: %v", err)
	}
	if p95 != 190 {
		t.Fatalf("p95 of 1..200 = %v, want 190 (nearest rank)", p95)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples must be refused")
	}
}

// setUpTiny sets up a tiny workload and fills in every stream query's
// expected answer.
func setUpTiny(t *testing.T, w *workload) (*instance, [][]*query, []*query) {
	t.Helper()
	streams, warm := w.streams(w, 3, clientCount(w.manyClients), 1)
	in, err := setUp(w, 3, filepath.Join(t.TempDir(), "data"), warm)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(in.close)
	bind(in.ss, streams...)
	answerAll(in.db, streams...)
	return in, streams, warm
}

func TestOracleAgreesWithEngine(t *testing.T) {
	for _, name := range []string{"olap-mem", "adhoc-plan", "spill-mixed"} {
		t.Run(name, func(t *testing.T) {
			in, streams, _ := setUpTiny(t, tiny(t, name))
			s := in.eng.Session()
			nonEmpty := 0
			for i := 0; i < 40; i++ {
				q := streams[0][i%len(streams[0])]
				rows, _, err := q.run(s)
				if err != nil {
					t.Fatalf("%s: %v", q.label(), err)
				}
				if err := q.exp.check(rows); err != nil {
					t.Fatalf("%s: %v", q.label(), err)
				}
				if len(rows) > 0 {
					nonEmpty++
				}
			}
			if nonEmpty < 10 {
				t.Fatalf("only %d of 40 queries returned rows; the check is too weak", nonEmpty)
			}
		})
	}
}

func TestCorruptedResultCountsAsError(t *testing.T) {
	in, streams, _ := setUpTiny(t, tiny(t, "olap-mem"))
	s := in.eng.Session()
	checked := 0
	for _, q := range streams[0] {
		rows, _, err := q.run(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) < 2 {
			continue
		}
		copyRows := func() [][]int64 {
			out := make([][]int64, len(rows))
			for i, r := range rows {
				out[i] = append([]int64(nil), r...)
			}
			return out
		}
		bad := copyRows()
		bad = bad[:len(bad)-1]
		if q.exp.check(bad) == nil {
			t.Fatalf("%s: a missing row passed the check", q.label())
		}
		bad = copyRows()
		mid := bad[len(bad)/2]
		mid[len(mid)-1] += 1000003 // outside every generated domain
		if q.exp.check(bad) == nil {
			t.Fatalf("%s: a changed value passed the check", q.label())
		}
		if q.exp.ordered && !equal(rows[0], rows[len(rows)-1]) {
			bad = copyRows()
			bad[0], bad[len(bad)-1] = bad[len(bad)-1], bad[0]
			if q.exp.check(bad) == nil {
				t.Fatalf("%s: reordered aggregate rows passed the check", q.label())
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no query returned two or more rows")
	}

	// In the loop, a wrong answer is a failed query.
	q := streams[0][0]
	wrong := *q.exp
	wrong.hash ^= 1
	bad := &query{spec: q.spec, sql: q.sql, pq: q.pq, exp: &wrong}
	p := runPhase(in.eng, [][]*query{{bad}}, phaseOpts{dur: time.Millisecond, minPerClient: 3})
	if p.failed != p.attempted || p.firstErr == nil {
		t.Fatalf("wrong answers: %d failed of %d attempted, first error %v", p.failed, p.attempted, p.firstErr)
	}
}

// benchmarkFile is the part of BENCHMARK.json the metric names live in.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestEmitsExactlyTheMetricsOfBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, wl := range b.Workloads {
		for _, traced := range []bool{false, true} {
			w := tiny(t, wl.Name)
			res, _, err := measureWorkload(w, config{seed: 5, seconds: 1, trace: traced, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s traced=%v: %d of %d queries failed", wl.Name, traced, res.Failed, res.Attempted)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !sameMap(got, want[traced]) {
				t.Fatalf("%s traced=%v emits %v, BENCHMARK.json names %v", wl.Name, traced, keys(got), keys(want[traced]))
			}
		}
	}
}

func sameMap(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func keys(m map[string]string) []string {
	var out []string
	for k, v := range m {
		out = append(out, k+"["+v+"]")
	}
	sort.Strings(out)
	return out
}
