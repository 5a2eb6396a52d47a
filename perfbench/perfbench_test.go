package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"mobiledist/internal/workload"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4) from CPython, including its extrapolation on tiny samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 2}, 1.4375, 7.625},
		{[]float64{5, 1}, 0, 6},
		{[]float64{10, 20, 30}, 10, 30},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{Kind: spanRun, Parent: -1, Start: 0, End: 100},
		{Kind: spanInject, Parent: 0, Start: 10, End: 20},
		{Kind: spanInject, Parent: 0, Start: 15, End: 30},   // overlaps the first
		{Kind: spanHandler, Parent: 0, Start: 50, End: 60},  // disjoint
		{Kind: spanHandler, Parent: 0, Start: 90, End: 120}, // runs past the parent
		{Kind: spanSend, Parent: 1, Start: 11, End: 19},     // grandchild: not subtracted again
	}
	// Covered: [10,30] + [50,60] + [90,100] = 40.
	if got := selfTime(spans, 0); got != 60 {
		t.Errorf("selfTime(run) = %d, want 60", got)
	}
	if got := selfTime(spans, 1); got != 2 {
		t.Errorf("selfTime(inject) = %d, want 2", got)
	}
	if got := selfTime(spans, 5); got != 8 {
		t.Errorf("selfTime(leaf) = %d, want 8", got)
	}
	if sum, n := total(spans, spanInject); sum != 25 || n != 2 {
		t.Errorf("total(inject) = %d over %d, want 25 over 2", sum, n)
	}
}

func TestWindowPercentiles(t *testing.T) {
	var due []int64
	var lat []float64
	win := time.Second
	// Two full windows of 1000 samples and a short third one.
	for w := 0; w < 3; w++ {
		n := 1000
		if w == 2 {
			n = 10
		}
		for i := 0; i < n; i++ {
			due = append(due, int64(w)*int64(win)+int64(i))
			lat = append(lat, float64(w*1000+i))
		}
	}
	p50, _, p99 := windowPercentiles(due, lat, 0, win)
	if len(p50) != 2 || len(p99) != 2 {
		t.Fatalf("got %d windows, want 2 (the short one dropped)", len(p50))
	}
	if !near(p50[0], 499.5) || !near(p99[1], 1000+989.01) {
		t.Errorf("window percentiles p50=%v p99=%v", p50, p99)
	}
}

// TestPlanBatchesEveryOpOnce checks the tick batching follows the
// generator's chain rule and schedules each op exactly once.
func TestPlanBatchesEveryOpOnce(t *testing.T) {
	sc, err := workload.GenScale(workload.ScaleConfig{N: 50, M: 5, Seed: 3, Kind: workload.ScaleSearchChase, Ops: 400, Chains: 40})
	if err != nil {
		t.Fatal(err)
	}
	ticks, batches := plan(sc, 40)
	seen := make([]int, len(sc.Ops))
	dueOf := make([]int64, len(sc.Ops))
	for i, b := range batches {
		if i > 0 && ticks[i] <= ticks[i-1] {
			t.Fatalf("ticks not ascending at %d", i)
		}
		for _, idx := range b {
			seen[idx]++
			dueOf[idx] = int64(ticks[i])
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("op %d scheduled %d times", i, n)
		}
		want := int64(sc.Ops[i].Wait)
		if i >= 40 {
			want += dueOf[i-40]
		}
		if dueOf[i] != want {
			t.Fatalf("op %d due at %d, want %d", i, dueOf[i], want)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the names are checked
// against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// The heap sampler reads HeapInuse without stopping the world; with
// nothing allocating between the two reads it must agree with MemStats.
func TestHeapSamplerReadsHeapInuse(t *testing.T) {
	keep := make([][]byte, 64)
	for i := range keep {
		keep[i] = make([]byte, 64<<10)
	}
	h := &heapSampler{samples: startHeapSampler(time.Hour).samples}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.sample()
	if h.peak != ms.HeapInuse {
		t.Errorf("sampler read %d B, MemStats.HeapInuse %d B", h.peak, ms.HeapInuse)
	}
	runtime.KeepAlive(keep)
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); got != strings.Join(names, ", ") {
		t.Errorf("workloads %q, BENCHMARK.json has %q", got, names)
	}
	check := func(kind string, defs []metricDef, decl []struct{ Name, Unit, Better string }) {
		if len(defs) != len(decl) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(defs), len(decl))
			return
		}
		for i, d := range defs {
			if d.Name != decl[i].Name || d.Unit != decl[i].Unit {
				t.Errorf("%s #%d: %s (%s) here, %s (%s) in BENCHMARK.json", kind, i, d.Name, d.Unit, decl[i].Name, decl[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}

// lastResult parses the result object a report ends with.
func lastResult(t *testing.T, out string) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r jsonResult
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not a result object: %v\n%s", err, out)
	}
	return r
}

// smoke runs a workload at tiny size untraced and traced, and requires a
// correct result carrying every metric of each mode.
func smoke(t *testing.T, run func(runConfig, *result) error, seconds time.Duration, minReps int) {
	for _, trace := range []bool{false, true} {
		res := newResult()
		cfg := runConfig{seed: 7, seconds: seconds, trace: trace, minReps: minReps}
		if err := run(cfg, res); err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		var buf bytes.Buffer
		res.report(&buf, trace)
		r := lastResult(t, buf.String())
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d\n%s", trace, r.Correct, r.Failed, r.Attempted, buf.String())
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if len(r.Metrics) != len(defs) {
			t.Fatalf("trace=%v: %d metrics, want %d", trace, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := r.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s missing or in the wrong unit", trace, d.Name)
			}
		}
		if trace && r.Metrics["engine.live_recs_end"].Value != 0 {
			t.Errorf("live records at the end: %v", r.Metrics["engine.live_recs_end"].Value)
		}
	}
}

func TestSmokeSimRoute(t *testing.T) {
	size := simSize{kind: workload.ScaleRoute, n: 2000, m: 20, ops: 4000, chains: 4000, shards: 8}
	smoke(t, func(c runConfig, r *result) error { return runSim(size, c, r) }, time.Millisecond, 2)
}

func TestSmokeSimChase(t *testing.T) {
	size := simSize{kind: workload.ScaleSearchChase, n: 1000, m: 10, ops: 4000}
	smoke(t, func(c runConfig, r *result) error { return runSim(size, c, r) }, time.Millisecond, 2)
}

// The net smoke sends at a third of the workload's rate, which the UDP
// cluster sustains even under the race detector, for one 1.5s latency
// window in the open loop of a single repetition.
func TestSmokeNetUDP(t *testing.T) {
	size := netUDP
	size.reps, size.rate = 1, 1000
	smoke(t, func(c runConfig, r *result) error { return runNet(size, c, r) }, 3*time.Second, 1)
}
