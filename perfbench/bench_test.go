package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sync"
	"testing"
	"time"
)

func TestPercentileSampleCountRule(t *testing.T) {
	xs := make([]float64, 1010)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	if v, ok := percentile(xs, 99); !ok || v != 1000 {
		t.Fatalf("p99 of 1..1010 = %v, %v; want 1000 (nearest rank), true", v, ok)
	}
	if _, ok := percentile(xs[:1000], 99); !ok {
		t.Fatal("p99 of 1000 samples has 10 beyond it, want allowed")
	}
	if _, ok := percentile(xs[:999], 99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond it, want refused")
	}
	if v, ok := percentile(xs[:20], 50); !ok || v != 1000 {
		t.Fatalf("p50 of 991..1010 = %v, %v; want 1000, true", v, ok)
	}
	if _, ok := percentile(xs[:19], 50); ok {
		t.Fatal("p50 of 19 samples has only 9 beyond it, want refused")
	}
	if xs[0] != 1010 {
		t.Fatal("percentile sorted its input in place")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{20, 40}, {10, 30}, // overlapping fan-out: covers 10..40
		{90, 120}, // sticks out of the parent: covers 90..100
		{-5, 5},   // starts before the parent: covers 0..5
		{50, 50},  // empty
	}
	if got := selfTime(parent, children); got != 55 {
		t.Fatalf("selfTime = %v, want 55", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime without children = %v, want 100", got)
	}
}

func TestSpanSetSelfTimeUsesOnlyNamedChildren(t *testing.T) {
	tr := newTracer()
	ctx, parent := tr.start(context.Background(), "parent")
	_, child := tr.start(ctx, "child")
	time.Sleep(2 * time.Millisecond)
	child.end(1)
	_, other := tr.start(ctx, "other")
	other.end(1)
	parent.end(1)
	set := indexSpans(tr.snapshot())
	spans := set.byName["child"]
	if len(spans) != 1 || spans[0].Parent != set.byName["parent"][0].ID || spans[0].Req != set.byName["parent"][0].Req {
		t.Fatalf("child span not linked to its parent: %+v", tr.snapshot())
	}
	total := set.meanUS("parent")
	self := set.meanSelfUS("parent", "child")
	if want := total - set.meanUS("child"); math.Abs(self-want) > 1e-6 {
		t.Fatalf("self time %v, want parent %v minus child = %v", self, total, want)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ctx := context.Background()
	got, sp := tr.start(ctx, "x")
	sp.end(1)
	if got != ctx || sp != nil || sp.requestID() != "" || tr.snapshot() != nil {
		t.Fatal("a nil tracer must be a no-op")
	}
}

func TestProcessCPUCountsWorkNotWaiting(t *testing.T) {
	c0 := processCPU()
	time.Sleep(50 * time.Millisecond)
	if d := processCPU() - c0; d > 20*time.Millisecond {
		t.Fatalf("sleeping 50ms cost %v of CPU, want next to none", d)
	}
	c0 = processCPU()
	for start := time.Now(); time.Since(start) < 50*time.Millisecond; {
	}
	if d := processCPU() - c0; d < 25*time.Millisecond {
		t.Fatalf("spinning 50ms cost %v of CPU, want most of it", d)
	}
}

func TestCostMetricsAreRoundMedians(t *testing.T) {
	costs := []cpuCost{
		{setup: 2 * time.Second, phase: 100 * time.Millisecond, ops: 1000}, // 100 us/op
		{setup: 1 * time.Second, phase: 300 * time.Millisecond, ops: 1000}, // 300 us/op
		{setup: 3 * time.Second, phase: 200 * time.Millisecond, ops: 1000}, // 200 us/op
	}
	rep := newReport()
	costMetrics(rep, costs)
	if rep.metrics["setup_s"] != 2 || rep.metrics["cpu_us_per_op"] != 200 {
		t.Fatalf("setup_s %v, cpu_us_per_op %v; want the medians 2 and 200", rep.metrics["setup_s"], rep.metrics["cpu_us_per_op"])
	}
	if got := overheadRatio(costs); got != 2.5 {
		t.Fatalf("overhead ratio %v, want median(300, 200) / 100 = 2.5", got)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const n, rate = 40, 1000.0 // one operation due every millisecond
	var mu sync.Mutex
	dues := make([]time.Time, n)
	done := make([]time.Time, n)
	late := openLoop(context.Background(), n, rate, 1, func(i int, due time.Time) {
		if i == 10 {
			time.Sleep(20 * time.Millisecond) // a stall
		}
		mu.Lock()
		dues[i], done[i] = due, time.Now()
		mu.Unlock()
	})
	if len(late) != n {
		t.Fatalf("%d lateness samples, want %d", len(late), n)
	}
	for i := 1; i < n; i++ {
		if gap := dues[i].Sub(dues[i-1]); gap < 999*time.Microsecond || gap > 1001*time.Microsecond {
			t.Fatalf("operations %d and %d due %v apart, want the schedule's 1ms", i-1, i, gap)
		}
	}
	// The stall holds the only worker, so the next operations are handed
	// over late, and their latency from the due time includes the wait.
	if late[12] < 10*time.Millisecond {
		t.Fatalf("operation 12 handed over %v late, want the stall to show", late[12])
	}
	if d := done[12].Sub(dues[12]); d < late[12] {
		t.Fatalf("latency from due %v is shorter than the lateness %v", d, late[12])
	}
}

// tiny shrinks every workload so a run takes seconds, keeping the 1000
// samples a round needs for its p99.
var tiny = sizes{
	minRounds: 2,

	ingestWarmup:    60,
	ingestBatch:     200,
	freshRate:       600,
	freshFor:        1800 * time.Millisecond,
	ingestCkpts:     2,
	ingestProbeMsgs: 30,
	ackProbeBatches: 3,

	askPreload:   200,
	askWarmup:    10,
	askPool:      1100,
	askGenerated: 20000,
	askProbeQs:   30,

	servePreload:  200,
	servePool:     100,
	serveCache:    512,
	serveRate:     1000,
	serveFor:      1500 * time.Millisecond,
	serveCkptTick: 200 * time.Millisecond,
}

func tinyRun(t *testing.T, workload string, seed int64, traced bool) *report {
	t.Helper()
	p := params{seed: seed, budget: time.Millisecond, traced: traced, sz: tiny, dir: t.TempDir()}
	rep, err := workloads[workload](context.Background(), p)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if len(rep.problems) > 0 || rep.failed > 0 {
		t.Fatalf("%s: incorrect: %v (%d failed)", workload, rep.problems, rep.failed)
	}
	if _, err := resultLine(rep, traced); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep
}

func TestTinyRunsAreCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{"ingest", "ask-miss", "serve-mixed"} {
		for _, traced := range []bool{false, true} {
			rep := tinyRun(t, w, 5, traced)
			if !traced {
				for _, m := range endToEnd {
					if rep.metrics[m.name] <= 0 {
						t.Errorf("%s: %s = %v, want a positive measurement", w, m.name, rep.metrics[m.name])
					}
				}
			}
		}
	}
}

func TestAskMissDigestRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ask-miss twice")
	}
	a := tinyRun(t, "ask-miss", 9, false)
	b := tinyRun(t, "ask-miss", 9, false)
	if a.digest == "" || a.digest != b.digest {
		t.Fatalf("ask-miss digests %q and %q differ across runs of one seed", a.digest, b.digest)
	}
	c := tinyRun(t, "ask-miss", 10, false)
	if c.digest == a.digest {
		t.Fatal("ask-miss digest does not depend on the answers")
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricSpec struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	same := func(kind string, got []metricSpec, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
