package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"os"
	"testing"
	"time"
)

func TestTailRuleLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 20, 50, 93, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending input: tail must sort
		}
		v, pct, ok := tail(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailMinBeyond {
			t.Errorf("n=%d: %d samples beyond the tail value %v, want %d", n, beyond, v, tailMinBeyond)
		}
		if want := 100 * float64(n-tailMinBeyond) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	if _, _, ok := tail(make([]float64, tailMinBeyond)); ok {
		t.Errorf("%d samples: a tail percentile needs more than %d samples", tailMinBeyond, tailMinBeyond)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestSelfTimeWithOverlappingConcurrentChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 30}, {20, 40}, // concurrent, overlapping: cover 10..40
		{35, 50},  // chains onto them: cover 10..50
		{60, 70},  // disjoint
		{90, 120}, // runs past the parent's end: clipped to 90..100
		{-5, 5},   // starts before the parent: clipped to 0..5
	}
	// Covered: 0..5, 10..50, 60..70, 90..100 = 5+40+10+10 = 65.
	if got := selfTime(parent, children); got != 35 {
		t.Errorf("self time = %v, want 35", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %v, want 100", got)
	}
	if got := selfTime(parent, []interval{{0, 100}, {0, 100}}); got != 0 {
		t.Errorf("self time under two full-length children = %v, want 0", got)
	}
}

func TestTracerSelfTimeAndCoverage(t *testing.T) {
	tr := newTracer()
	add := func(id, parent int64, name string, s, e time.Duration) {
		tr.add(span{id: id, parent: parent, solve: 1, name: name, start: s, end: e})
	}
	add(1, 0, "solve", 0, 100)
	add(2, 1, "wlog.parse", 0, 10)
	add(3, 1, "opt.search", 20, 90)
	add(4, 3, "opt.cost_fn", 30, 50) // two concurrent objective calls
	add(5, 3, "opt.cost_fn", 40, 60)
	ss := tr.bySolve()[1]
	if got := ss.selfOf("opt.search"); got != 40 {
		t.Errorf("search self time = %v, want 70-30 = 40", got)
	}
	if got := ss.layerTimes()["opt.cost_fn"]; got != 40 {
		t.Errorf("summed objective time = %v, want 40", got)
	}
	if total, covered := ss.coverage(); total != 100 || covered != 80 {
		t.Errorf("coverage = %v of %v, want 80 of 100", covered, total)
	}
	if got := ss.count("opt.cost_fn"); got != 2 {
		t.Errorf("objective calls = %d, want 2", got)
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	ms := time.Millisecond
	jobs := []openJob{
		// On time: 5ms of service.
		{due: 0, sent: 0, finished: 5 * ms, outcome: outcomeDone, verified: true},
		// The generator stalled 40ms before sending: the stall counts.
		{due: 10 * ms, sent: 50 * ms, finished: 55 * ms, outcome: outcomeDone, verified: true},
		// Sent 2ms late, served in 3ms.
		{due: 100 * ms, sent: 102 * ms, finished: 105 * ms, outcome: outcomeDone, verified: true},
	}
	s := summarizeOpenLoop(jobs)
	want := []float64{5, 45, 5}
	if len(s.latencyMs) != len(want) {
		t.Fatalf("latencies %v, want %v", s.latencyMs, want)
	}
	for i := range want {
		if s.latencyMs[i] != want[i] {
			t.Errorf("job %d latency %vms, want %vms", i, s.latencyMs[i], want[i])
		}
	}
	if s.lateMsMax != 40 {
		t.Errorf("generator lateness %vms, want 40ms", s.lateMsMax)
	}
	if s.tally.attempted != 3 || s.tally.failed != 0 {
		t.Errorf("tally %d/%d, want 3 attempted, 0 failed", s.tally.attempted, s.tally.failed)
	}
}

func TestFailureCountingIncludesRefusals(t *testing.T) {
	if got := submitOutcome(http.StatusTooManyRequests); got != outcomeRefused {
		t.Errorf("429 classified %q, want %q", got, outcomeRefused)
	}
	if got := submitOutcome(http.StatusAccepted); got != "" {
		t.Errorf("202 classified %q, want accepted", got)
	}
	if got := submitOutcome(http.StatusOK); got != "" {
		t.Errorf("200 classified %q, want accepted", got)
	}
	if got := submitOutcome(http.StatusServiceUnavailable); got != outcomeRejected {
		t.Errorf("503 classified %q, want %q", got, outcomeRejected)
	}
	jobs := []openJob{
		{outcome: outcomeDone, verified: true, finished: time.Millisecond},
		{outcome: outcomeRefused},
		{outcome: outcomeRejected},
		{outcome: outcomeError},
		{outcome: outcomeFailed, err: "estimate: bad bin"},
		{outcome: outcomeDropped},
		{outcome: outcomeDone, verified: false}, // wrong answer
	}
	s := summarizeOpenLoop(jobs)
	if s.tally.attempted != 7 || s.tally.failed != 6 {
		t.Fatalf("tally %d attempted / %d failed, want 7 / 6", s.tally.attempted, s.tally.failed)
	}
	if s.tally.wrong != 1 {
		t.Errorf("wrong outputs %d, want 1", s.tally.wrong)
	}
	if s.tally.reasons[outcomeRefused] != 1 {
		t.Errorf("refusals %d, want 1", s.tally.reasons[outcomeRefused])
	}
	if s.tally.reasons[outcomeFailed+": estimate: bad bin"] != 1 {
		t.Errorf("failed job's reason not kept with its error: %v", s.tally.reasons)
	}
	if got, want := s.tally.failedFrac(), 6.0/7; got != want {
		t.Errorf("failed fraction %v, want %v", got, want)
	}
	if len(s.latencyMs) != 1 {
		t.Errorf("%d latency samples, want only the verified job's", len(s.latencyMs))
	}
}

func TestOpenLoopThroughputOverBusyTime(t *testing.T) {
	ms := time.Millisecond
	jobs := []openJob{
		// Two overlapping jobs keep the service busy from 0 to 30ms.
		{submitted: 0, finished: 20 * ms, outcome: outcomeDone, verified: true},
		{due: 10 * ms, submitted: 10 * ms, finished: 30 * ms, outcome: outcomeDone, verified: true},
		// A cache hit answered at submission adds a job, not busy time.
		{due: 50 * ms, submitted: 50 * ms, finished: 50 * ms, outcome: outcomeDone, verified: true},
		// Idle from 50 to 100ms; then 10ms more.
		{due: 100 * ms, submitted: 100 * ms, finished: 110 * ms, outcome: outcomeDone, verified: true},
		// A failed job's time is not the service's throughput.
		{due: 200 * ms, submitted: 200 * ms, finished: 900 * ms, outcome: outcomeFailed, err: "x"},
	}
	s := summarizeOpenLoop(jobs)
	if got, want := s.jobsPerBusyS, 4/0.040; math.Abs(got-want) > 1e-9 {
		t.Errorf("jobs per busy second %v, want %v (4 jobs in 40ms of busy time)", got, want)
	}
}

func TestArrivalSlotsPairFirstSubmissions(t *testing.T) {
	counts := []int{5, 3, 1, 1, 1}
	for seed := int64(0); seed < 50; seed++ {
		slots := arrivalSlots(counts, 2, rand.New(rand.NewSource(seed)))
		seen := map[int]int{}
		for _, s := range slots {
			k := s[0]
			if len(s) == 2 {
				if s[1] != k || k >= 2 {
					t.Fatalf("seed %d: slot %v pairs the wrong keys", seed, s)
				}
				if seen[k] > 0 {
					t.Fatalf("seed %d: key %d's pair comes after %d of its submissions", seed, k, seen[k])
				}
			}
			seen[k] += len(s)
		}
		for k, c := range counts {
			if seen[k] != c {
				t.Fatalf("seed %d: key %d has %d submissions, want %d", seed, k, seen[k], c)
			}
		}
		if len(slots) != 9 {
			t.Fatalf("seed %d: %d slots, want 9 (11 submissions, 2 pairs)", seed, len(slots))
		}
	}
}

func TestSlotDuesSpaceColdSolvesEvenly(t *testing.T) {
	// Keys 0 and 1 are cold in slots 0 and 2; slots 1 and 3 repeat them.
	slots := [][]int{{0, 0}, {0}, {1}, {1}}
	d := 2500 * time.Millisecond
	got := slotDues(slots, d)
	// Shares 1, 0.25, 1, 0.25 of a 2.5-unit window.
	want := []time.Duration{0, 1000 * time.Millisecond, 1250 * time.Millisecond, 2250 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("slot %d due at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestZipfCountsAreFixedAndSkewed(t *testing.T) {
	c := zipfCounts(90, 20, 1.1)
	if len(c) != 20 {
		t.Fatalf("%d counts, want 20", len(c))
	}
	for r := 1; r < len(c); r++ {
		if c[r] > c[r-1] {
			t.Errorf("count of rank %d (%d) exceeds rank %d (%d)", r, c[r], r-1, c[r-1])
		}
		if c[r] < 1 {
			t.Errorf("rank %d gets no submission", r)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the metrics the program reports
// and the ones BENCHMARK.json declares in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []decl                  `json:"end_to_end"`
		PerLayer  []decl                  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []decl, want []metricDecl) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			better := "lower"
			if w.higher {
				better = "higher"
			}
			if got[i] != (decl{w.name, w.unit, better}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program has %+v", kind, i, got[i], w)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, layerMetrics)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}
