// Command perfbench is the repository's end-to-end benchmark. It drives the
// engine from outside through its public entry points — deco.NewEngine and
// Engine.RunProgram for solves, in-process decod nodes over loopback HTTP
// for the service — checks every output, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload example1_fixed --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics named in BENCHMARK.json;
// with --trace 1 it repeats the workload through a layer-by-layer copy of
// the program's path and reports the per-layer metrics instead. See
// perfbench/README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadRun is one set-up workload, ready to measure.
type workloadRun interface {
	// measure runs the untraced workload for the given duration and
	// returns the end-to-end metrics (setup_s and peak_heap_mb excepted).
	measure(d time.Duration) (map[string]metric, *tally, error)
	// traced runs the traced variant and returns the per-layer metrics.
	traced() (map[string]metric, *tally, error)
	// close releases what setup acquired.
	close()
}

// setupFunc generates a workload's inputs from the seed and acquires what
// it runs on; d is the measured duration. Set-up is repeated and timed.
type setupFunc func(seed int64, d time.Duration) (workloadRun, error)

// workloads are the benchmark's workloads; BENCHMARK.json says why each
// was chosen.
var workloads = map[string]setupFunc{
	"example1_fixed":    setupSolve(example1Fixed),
	"example1_adaptive": setupSolve(example1Adaptive),
	"prolog_rules":      setupSolve(prologRules),
	"decod_open":        setupDecod,
}

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 21

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: all inputs derive from it")
	seconds := flag.Int("seconds", 15, "measured duration")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	setup, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %v)", name, names)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1")
	}
	d := time.Duration(seconds) * time.Second
	var setupTimes []float64
	var wr workloadRun
	for i := 0; i < setupRepeats; i++ {
		if wr != nil {
			wr.close()
		}
		// Each set-up starts from a collected heap, so it does not pay for
		// the garbage of the one before.
		runtime.GC()
		start := time.Now()
		var err error
		if wr, err = setup(seed, d); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer wr.close()
	runtime.GC()

	var ms map[string]metric
	var t *tally
	var err error
	if traced {
		ms, t, err = wr.traced()
	} else {
		heap := startHeapSampler()
		ms, t, err = wr.measure(d)
		peak := heap.stop()
		if err == nil {
			ms["setup_s"] = metric{median(setupTimes), "s"}
			ms["peak_heap_mb"] = metric{peak / (1 << 20), "MiB"}
		}
	}
	if err != nil {
		return err
	}
	declared := endToEnd
	if traced {
		declared = layerMetrics
	}
	if len(ms) != len(declared) {
		return fmt.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(ms), len(declared))
	}
	for _, decl := range declared {
		if m, ok := ms[decl.name]; !ok || m.Unit != decl.unit {
			return fmt.Errorf("metric %s (%s) not reported as declared", decl.name, decl.unit)
		}
	}
	if t.attempted == 0 {
		return fmt.Errorf("no operation completed in %v", d)
	}
	for reason, n := range t.reasons {
		fmt.Printf("# failures: %d × %s\n", n, reason)
	}
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %-36s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
	out, err := json.Marshal(report{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if t.wrong > 0 {
		return fmt.Errorf("%d outputs failed verification", t.wrong)
	}
	return nil
}

// heapSampler records the collector's heap goal — twice the live heap the
// last collection marked, 4 MiB at least — every few milliseconds. The heap
// grows to its goal before each collection, so the goal's high samples are
// the heap's high-water mark.
type heapSampler struct {
	stopc   chan struct{}
	wg      sync.WaitGroup
	samples []float64
}

const heapMetric = "/gc/heap/goal:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64()))
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// heapPeakQuantile is the share of the run the reported peak covers: a
// goal held for less than the rest — one collection that happened to land
// on a transient structure — does not set the peak.
const heapPeakQuantile = 0.95

// stop ends sampling and returns the heap goal the run stayed at or below
// for heapPeakQuantile of its samples, in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	h.wg.Wait()
	if len(h.samples) == 0 {
		return 0
	}
	s := sortedCopy(h.samples)
	return s[int(heapPeakQuantile*float64(len(s)-1))]
}
