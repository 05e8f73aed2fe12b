package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"time"

	"deco"
	"deco/internal/cloud"
	"deco/internal/device"
	"deco/internal/estimate"
	"deco/internal/opt"
	"deco/internal/probir"
	"deco/internal/wlog"
)

// prologMaxIters is the engine's cap on worlds for per-world Prolog
// interpretation (Engine.RunProgram).
const prologMaxIters = 200

// tracedResult is what a traced solve reports beyond its plan.
type tracedResult struct {
	plan   *deco.Plan
	states int
	levels int
	search time.Duration // wall time of Problem.Search
	cpu    time.Duration // process CPU time during Problem.Search
	sample opt.SampleStats
	delta  opt.DeltaStats
}

// tracedSolve is a layer-by-layer copy of Engine.RunProgram's path for the
// benchmark's programs, timing each public call as its own span:
// wlog.Parse → Estimator.BuildTable → probir.NewNativeMarkets / NewProlog →
// opt.NewScheduleSpace → opt.Compile → Problem.Search → opt.PackedMeanCost.
// The ScheduleSpace.CostFn field is wrapped so every objective call is a
// span too; those run concurrently on the device's goroutines. The route is
// the workload's: every input minimizes totalcost, on the Prolog path for
// prolog_rules and on the native path otherwise; the bit-identity check
// against RunProgram's plan catches a route that differs.
func (r *solveRun) tracedSolve(tr *tracer, solve, i int, dev device.Device) (*tracedResult, error) {
	in := r.inputs[i]
	w := in.w
	out := &tracedResult{}
	err := tr.timed(solve, 0, "solve", func(root int64) error {
		var prog *wlog.Program
		if err := tr.timed(solve, root, "wlog.parse", func(int64) (err error) {
			prog, err = wlog.Parse(in.src)
			return err
		}); err != nil {
			return err
		}
		prices, err := r.eng.Prices()
		if err != nil {
			return err
		}
		var tbl *estimate.Table
		if err := tr.timed(solve, root, "estimate.table", func(int64) (err error) {
			tbl, err = r.eng.Estimator().BuildTable(w)
			return err
		}); err != nil {
			return err
		}
		var eval probir.Evaluator
		var native *probir.Native
		if r.spec.prolog {
			err = tr.timed(solve, root, "probir.prolog_compile", func(int64) (err error) {
				eval, err = probir.NewProlog(w, tbl, prices, prog, min(r.spec.iters, prologMaxIters))
				return err
			})
		} else {
			err = tr.timed(solve, root, "probir.compile", func(int64) (err error) {
				native, err = probir.NewNativeMarkets(w, tbl, prices, nil, probir.GoalCost, prog.Constraints, r.spec.iters)
				eval = native
				return err
			})
		}
		if err != nil {
			return err
		}
		var space *opt.ScheduleSpace
		_ = tr.timed(solve, root, "opt.space", func(int64) error {
			space = opt.NewScheduleSpace(w, eval)
			return nil
		})
		// costParent is the span whose work the objective calls belong to.
		var costParent atomic.Int64
		costParent.Store(root)
		if !r.spec.prolog && !native.HasSpotMarkets() {
			space.CostFn = func(st opt.State) (float64, error) {
				start := tr.now()
				v, err := opt.PackedMeanCost(w, st, tbl, prices, cloud.USEast)
				tr.add(span{id: tr.newID(), parent: costParent.Load(), solve: solve, name: "opt.cost_fn", start: start, end: tr.now()})
				return v, err
			}
			space.CostTag = "packed:" + cloud.USEast
		}
		// The engine's search options: defaults for its default device,
		// then its configured budget, adaptivity, device and seed.
		so := opt.DefaultOptions(device.TwoLevel{})
		so.MaxStates = r.spec.budget
		so.Adaptive = r.spec.adaptive
		so.Device = dev
		so.Seed = r.seed
		so.AStar = prog.AStar
		so.Ctx = context.Background()
		var problem *opt.Problem
		if err := tr.timed(solve, root, "opt.compile", func(id int64) (err error) {
			costParent.Store(id)
			problem, err = opt.Compile(space, so)
			return err
		}); err != nil {
			return err
		}
		var res *opt.Result
		if err := tr.timed(solve, root, "opt.search", func(id int64) (err error) {
			costParent.Store(id)
			cpu0, start := processCPU(), time.Now()
			res, err = problem.Search()
			out.search, out.cpu = time.Since(start), processCPU()-cpu0
			return err
		}); err != nil {
			return err
		}
		costParent.Store(root)
		cost := res.BestEval.Value
		if !r.spec.prolog {
			if err := tr.timed(solve, root, "opt.final_pack", func(int64) (err error) {
				cost, err = opt.PackedMeanCost(w, res.Best, tbl, prices, cloud.USEast)
				return err
			}); err != nil {
				return err
			}
		}
		out.plan = &deco.Plan{Workflow: w, Config: res.Best, Types: tbl.Types, EstimatedCost: cost,
			Objective: res.BestEval.Value, Feasible: res.Feasible, ConsProb: res.BestEval.ConsProb,
			Constraints: prog.Constraints, StatesEvaluated: res.Evaluated}
		out.states, out.levels = res.Evaluated, res.Levels
		out.sample, out.delta = problem.SampleStats(), problem.DeltaStats()
		return nil
	})
	return out, err
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// traced measures the per-layer metrics of a solve workload over the first
// half of the inputs, which covers every workflow and setting. Each input is
// solved three times in a row:
//
//  1. through Engine.RunProgram on the measured device (untraced);
//  2. through tracedSolve on the same device, under a CPU profile — its
//     plan must be bit-identical to the first;
//  3. through Engine.RunProgram on the comparison device — its plan must be
//     bit-identical too, and the paired times give
//     device.speedup_vs_sequential as a median of ratios.
//
// Solving the untraced and traced copies back to back makes
// trace.overhead_frac a paired comparison.
func (r *solveRun) traced() (map[string]metric, *tally, error) {
	measured, other := r.spec.devices()
	v, err := newVerifier(r)
	if err != nil {
		return nil, nil, err
	}
	t := &tally{}
	r.warmup(measured)

	tr := newTracer()
	var refDur []time.Duration
	var results []*tracedResult
	var ratios, allocMB, gcCycles, gcPauseMs []float64
	phases := map[string]time.Duration{}
	otherErrors := 0
	var ms0, ms1 runtime.MemStats
	for i := 0; i < max(1, len(r.inputs)/2); i++ {
		ref := r.solve(measured, i)
		refDur = append(refDur, ref.dur)
		results = append(results, nil)
		if ref.err != nil {
			t.fail("error: " + ref.err.Error())
			continue
		}
		if err := v.check(i, ref.plan); err != nil {
			t.wrongOutput(err.Error())
			continue
		}

		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, nil, err
		}
		runtime.ReadMemStats(&ms0)
		res, err := r.tracedSolve(tr, i+1, i, measured)
		runtime.ReadMemStats(&ms1)
		pprof.StopCPUProfile()
		if err != nil {
			t.fail("traced error: " + err.Error())
			continue
		}
		if err := samePlan(ref.plan, res.plan); err != nil {
			t.wrongOutput("traced copy differs from RunProgram: " + err.Error())
			continue
		}
		byLabel, err := cpuByLabel(prof.Bytes(), "deco_phase")
		if err != nil {
			return nil, nil, fmt.Errorf("read CPU profile: %w", err)
		}
		for ph, d := range byLabel {
			phases[ph] += d
		}
		results[i] = res
		allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		gcCycles = append(gcCycles, float64(ms1.NumGC-ms0.NumGC))
		gcPauseMs = append(gcPauseMs, float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)

		alt := r.solve(other, i)
		altErr := alt.err
		if altErr == nil {
			if err := samePlan(ref.plan, alt.plan); err != nil {
				altErr = fmt.Errorf("%T plan differs from %T plan: %v", other, measured, err)
			}
		}
		switch {
		case altErr != nil && r.spec.sequential:
			// The parallel-device Prolog defect: recorded, not a failure of
			// the measured (sequential) configuration.
			otherErrors++
		case altErr != nil:
			t.wrongOutput(altErr.Error())
			continue
		case r.spec.sequential:
			ratios = append(ratios, ref.dur.Seconds()/alt.dur.Seconds())
		default:
			ratios = append(ratios, alt.dur.Seconds()/ref.dur.Seconds())
		}
		t.ok()
	}

	m := zeroLayerMetrics()
	spans := tr.bySolve()
	n := 0
	var sums = map[string]float64{}
	var tracedWall, refWall, covered time.Duration
	var searchWall, searchCPU time.Duration
	var states, costCalls int64
	var worldsBudget, worldsSaved, deltaEvals, deltaFallbacks int64
	for i, res := range results {
		if res == nil {
			continue
		}
		n++
		ss := spans[i+1]
		total, cov := ss.coverage()
		tracedWall += total
		covered += cov
		refWall += refDur[i]
		lt := ss.layerTimes()
		for name, key := range map[string]string{
			"wlog.parse": "wlog.parse_ms", "estimate.table": "estimate.table_ms",
			"probir.compile": "probir.compile_ms", "probir.prolog_compile": "probir.prolog_compile_ms",
			"opt.compile": "opt.compile_ms", "opt.search": "opt.search_ms",
			"opt.final_pack": "opt.final_pack_ms", "opt.cost_fn": "opt.cost_fn_ms",
		} {
			sums[key] += ms(lt[name])
		}
		sums["opt.search_self_ms"] += ms(ss.selfOf("opt.search"))
		calls := int64(ss.count("opt.cost_fn"))
		costCalls += calls
		states += int64(res.states)
		sums["opt.cost_fn_calls"] += float64(calls)
		sums["opt.states"] += float64(res.states)
		sums["opt.levels"] += float64(res.levels)
		searchWall += res.search
		searchCPU += res.cpu
		sums["opt.delta_evals"] += float64(res.delta.DeltaEvals)
		sums["opt.full_evals"] += float64(res.delta.FullEvals)
		sums["opt.delta_fallbacks"] += float64(res.delta.Fallbacks)
		sums["opt.cone_plan_hits"] += float64(res.delta.ConePlanHits)
		sums["opt.parent_completions"] += float64(res.delta.ParentCompletions)
		sums["opt.snapshot_evictions"] += float64(res.delta.Evictions)
		deltaEvals += res.delta.DeltaEvals
		deltaFallbacks += res.delta.Fallbacks
		sums["sample.worlds_run"] += float64(res.sample.WorldsRun)
		sums["sample.worlds_saved"] += float64(res.sample.WorldsSaved())
		sums["sample.worlds_reordered"] += float64(res.sample.WorldsReordered)
		worldsBudget += res.sample.WorldsBudget
		worldsSaved += res.sample.WorldsSaved()
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("no traced solve succeeded")
	}
	for key, s := range sums {
		m[key] = metric{s / float64(n), m[key].Unit}
	}
	if states > 0 {
		m["opt.cost_fn_calls_per_state"] = metric{float64(costCalls) / float64(states), "ratio"}
	}
	if searchWall > 0 {
		m["opt.states_per_s"] = metric{float64(states) / searchWall.Seconds(), "1/s"}
		m["device.cpu_util"] = metric{searchCPU.Seconds() / (searchWall.Seconds() * float64(runtime.GOMAXPROCS(0))), "ratio"}
	}
	if deltaEvals+deltaFallbacks > 0 {
		m["opt.delta_ratio"] = metric{float64(deltaEvals) / float64(deltaEvals+deltaFallbacks), "ratio"}
	}
	if worldsBudget > 0 {
		m["sample.worlds_saved_frac"] = metric{float64(worldsSaved) / float64(worldsBudget), "ratio"}
	}
	for _, ph := range []string{"kernel_build", "chunk_eval", "racing", "snapshot_put"} {
		m["opt.phase."+ph+"_cpu_s"] = metric{phases[ph].Seconds() / float64(n), "s"}
	}
	m["opt.phase.other_cpu_s"] = metric{phases[""].Seconds() / float64(n), "s"}
	m["device.speedup_vs_sequential"] = metric{median(ratios), "ratio"}
	m["gc.alloc_mb_per_solve"] = metric{mean(allocMB), "MiB"}
	m["gc.cycles"] = metric{mean(gcCycles), "count"}
	m["gc.pause_ms"] = metric{mean(gcPauseMs), "ms"}
	m["prolog.error_solves"] = metric{float64(otherErrors), "count"}
	m["trace.overhead_frac"] = metric{tracedWall.Seconds()/refWall.Seconds() - 1, "ratio"}
	m["trace.coverage_frac"] = metric{covered.Seconds() / tracedWall.Seconds(), "ratio"}
	fmt.Printf("# traced %d solves; comparison device %T: %d paired ratios, %d errors\n", n, other, len(ratios), otherErrors)
	return m, t, nil
}
