package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"deco"
	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/device"
	"deco/internal/estimate"
	"deco/internal/exp"
	"deco/internal/opt"
	"deco/internal/probir"
	"deco/internal/wlog"
)

// solveRun is a set-up solve workload: an engine of the measured
// configuration, whose prices and estimator the checks and the traced copy
// use, and the generated inputs.
type solveRun struct {
	spec   solveSpec
	seed   int64
	eng    *deco.Engine
	inputs []solveInput
}

func setupSolve(spec solveSpec) setupFunc {
	return func(seed int64, _ time.Duration) (workloadRun, error) {
		measured, _ := spec.devices()
		eng, err := deco.NewEngine(spec.engineOptions(seed, measured)...)
		if err != nil {
			return nil, err
		}
		env, err := exp.NewEnv(exp.FullConfig())
		if err != nil {
			return nil, err
		}
		inputs, err := spec.gen(rand.New(rand.NewSource(seed)), env)
		if err != nil {
			return nil, err
		}
		return &solveRun{spec: spec, seed: seed, eng: eng, inputs: inputs}, nil
	}
}

func (r *solveRun) close() {}

// solveResult is one timed RunProgram call.
type solveResult struct {
	input int
	plan  *deco.Plan
	err   error
	dur   time.Duration
}

// cycle calls f on the inputs in order, cycling through them, until every
// input has had one call and d has passed.
func (r *solveRun) cycle(d time.Duration, f func(i int)) {
	start := time.Now()
	for n := 0; n < len(r.inputs) || time.Since(start) < d; n++ {
		f(n % len(r.inputs))
	}
}

// solve runs input i through Engine.RunProgram on a fresh engine for dev,
// so no solve reuses state another left in an engine. Only RunProgram is
// timed; engine construction is set-up work.
func (r *solveRun) solve(dev device.Device, i int) solveResult {
	eng, err := deco.NewEngine(r.spec.engineOptions(r.seed, dev)...)
	if err != nil {
		return solveResult{input: i, err: err}
	}
	in := r.inputs[i]
	start := time.Now()
	plan, err := eng.RunProgram(in.src, in.w)
	return solveResult{input: i, plan: plan, err: err, dur: time.Since(start)}
}

// warmupFor is how long solves run untimed before measurement: the first
// solves of a process run on a small heap and collect far more often.
const warmupFor = 2 * time.Second

// warmup solves inputs in order, untimed, for warmupFor.
func (r *solveRun) warmup(dev device.Device) {
	start := time.Now()
	for i := 0; time.Since(start) < warmupFor; i = (i + 1) % len(r.inputs) {
		r.solve(dev, i)
	}
}

func (r *solveRun) measure(d time.Duration) (map[string]metric, *tally, error) {
	dev, _ := r.spec.devices()
	r.warmup(dev)
	var results []solveResult
	r.cycle(d, func(i int) { results = append(results, r.solve(dev, i)) })

	v, err := newVerifier(r)
	if err != nil {
		return nil, nil, err
	}
	t := &tally{}
	// The median and the throughput rest on each input's median solve
	// time, so every input weighs the same however many of its solves fit.
	// The tail is over every timed solve, so slow outliers of any input
	// show. Quality figures are per input: the checks make every repeat of
	// an input return the same plan.
	perInput := make([][]float64, len(r.inputs))
	var all []float64
	for _, res := range results {
		if res.err != nil {
			t.fail("error: " + res.err.Error())
			continue
		}
		if err := v.check(res.input, res.plan); err != nil {
			t.wrongOutput(err.Error())
			continue
		}
		t.ok()
		perInput[res.input] = append(perInput[res.input], ms(res.dur))
		all = append(all, ms(res.dur))
	}
	var lat, cost, span []float64
	passMs, feasible := 0.0, 0
	for i, xs := range perInput {
		if len(xs) == 0 {
			continue
		}
		med := median(xs)
		lat = append(lat, med)
		passMs += med
		cost = append(cost, v.first[i].EstimatedCost)
		span = append(span, v.makespan[i])
		if v.first[i].Feasible {
			feasible++
		}
	}
	m := map[string]metric{
		"ops_per_s":     {0, "1/s"},
		"ok_frac":       {1 - t.failedFrac(), "ratio"},
		"feasible_frac": {0, "ratio"},
	}
	if len(lat) > 0 {
		// Throughput of the one caller over the input set: inputs per
		// second of a pass that takes each input's median time.
		m["ops_per_s"] = metric{float64(len(lat)) / (passMs / 1000), "1/s"}
		m["feasible_frac"] = metric{float64(feasible) / float64(len(lat)), "ratio"}
	}
	addLatency(m, lat, all)
	m["plan_cost_usd.mean"] = metric{mean(cost), "USD"}
	m["plan_makespan_s.mean"] = metric{mean(span), "s"}
	return m, t, nil
}

// addLatency adds the median of lat and the tail of all as the latency
// metrics, and states the tail's percentile and sample count.
func addLatency(m map[string]metric, lat, all []float64) {
	m["latency_ms.p50"] = metric{median(lat), "ms"}
	v, pct, ok := tail(all)
	if !ok {
		// Too few samples for the tail rule: report the maximum.
		s := sortedCopy(all)
		if len(s) > 0 {
			v = s[len(s)-1]
		}
		pct = 100
	}
	m["latency_ms.tail"] = metric{v, "ms"}
	fmt.Printf("# latency_ms.tail is p%.1f of n=%d\n", pct, len(all))
}

// verifier checks plans independently of the engine that produced them.
type verifier struct {
	r      *solveRun
	tables []*estimate.Table
	prices []float64
	// makespan is each input's first plan's mean-duration critical path;
	// first is that plan, which every later solve of the input must equal.
	makespan []float64
	first    []*deco.Plan
}

func newVerifier(r *solveRun) (*verifier, error) {
	prices, err := r.eng.Prices()
	if err != nil {
		return nil, err
	}
	v := &verifier{r: r, prices: prices, makespan: make([]float64, len(r.inputs)),
		first: make([]*deco.Plan, len(r.inputs))}
	for _, in := range r.inputs {
		tbl, err := r.eng.Estimator().BuildTable(in.w)
		if err != nil {
			return nil, err
		}
		v.tables = append(v.tables, tbl)
	}
	return v, nil
}

// check verifies one plan of input i:
//   - one valid type index per task;
//   - on the native path, EstimatedCost and the cost objective equal an
//     independent opt.PackedMeanCost of the config, bit for bit; on the
//     Prolog path, a fresh Prolog evaluation of the config gives the plan's
//     objective, feasibility and constraint probabilities, bit for bit;
//   - a feasible plan meets every probabilistic constraint's percentile;
//   - every solve of the same input returns the same plan.
func (v *verifier) check(i int, p *deco.Plan) error {
	in := v.r.inputs[i]
	w := in.w
	if len(p.Config) != w.Len() {
		return fmt.Errorf("%s: config has %d entries for %d tasks", in.label, len(p.Config), w.Len())
	}
	for _, c := range p.Config {
		if c < 0 || c >= len(p.Types) {
			return fmt.Errorf("%s: type index %d out of range [0,%d)", in.label, c, len(p.Types))
		}
	}
	if v.r.spec.prolog {
		if err := v.checkProlog(i, p); err != nil {
			return fmt.Errorf("%s: %v", in.label, err)
		}
	} else {
		packed, err := opt.PackedMeanCost(w, p.Config, v.tables[i], v.prices, cloud.USEast)
		if err != nil {
			return err
		}
		if !sameBits(packed, p.EstimatedCost) {
			return fmt.Errorf("%s: estimated cost %v, independent packed cost %v", in.label, p.EstimatedCost, packed)
		}
		if !sameBits(packed, p.Objective) {
			return fmt.Errorf("%s: cost objective %v, packed cost %v", in.label, p.Objective, packed)
		}
	}
	if len(p.ConsProb) != len(p.Constraints) {
		return fmt.Errorf("%s: %d constraint probabilities for %d constraints", in.label, len(p.ConsProb), len(p.Constraints))
	}
	if p.Feasible {
		for k, c := range p.Constraints {
			if c.Percentile > 0 && p.ConsProb[k] < c.Percentile {
				return fmt.Errorf("%s: feasible plan meets %s with probability %v < %v", in.label, c.Kind, p.ConsProb[k], c.Percentile)
			}
		}
	}
	if v.first[i] == nil {
		ms, err := meanMakespan(w, v.tables[i], p.Config)
		if err != nil {
			return err
		}
		v.first[i], v.makespan[i] = p, ms
		return nil
	}
	if err := samePlan(v.first[i], p); err != nil {
		return fmt.Errorf("%s: repeated solve differs: %v", in.label, err)
	}
	return nil
}

// checkProlog evaluates the plan's config on a fresh Prolog evaluator of
// input i's program, with the random stream the search gives that state
// (the engine seed xor the FNV-1a hash of the state key), and compares the
// evaluation with the plan. The Prolog path reports its objective as the
// estimated cost, so the two must agree as well.
func (v *verifier) checkProlog(i int, p *deco.Plan) error {
	in := v.r.inputs[i]
	prog, err := wlog.Parse(in.src)
	if err != nil {
		return err
	}
	eval, err := probir.NewProlog(in.w, v.tables[i], v.prices, prog, min(v.r.spec.iters, prologMaxIters))
	if err != nil {
		return err
	}
	h := fnv.New64a()
	h.Write([]byte(opt.State(p.Config).Key()))
	ev, err := eval.Evaluate(p.Config, rand.New(rand.NewSource(v.r.seed^int64(h.Sum64()))))
	if err != nil {
		return fmt.Errorf("re-evaluate plan: %v", err)
	}
	switch {
	case !sameBits(ev.Value, p.Objective):
		return fmt.Errorf("objective %v, re-evaluated %v", p.Objective, ev.Value)
	case !sameBits(p.EstimatedCost, p.Objective):
		return fmt.Errorf("estimated cost %v differs from objective %v", p.EstimatedCost, p.Objective)
	case ev.Feasible != p.Feasible:
		return fmt.Errorf("feasibility %v, re-evaluated %v", p.Feasible, ev.Feasible)
	case !bitsEqual(ev.ConsProb, p.ConsProb):
		return fmt.Errorf("constraint probabilities %v, re-evaluated %v", p.ConsProb, ev.ConsProb)
	}
	return nil
}

// meanMakespan is the critical-path length of the plan under mean task
// durations: a deterministic quality figure defined for every plan.
func meanMakespan(w *dag.Workflow, tbl *estimate.Table, config []int) (float64, error) {
	cfg := make(map[string]int, len(config))
	for i, t := range w.Tasks {
		cfg[t.ID] = config[i]
	}
	means, err := tbl.MeanDurations(cfg)
	if err != nil {
		return 0, err
	}
	ms, _, err := w.Makespan(means)
	return ms, err
}

// samePlan reports how two plans differ: config, objective and cost bits,
// feasibility, or constraint probabilities.
func samePlan(a, b *deco.Plan) error {
	if len(a.Config) != len(b.Config) {
		return fmt.Errorf("config lengths %d and %d", len(a.Config), len(b.Config))
	}
	for i := range a.Config {
		if a.Config[i] != b.Config[i] {
			return fmt.Errorf("configs differ at task %d", i)
		}
	}
	switch {
	case !sameBits(a.Objective, b.Objective):
		return fmt.Errorf("objectives %v and %v", a.Objective, b.Objective)
	case !sameBits(a.EstimatedCost, b.EstimatedCost):
		return fmt.Errorf("estimated costs %v and %v", a.EstimatedCost, b.EstimatedCost)
	case a.Feasible != b.Feasible:
		return fmt.Errorf("feasibility %v and %v", a.Feasible, b.Feasible)
	case !bitsEqual(a.ConsProb, b.ConsProb):
		return fmt.Errorf("constraint probabilities %v and %v", a.ConsProb, b.ConsProb)
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
