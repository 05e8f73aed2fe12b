package runtime

import (
	"fmt"
	"math/rand"

	"deco/internal/device"
	"deco/internal/estimate"
	"deco/internal/probir"
	"deco/internal/sample"
	"deco/internal/wlog"
)

// Task execution states as the monitor sees them.
const (
	stUnstarted = iota
	stRunning
	stFinished
)

// residual is the monitor's snapshot of execution progress, shared by every
// kernel a risk evaluation or replan search builds: the remaining DAG
// conditioned on what already happened. It is mutated only between
// evaluations (the monitor runs on the simulator's goroutine), so kernels
// may sample it concurrently. Finished tasks contribute their
// observed finish times, running tasks their observed starts plus a
// duration conditioned on having survived `elapsed` seconds, unstarted
// tasks a full sampled duration starting no earlier than now. All sampled
// durations are inflated by the learned drift factor.
type residual struct {
	ids     []string
	order   []int   // topo order, indices into ids
	parents [][]int // parent indices per task
	state   []int
	startAt []float64 // running tasks: observed start
	elapsed []float64 // running tasks: now - startAt
	finish  []float64 // finished tasks: observed finish
	now     float64
	accrued float64 // committed cost so far
	drift   float64 // realized/forecast duration ratio, ≥ small positive
	tbl     *estimate.Table
	prices  []float64 // per type index, hourly
	cons    []wlog.Constraint
	iters   int
}

// condSample draws a duration conditioned on the task having already run
// for `elapsed` seconds: rejection-sample the calibrated distribution above
// the elapsed time, falling back to a memoryless restart (elapsed + mean)
// when the observation has outlived the distribution's support.
func condSample(td *estimate.TimeDist, drift, elapsed float64, rng *rand.Rand) float64 {
	if elapsed <= 0 {
		return td.Sample(rng) * drift
	}
	for try := 0; try < 8; try++ {
		if d := td.Sample(rng) * drift; d > elapsed {
			return d
		}
	}
	return elapsed + td.Mean()*drift
}

// residualKernel is the probir world kernel of one candidate configuration
// over the remaining DAG. Figure layout mirrors probir's native kernel: a
// sampled makespan (when a deadline needs it), a sampled total cost (when a
// probabilistic budget needs it), then one satisfaction indicator per
// probabilistic constraint. World it draws from probir.WorldRNG(base, it):
// condSample's rejection loop consumes a data-dependent number of variates,
// which the fixed (task, iteration) streams of a CRN matrix cannot serve.
type residualKernel struct {
	r      *residual
	base   int64
	dists  []*estimate.TimeDist // per task, for this config
	prices []float64            // per task, hourly
	mean   float64              // deterministic residual cost: accrued + unstarted means

	width    int
	msIdx    int
	costIdx  int
	indIdx   []int
	needMS   bool
	needCost bool
}

// buildKernel resolves config's per-task distributions and figure layout;
// base is the kernel's world substream base.
func (r *residual) buildKernel(config []int, base int64) (*residualKernel, error) {
	if len(config) != len(r.ids) {
		return nil, fmt.Errorf("runtime: config length %d, want %d", len(config), len(r.ids))
	}
	k := &residualKernel{r: r, base: base, msIdx: -1, costIdx: -1,
		dists:  make([]*estimate.TimeDist, len(config)),
		prices: make([]float64, len(config)),
	}
	k.mean = r.accrued
	for i, j := range config {
		td, err := r.tbl.Dist(r.ids[i], j)
		if err != nil {
			return nil, err
		}
		k.dists[i] = td
		k.prices[i] = r.prices[j]
		if r.state[i] == stUnstarted {
			k.mean += td.Mean() * r.drift / 3600 * k.prices[i]
		}
	}
	for _, c := range r.cons {
		if c.Kind == "deadline" {
			k.needMS = true
		}
		if c.Kind == "budget" && c.Percentile >= 0 {
			k.needCost = true
		}
	}
	if k.needMS {
		k.msIdx = k.width
		k.width++
	}
	if k.needCost {
		k.costIdx = k.width
		k.width++
	}
	k.indIdx = make([]int, len(r.cons))
	for ci, c := range r.cons {
		k.indIdx[ci] = -1
		if c.Percentile >= 0 {
			k.indIdx[ci] = k.width
			k.width++
		}
	}
	return k, nil
}

// Worlds implements probir.WorldKernel.
func (k *residualKernel) Worlds() int {
	if !k.needMS && !k.needCost {
		return 0
	}
	return k.r.iters
}

// Width implements probir.WorldKernel.
func (k *residualKernel) Width() int { return k.width }

// Sample implements probir.WorldKernel: one realization of the remaining
// DAG. Observed finishes are facts; running tasks sample a conditioned
// residual; unstarted tasks sample a full (drift-inflated) duration
// starting at max(now, parents' finish).
func (k *residualKernel) Sample(it int, out []float64) error {
	r := k.r
	rng := probir.WorldRNG(k.base, it)
	finish := make([]float64, len(r.ids))
	var ms float64
	cost := r.accrued
	for _, ti := range r.order {
		var f float64
		switch r.state[ti] {
		case stFinished:
			f = r.finish[ti]
		case stRunning:
			f = r.startAt[ti] + condSample(k.dists[ti], r.drift, r.elapsed[ti], rng)
		default:
			s := r.now
			for _, p := range r.parents[ti] {
				if finish[p] > s {
					s = finish[p]
				}
			}
			d := k.dists[ti].Sample(rng) * r.drift
			f = s + d
			if k.needCost {
				cost += d / 3600 * k.prices[ti]
			}
		}
		finish[ti] = f
		if f > ms {
			ms = f
		}
	}
	if k.needMS {
		out[k.msIdx] = ms
	}
	if k.needCost {
		out[k.costIdx] = cost
	}
	for ci, c := range r.cons {
		fi := k.indIdx[ci]
		if fi < 0 {
			continue
		}
		switch c.Kind {
		case "deadline":
			if ms <= c.Bound {
				out[fi] = 1
			}
		case "budget":
			if cost <= c.Bound {
				out[fi] = 1
			}
		}
	}
	return nil
}

// Reduce implements probir.WorldKernel with the same constraint semantics
// as the solver's native kernel, so replan search results rank exactly like
// initial-planning results.
func (k *residualKernel) Reduce(sums []float64) (*probir.Evaluation, error) {
	r := k.r
	iters := float64(k.r.iters)
	ev := &probir.Evaluation{Value: k.mean, Feasible: true, ConsProb: make([]float64, len(r.cons))}
	for ci, c := range r.cons {
		var prob, mean float64
		switch c.Kind {
		case "deadline":
			mean = sums[k.msIdx] / iters
			if c.Percentile < 0 {
				if mean <= c.Bound {
					prob = 1
				}
			} else {
				prob = sums[k.indIdx[ci]] / iters
			}
		case "budget":
			if c.Percentile < 0 {
				mean = k.mean
				if mean <= c.Bound {
					prob = 1
				}
			} else {
				mean = sums[k.costIdx] / iters
				prob = sums[k.indIdx[ci]] / iters
			}
		default:
			return nil, fmt.Errorf("runtime: unknown constraint kind %q", c.Kind)
		}
		ev.ConsProb[ci] = prob
		if c.Percentile < 0 {
			if prob < 1 {
				ev.Feasible = false
				if c.Bound > 0 {
					ev.Violation += (mean - c.Bound) / c.Bound
				} else {
					ev.Violation += mean
				}
			}
		} else if prob < c.Percentile {
			ev.Feasible = false
			ev.Violation += c.Percentile - prob
			if mean > c.Bound && c.Bound > 0 {
				ev.Violation += (mean - c.Bound) / c.Bound
			}
		}
	}
	return ev, nil
}

// violationProb extracts the monitor's risk measure from an evaluation: the
// highest per-constraint probability of violating the bound itself (1 -
// P(X ≤ Bound)); for deterministic (mean-based) constraints it is 0 or 1.
func violationProb(ev *probir.Evaluation) float64 {
	risk := 0.0
	for _, p := range ev.ConsProb {
		if v := 1 - p; v > risk {
			risk = v
		}
	}
	return risk
}

// riskMinWorlds is the first chunk of a chunked risk re-evaluation — the
// minimum worlds sampled before any stop decision, mirroring the solver's
// adaptive default.
const riskMinWorlds = 16

// chunkable reports whether the kernel's replan predicate can be decided
// from a world prefix: every sampled constraint carries a satisfaction
// indicator, and no mean-based deadline is present (its verdict needs the
// full makespan sum; a mean-based budget is known exactly before any world
// runs, from the deterministic mean cost).
func (k *residualKernel) chunkable() bool {
	hasInd := false
	for ci, c := range k.r.cons {
		if k.indIdx[ci] >= 0 {
			hasInd = true
			continue
		}
		if c.Kind == "deadline" {
			return false
		}
	}
	return hasInd
}

// chunkedRisk runs the kernel's worlds in chunks with the exact worst-case
// stopping rule of package sample, deciding the monitor's replan predicate
// ("violation risk > threshold") from a world prefix when it is certain:
//
//   - Certainly no replan — every indicator's worst-case lower probability
//     bound already clears 1-threshold — stops immediately and returns the
//     pessimistic risk bound (≤ threshold) with a nil evaluation.
//   - Certainly replan: if the caller can act on it (needFull), the
//     remaining worlds run so the returned evaluation is complete (the
//     replan search compares candidate plans against it, and the emitted
//     risk is exact); otherwise the evaluation stops with the bound.
//
// The chunk schedule includes the tail checkpoints of the no-replan target,
// so a healthy execution confirms "risk ≤ threshold" as soon as enough
// worlds have succeeded instead of always running the full budget. Either
// way the decision is identical to the fixed path's: stops happen only on
// certain verdicts. A returned non-nil evaluation ran every world and is
// bit-identical to evalKernel's (chunked folds accumulate in ascending world
// order).
func chunkedRisk(k *residualKernel, dev device.Device, threshold float64, needFull bool) (*probir.Evaluation, float64, int, error) {
	worlds, width := k.Worlds(), k.Width()
	// A mean-based budget's verdict is known before any world runs.
	detViolated := false
	for ci, c := range k.r.cons {
		if k.indIdx[ci] < 0 && k.mean > c.Bound {
			detViolated = true
		}
	}
	sums := make([]float64, width)
	kernel := func(_, t int, out []float64) error {
		return k.Sample(t, out)
	}
	ends := sample.TailChunks(riskMinWorlds, worlds, []float64{1 - threshold})
	lo := 0
	for _, end := range ends {
		if _, errs := device.ReduceBlocksRange(dev, 1, lo, end, width, sums, kernel); errs[0] != nil {
			return nil, 0, lo, errs[0]
		}
		lo = end
		if end == worlds {
			break
		}
		// Worst-case bounds per indicator over the fixed world set: the
		// final satisfaction probability of constraint ci lies in
		// [Succ/N, (Succ+N-Seen)/N] no matter how the unseen worlds come out.
		replanCertain := detViolated
		noReplanCertain := !detViolated
		riskHi := 0.0
		if detViolated {
			riskHi = 1
		}
		for ci := range k.r.cons {
			fi := k.indIdx[ci]
			if fi < 0 {
				continue
			}
			blo, bhi := sample.Bernoulli{Succ: sums[fi], Seen: end}.Range(worlds)
			if bhi < 1-threshold {
				replanCertain = true
			}
			if blo < 1-threshold {
				noReplanCertain = false
			}
			if r := 1 - blo; r > riskHi {
				riskHi = r
			}
		}
		if noReplanCertain || (replanCertain && !needFull) {
			return nil, riskHi, end, nil
		}
		if replanCertain {
			// The replan search needs the complete evaluation; finish the
			// remaining worlds in one sweep.
			if _, errs := device.ReduceBlocksRange(dev, 1, end, worlds, width, sums, kernel); errs[0] != nil {
				return nil, 0, end, errs[0]
			}
			lo = worlds
			break
		}
	}
	ev, err := k.Reduce(sums)
	if err != nil {
		return nil, 0, lo, err
	}
	return ev, violationProb(ev), lo, nil
}

// evalKernel runs a kernel's worlds on the device (one block, a thread per
// world) and reduces them — bit-identical to probir.RunKernel on any
// device, because ReduceBlocks folds thread slots in canonical order.
func evalKernel(k probir.WorldKernel, dev device.Device) (*probir.Evaluation, error) {
	sums, errs := device.ReduceBlocks(dev, 1, k.Worlds(), k.Width(), func(_, t int, out []float64) error {
		return k.Sample(t, out)
	})
	if errs[0] != nil {
		return nil, errs[0]
	}
	return k.Reduce(sums)
}
