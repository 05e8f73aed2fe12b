package opt

import (
	"fmt"
	"math"
	"sort"

	"deco/internal/device"
	"deco/internal/probir"
	"deco/internal/sample"
)

// This file implements adaptive-precision Monte-Carlo evaluation: instead of
// running every state's full world budget, the evaluator advances a batch of
// states through world chunks on the device, folds each chunk into running
// figure sums (in ascending world order, so the sums are bit-identical to
// the fixed path's at every prefix), and after each chunk consults the
// sequential stopping rules of package sample:
//
//   - A state whose feasibility verdict is decided — certainly, by the exact
//     worst-case interval, or statistically, by the anytime-valid confidence
//     sequence — stops and is finalized from its prefix. Early verdicts are
//     pessimistic where they must be: a state is only reported Feasible when
//     that is proven (or statistically decided), so a partially evaluated
//     state can never wrongly become the incumbent.
//
//   - Racing (successive elimination) drops states that provably cannot rank
//     among the batch's best BeamWidth: their optimistic final score already
//     exceeds the BeamWidth-th best finalized score. For sampled-value goals
//     the CRN contract additionally pairs per-world value differences
//     against a reference state, eliminating provably-worse states at low
//     variance. Eliminated states finalize pessimistically (never feasible),
//     so racing can only cost them expansion priority, not correctness.
//
// All decisions are functions of the running sums and the fixed chunk
// schedule, so adaptive results are identical across devices. States that
// reach the world cap reduce exactly as the fixed path does; only
// fully-evaluated states enter the evaluation cache or the snapshot store,
// and partial verdicts carry their world count (scored.worlds).

// SampleStats reports how adaptive evaluation spent its world budget, for
// observability and benchmark gating. Counters cover live kernel-path
// evaluations only (cache hits evaluate nothing) and are updated from the
// search goroutine; read them between searches.
type SampleStats struct {
	// Adaptive reports whether the compiled problem routes evaluation
	// through the adaptive path at all (Options.Adaptive requested it AND
	// the space decomposes into an indicator-backed partial kernel).
	Adaptive bool
	// Ordered reports whether adaptive evaluation runs worlds under a
	// decisive-world-first permutation (WorldOrderSpace resolved at Compile
	// and not disabled); WorldsReordered counts the worlds actually sampled
	// under that permutation.
	Ordered         bool
	WorldsReordered int64
	// StatesAdaptive counts states evaluated on the adaptive path.
	StatesAdaptive int64
	// WorldsBudget is the worlds the fixed path would have run for those
	// states; WorldsRun is the worlds actually sampled.
	WorldsBudget int64
	WorldsRun    int64
	// StoppedFeasible / StoppedInfeasible count states whose verdict was
	// decided before the cap; Raced counts states eliminated by racing;
	// FullRuns counts states that ran every world.
	StoppedFeasible   int64
	StoppedInfeasible int64
	Raced             int64
	FullRuns          int64
	// Confirmations counts final-best full re-evaluations (a search result
	// is always backed by a complete evaluation).
	Confirmations int64
}

// WorldsSaved is the number of Monte-Carlo worlds adaptive evaluation avoided
// relative to the fixed budget.
func (s SampleStats) WorldsSaved() int64 { return s.WorldsBudget - s.WorldsRun }

// SampleStats returns the problem's adaptive-evaluation counters. Like
// DeltaStats, it is only meaningful between searches.
func (p *Problem) SampleStats() SampleStats { return p.sstats }

// stateVerdict combines the per-constraint sequential checks of one state:
// infeasible as soon as any indicator is decided infeasible, feasible only
// when every indicator is decided feasible.
func (p *Problem) stateVerdict(sums []float64, seen, check int, delta float64) sample.Verdict {
	allFeasible := true
	for j, fi := range p.indIdx {
		b := sample.Bernoulli{Succ: sums[fi], Seen: seen}
		switch b.Check(p.worlds, p.indTargets[j], delta, check) {
		case sample.DecidedInfeasible:
			return sample.DecidedInfeasible
		case sample.Undecided:
			allFeasible = false
		}
	}
	if allFeasible {
		return sample.DecidedFeasible
	}
	return sample.Undecided
}

// finalizePartial reduces an early-stopped state from its world prefix. The
// pessimistic reduction (unseen worlds fail every indicator) is correct for
// infeasible and undecided stops. A statistically-decided feasible stop whose
// worst-case interval is still open needs the optimistic completion for its
// indicators — otherwise the pessimistic lower bounds would contradict the
// verdict — while deterministic constraints keep their exact checks.
func (p *Problem) finalizePartial(k probir.PartialKernel, sums []float64, seen int, v sample.Verdict) (*probir.Evaluation, error) {
	ev, err := k.ReducePartial(sums, seen)
	if err != nil {
		return nil, err
	}
	if v == sample.DecidedFeasible && !ev.Feasible {
		opt := append([]float64(nil), sums...)
		for _, fi := range p.indIdx {
			opt[fi] += float64(p.worlds - seen)
		}
		return k.ReducePartial(opt, seen)
	}
	return ev, nil
}

// evaluateAdaptive is the chunked sequential-stopping evaluation path.
// Compile engages it only when the probe kernel is a PartialKernel, so a
// state whose kernel lost that capability is an error for that state alone,
// like any other shape drift.
func (p *Problem) evaluateAdaptive(cands []candidate) []scored {
	n := len(cands)
	out := make([]scored, n)
	kernels := make([]probir.PartialKernel, n)
	var snaps []*probir.Snapshot
	if p.dspace != nil {
		snaps = p.getSnapBuf(n)
		defer p.putSnapBuf(snaps)
	}
	p.labeled(phaseKernelBuild, func() {
		for i, c := range cands {
			out[i] = scored{state: c.state, key: c.key}
			k, snap, err := p.buildKernel(c)
			if snaps != nil {
				snaps[i] = snap
			}
			if err != nil {
				out[i].err = err
				continue
			}
			pk, ok := k.(probir.PartialKernel)
			if !ok {
				out[i].err = fmt.Errorf("opt: state %v kernel lost partial reduction", c.state)
				continue
			}
			kernels[i] = pk
		}
	})

	sums := make([]float64, n*p.width)
	seen := make([]int, n)
	// pinned marks states whose feasible verdict is already certain but that
	// keep running to completion so their capture snapshot survives; racing
	// must not eliminate them (a pessimistic finalize would overwrite a
	// decided-feasible verdict).
	pinned := make([]bool, n)
	var active []int
	for i := range cands {
		if out[i].err == nil && kernels[i] != nil {
			active = append(active, i)
			p.sstats.StatesAdaptive++
			p.sstats.WorldsBudget += int64(p.worlds)
		}
	}

	// Ordered evaluation: worlds run permuted (position t samples world
	// order[t]), the schedule gains the tail checkpoints where feasible
	// verdicts first become decidable, and the value figures' per-world
	// contributions are buffered so finalized rows can be refolded in
	// ascending world order (indicator sums are exact integer adds, hence
	// order-invariant bitwise; value sums are not).
	ends := sample.Chunks(p.opts.MinWorlds, p.worlds)
	var vals []float64
	worldsRunBefore := p.sstats.WorldsRun
	if p.order != nil {
		ends = sample.TailChunks(p.opts.MinWorlds, p.worlds, p.indTargets)
		need := n * p.worlds * len(p.valIdx)
		if cap(p.valsScratch) < need {
			p.valsScratch = make([]float64, need)
		}
		vals = p.valsScratch[:need]
	}
	delta := 1 - p.opts.Confidence
	keep := p.opts.BeamWidth
	if keep < 1 {
		keep = 1
	}
	// Paired-value racing state: the reference state's key and the
	// accumulated per-world difference trackers, reset when the reference
	// changes.
	var pairRefKey string
	pairs := make(map[int]*sample.Paired)

	lo := 0
	for ci, end := range ends {
		if len(active) == 0 {
			break
		}
		nb := len(active)
		span := end - lo
		round := make([]float64, nb*p.width)
		for b, i := range active {
			copy(round[b*p.width:(b+1)*p.width], sums[i*p.width:(i+1)*p.width])
		}
		var slots []float64
		var errs []error
		p.labeled(phaseChunkEval, func() {
			slots, errs = device.ReduceBlocksRange(p.opts.Device, nb, lo, end, p.width, round, func(b, t int, slot []float64) error {
				if kernels[active[b]] == nil {
					return nil
				}
				if err := p.opts.Ctx.Err(); err != nil {
					return fmt.Errorf("opt: search cancelled: %w", err)
				}
				// Position t runs world order[t] under decisive-world-first
				// ordering; the CRN contract makes world figures a function of
				// the world index alone, so permuting positions permutes rows.
				wt := t
				if p.order != nil {
					wt = int(p.order[t])
				}
				return kernels[active[b]].Sample(wt, slot)
			})
		})
		blockOf := make(map[int]int, nb)
		var still []int
		for b, i := range active {
			blockOf[i] = b
			if errs[b] != nil {
				out[i].err = errs[b]
				out[i].worlds = seen[i]
				continue
			}
			copy(sums[i*p.width:(i+1)*p.width], round[b*p.width:(b+1)*p.width])
			if vals != nil {
				// Buffer this chunk's per-world value figures under their
				// world index, for the canonical refold at finalize.
				nv := len(p.valIdx)
				for t := lo; t < end; t++ {
					w := int(p.order[t])
					src := slots[(b*span+(t-lo))*p.width:]
					dst := vals[(i*p.worlds+w)*nv:]
					for v, fi := range p.valIdx {
						dst[v] = src[fi]
					}
				}
			}
			seen[i] = end
			still = append(still, i)
		}
		active = still
		check := ci + 1

		// Sequential stopping: finalize every decided state. A feasible-decided
		// state still holding a capture snapshot is pinned to completion
		// instead: its verdict can only be confirmed by the remaining worlds (a
		// feasible-certain prefix stays feasible), finishing costs at most the
		// tail cushion, and only a complete evaluation may keep its snapshot —
		// the parent material every delta child of this state needs.
		var undecided []int
		for _, i := range active {
			v := p.stateVerdict(sums[i*p.width:(i+1)*p.width], end, check, delta)
			if end < p.worlds && (v == sample.Undecided ||
				(v == sample.DecidedFeasible && snaps != nil && snaps[i] != nil)) {
				if v == sample.DecidedFeasible {
					pinned[i] = true
				}
				undecided = append(undecided, i)
				continue
			}
			row := sums[i*p.width : (i+1)*p.width]
			p.canonRow(vals, row, i, end)
			if end == p.worlds {
				out[i].eval, out[i].err = kernels[i].Reduce(row)
				p.sstats.FullRuns++
			} else {
				out[i].eval, out[i].err = p.finalizePartial(kernels[i], row, end, v)
				if v == sample.DecidedFeasible {
					p.sstats.StoppedFeasible++
				} else {
					p.sstats.StoppedInfeasible++
				}
			}
			out[i].worlds = end
			p.sstats.WorldsRun += int64(end)
		}
		active = undecided

		// Racing (minimized objectives only): eliminate states that provably
		// cannot rank among the batch's best `keep` finalized scores.
		if len(active) > 0 && end < p.worlds && !p.opts.Maximize {
			p.labeled(phaseRacing, func() {
				active = p.race(cands, out, kernels, sums, vals, seen, pinned, active, blockOf, slots, span, check, delta, keep, &pairRefKey, pairs)
			})
		}
		lo = end
	}
	// Anything still active hit an error path upstream; seen/worlds already
	// recorded. Account for errored states' partial spend.
	for i := range cands {
		if out[i].err != nil && kernels[i] != nil {
			p.sstats.WorldsRun += int64(seen[i])
		}
	}
	if p.order != nil {
		p.sstats.WorldsReordered += p.sstats.WorldsRun - worldsRunBefore
	}

	// Only complete evaluations parent future deltas: a partial snapshot has
	// unwritten worlds and must never enter the store.
	p.storeSnaps(snaps, out, func(i int) bool { return seen[i] == p.worlds })
	return out
}

// canonRow refolds the value-figure entries of state i's running sums in
// ascending world order over the worlds seen so far. Under decisive-world-
// first ordering the sums accumulate in permuted order; since float addition
// is not associative under reordering, a completed row must be refolded so
// Reduce returns bits identical to the fixed path's (those evaluations enter
// the cache and parent snapshots). Partial rows are refolded too, so an
// early-stopped evaluation is a pure function of the seen world SET, not the
// schedule. No-op when worlds ran unpermuted.
func (p *Problem) canonRow(vals, row []float64, i, seenWorlds int) {
	if p.order == nil || len(p.valIdx) == 0 || vals == nil {
		return
	}
	nv := len(p.valIdx)
	base := i * p.worlds
	for v, fi := range p.valIdx {
		acc := 0.0
		if seenWorlds >= p.worlds {
			for w := 0; w < p.worlds; w++ {
				acc += vals[(base+w)*nv+v]
			}
		} else {
			for w := 0; w < p.worlds; w++ {
				if int(p.rank[w]) < seenWorlds {
					acc += vals[(base+w)*nv+v]
				}
			}
		}
		row[fi] = acc
	}
}

// race applies successive elimination to the undecided states of a batch and
// returns the survivors. Two rules run, both deterministic functions of the
// running sums and chunk slots:
//
//  1. Interval elimination: a state whose optimistic final score (its exact
//     value for deterministic-value goals, or the value lower bound assuming
//     zero-valued remaining worlds for sampled-value goals) exceeds the
//     keep-th smallest finalized score can never be chosen for expansion
//     ahead of those states.
//
//  2. CRN-paired value racing (sampled-value goals): per-world differences
//     against the keep-th-ranked active state are paired samples under the
//     CRN contract; a state whose mean difference has a positive
//     empirical-Bernstein lower bound is provably worse than the reference.
//
// Eliminated states finalize pessimistically via finalizePartial (verdict
// undecided ⇒ never feasible), so they cannot wrongly become the incumbent.
func (p *Problem) race(cands []candidate, out []scored, kernels []probir.PartialKernel, sums, vals []float64, seen []int,
	pinned []bool, active []int, blockOf map[int]int, slots []float64, span, check int, delta float64, keep int,
	pairRefKey *string, pairs map[int]*sample.Paired) []int {

	eliminate := func(i int) {
		row := sums[i*p.width : (i+1)*p.width]
		p.canonRow(vals, row, i, seen[i])
		out[i].eval, out[i].err = p.finalizePartial(kernels[i], row, seen[i], sample.Undecided)
		out[i].worlds = seen[i]
		p.sstats.Raced++
		p.sstats.WorldsRun += int64(seen[i])
	}

	// Rule 1: optimistic score vs the keep-th smallest finalized score.
	var finals []float64
	for i := range cands {
		if out[i].eval != nil && out[i].err == nil {
			finals = append(finals, score(out[i].eval, false))
		}
	}
	threshold := math.Inf(1)
	if len(finals) >= keep {
		sort.Float64s(finals)
		threshold = finals[keep-1]
	}
	var survivors []int
	for _, i := range active {
		if pinned[i] {
			survivors = append(survivors, i)
			continue
		}
		var optimistic float64
		if p.valueFig < 0 {
			ev, err := kernels[i].ReducePartial(sums[i*p.width:(i+1)*p.width], seen[i])
			if err != nil {
				out[i].err = err
				out[i].worlds = seen[i]
				p.sstats.WorldsRun += int64(seen[i])
				continue
			}
			optimistic = ev.Value
		} else {
			optimistic = sums[i*p.width+p.valueFig] / float64(p.worlds)
		}
		if p.opts.Maximize {
			optimistic = -optimistic
		}
		if optimistic > threshold {
			eliminate(i)
			continue
		}
		survivors = append(survivors, i)
	}
	active = survivors

	// Rule 2: paired value racing, for sampled-value goals with enough
	// contenders left.
	if p.valueFig < 0 || len(active) <= keep {
		return active
	}
	ranked := append([]int(nil), active...)
	sort.Slice(ranked, func(a, b int) bool {
		va := sums[ranked[a]*p.width+p.valueFig]
		vb := sums[ranked[b]*p.width+p.valueFig]
		if va != vb {
			return va < vb
		}
		return cands[ranked[a]].key < cands[ranked[b]].key
	})
	ref := ranked[keep-1]
	if cands[ref].key != *pairRefKey {
		*pairRefKey = cands[ref].key
		for k := range pairs {
			delete(pairs, k)
		}
	}
	refBlock, okRef := blockOf[ref]
	if !okRef {
		return active
	}
	survivors = active[:0]
	for _, i := range active {
		if i == ref || pinned[i] {
			survivors = append(survivors, i)
			continue
		}
		bi, ok := blockOf[i]
		if !ok {
			survivors = append(survivors, i)
			continue
		}
		tr := pairs[i]
		if tr == nil {
			tr = &sample.Paired{}
			pairs[i] = tr
		}
		for t := 0; t < span; t++ {
			d := slots[(bi*span+t)*p.width+p.valueFig] - slots[(refBlock*span+t)*p.width+p.valueFig]
			tr.Add(d)
		}
		if tr.LowerBound(delta, check) > 0 {
			eliminate(i)
			continue
		}
		survivors = append(survivors, i)
	}
	return survivors
}

// confirmBest re-evaluates a partially evaluated search result on the fixed
// path, so every returned Result is backed by a complete evaluation (exact
// value, probabilities, and violation). Feasible early stops by the exact
// rule are guaranteed to stay feasible; the confirmation refines the
// reported numbers.
func (p *Problem) confirmBest(s *scored) error {
	if s == nil || s.worlds == 0 || s.worlds >= p.worlds {
		return nil
	}
	batch := p.evaluateFixed([]candidate{{state: s.state, key: s.key}})
	if batch[0].err != nil {
		return batch[0].err
	}
	s.eval = batch[0].eval
	s.worlds = 0
	p.sstats.Confirmations++
	if p.cache != nil && s.eval != nil {
		p.cache.Put(s.key, s.eval)
	}
	return nil
}
