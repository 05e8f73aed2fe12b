package opt

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"

	"deco/internal/device"
	"deco/internal/probir"
)

// Problem is a search compiled against a space and a fixed Options: every
// capability of the space — kernel shape, delta, world order, fingerprint,
// cache binding, multi-start seeds — is resolved exactly once, here, and carried
// as plain fields. The search loops and batch evaluators never probe the
// space again; Compile is the only place in the solver that type-asserts
// against the optional Space extensions.
type Problem struct {
	space  Space
	opts   Options
	starts []State

	// fingerprint identifies the space's program content; empty means the
	// space cannot vouch for its identity and the cache is unbound.
	fingerprint string

	// cache is the evaluation cache bound to (fingerprint, seed, scope);
	// nil disables caching for this problem.
	cache *Binding

	// worlds and width are the kernel shape every state's kernel must have,
	// probed from the first start state at Compile.
	worlds, width int

	// dspace, when set, routes kernel construction through delta
	// evaluation: every evaluated state captures a finish-time snapshot into
	// snaps, and a candidate whose parent snapshot is retained evaluates
	// incrementally over the dirty cone instead of the full DAG. Delta is
	// bit-identical to full evaluation by construction; disabling it
	// (Options.SnapshotBudget < 0) changes wall clock only.
	//
	// planCache holds one immutable ConePlan per distinct dirty set (keyed by
	// an FNV hash with exact-match buckets), so sibling children changing the
	// same task group — the whole expansion under GroupByExecutable — share a
	// single cone extraction and one delta-vs-full decision. Kernel
	// construction runs only in the search goroutine, so the cache needs no
	// lock; plans are read-only during concurrent sampling.
	dspace      DeltaSpace
	snaps       *snapStore
	stats       DeltaStats
	planCache   map[uint64][]planEntry
	planEntries int

	// adaptive, when set, routes kernel-path evaluation through the chunked
	// sequential-stopping evaluator (adaptive.go): states stop as soon as
	// their feasibility verdict is decided against the compiled indicator
	// targets, and racing prunes provably-worse frontier states. Resolved at
	// Compile from Options.Adaptive and the probe kernel's PartialKernel
	// capability; indIdx/indTargets are the indicator figures and their
	// percentile targets, valueFig the sampled goal figure (-1 when the goal
	// value is deterministic).
	adaptive   bool
	indIdx     []int
	indTargets []float64
	valueFig   int
	sstats     SampleStats

	// order, when non-nil, is the decisive-world-first permutation the
	// adaptive path runs worlds in (position p holds the p-th world to run);
	// rank is its inverse (rank[w] = position of world w). valIdx lists the
	// figure columns that are NOT constraint indicators: indicator sums are
	// exact integer-valued float adds and therefore order-invariant bitwise,
	// but value sums (makespan, cost) depend on float fold order, so the
	// ordered path buffers their per-world values and refolds them in
	// ascending world order at finalize — complete evaluations stay
	// bit-identical to the fixed path. valsScratch is the reused buffer.
	order       []int32
	rank        []int32
	valIdx      []int
	valsScratch []float64

	// phaseCtx holds one context per profiling phase with its pprof label
	// pre-attached, plus the base context to restore on exit. Entering a
	// phase is then two SetGoroutineLabels calls and no allocation — pprof.Do
	// would allocate a label set and a context per batch, and the delta path
	// has one more phase (snapshot_put) than the full path, so per-call
	// allocation would show up as a delta-only allocs/op regression.
	phaseCtx [nPhases]context.Context

	// snapBufs freelists the per-batch snapshot pointer buffers of the delta
	// path, for the same reason: the buffer is delta-only bookkeeping, and
	// allocating it per batch would cost the delta row allocations the full
	// path never pays. Batches nest (completeParent evaluates the parent in
	// the middle of building a child batch), hence a stack, not one field.
	snapBufMu sync.Mutex
	snapBufs  [][]*probir.Snapshot
}

// getSnapBuf returns a per-batch snapshot buffer of length n, reusing a
// freelisted one when large enough.
func (p *Problem) getSnapBuf(n int) []*probir.Snapshot {
	p.snapBufMu.Lock()
	for len(p.snapBufs) > 0 {
		buf := p.snapBufs[len(p.snapBufs)-1]
		p.snapBufs = p.snapBufs[:len(p.snapBufs)-1]
		if cap(buf) >= n {
			p.snapBufMu.Unlock()
			return buf[:n]
		}
		// Undersized for this batch; drop it and keep looking.
	}
	p.snapBufMu.Unlock()
	return make([]*probir.Snapshot, n)
}

// putSnapBuf recycles a batch buffer. Ownership of any snapshots it held has
// already moved to the snapshot store or back to the evaluator's pool, so
// entries are only cleared, never released.
func (p *Problem) putSnapBuf(buf []*probir.Snapshot) {
	for i := range buf {
		buf[i] = nil
	}
	p.snapBufMu.Lock()
	if len(p.snapBufs) < 8 {
		p.snapBufs = append(p.snapBufs, buf)
	}
	p.snapBufMu.Unlock()
}

// Profiling phases: CPU profiles attribute hot-path time to the solver phase
// that spent it via the deco_phase pprof label.
const (
	phaseKernelBuild = iota
	phaseChunkEval
	phaseRacing
	phaseSnapshotPut
	nPhases
)

// phaseNames holds the deco_phase label values, indexed by phase constant.
var phaseNames = [nPhases]string{"kernel_build", "chunk_eval", "racing", "snapshot_put"}

// planEntry is one cached dirty-cone plan; dirty is the exact set the plan
// was built for (hash buckets resolve collisions by comparing it).
type planEntry struct {
	dirty []int32
	plan  *probir.ConePlan
}

// maxConePlans bounds the plan cache. Transform spaces generate a fixed set
// of dirty groups per search (one per (group, direction) plus the global
// shifts), so the cap exists only as a backstop for pathological spaces.
const maxConePlans = 1024

// DeltaStats reports how the compiled problem's evaluations were routed, for
// observability and benchmark gating. Counters cover kernel-path live
// evaluations only (cache hits evaluate nothing).
type DeltaStats struct {
	// DeltaEvals counts states evaluated incrementally from a parent
	// snapshot.
	DeltaEvals int64
	// FullEvals counts kernel-path states evaluated by the full DP.
	FullEvals int64
	// Fallbacks counts states that carried transform provenance but
	// evaluated fully anyway (parent snapshot missing or evicted, or the
	// dirty cone exceeded the structural threshold).
	Fallbacks int64
	// Snapshots / SnapshotBytes are the retained snapshot count and bytes;
	// Evictions counts snapshots recycled under budget pressure.
	Snapshots     int
	SnapshotBytes int64
	Evictions     int64
	// ConePlans counts dirty-cone plan extractions; ConePlanHits counts warm
	// plan-cache hits — every hit is a sibling child that reused another
	// child's cone extraction instead of re-walking the DAG.
	ConePlans    int64
	ConePlanHits int64
	// ParentCompletions counts expansion parents re-evaluated in full to
	// regenerate a snapshot their own (early-stopped) evaluation never
	// captured, unlocking delta evaluation for their sibling batches.
	ParentCompletions int64
}

// DeltaStats returns the problem's evaluation-routing counters. It is only
// meaningful between searches (the counters are updated from the search
// goroutine).
func (p *Problem) DeltaStats() DeltaStats {
	st := p.stats
	if p.snaps != nil {
		st.Snapshots, st.SnapshotBytes, st.Evictions = p.snaps.stats()
	}
	return st
}

// Compile resolves the space's capabilities against the options and returns
// the runnable problem. The kernel shape is probed from the first start
// state; a kernel that fails to build for the probe state fails Compile —
// the same construction would fail for the search's first batch anyway.
func Compile(sp Space, o Options) (*Problem, error) {
	fillDefaults(&o)
	// Adaptive-sampling knobs are validated here, at compile time, so a bad
	// configuration fails with a clear error instead of silently running a
	// fixed-precision (or subtly wrong) search.
	if o.Worlds < 0 {
		return nil, fmt.Errorf("opt: Options.Worlds must be >= 0, got %d", o.Worlds)
	}
	if o.MinWorlds < 0 {
		return nil, fmt.Errorf("opt: Options.MinWorlds must be >= 0 (0 selects the default first chunk), got %d", o.MinWorlds)
	}
	if o.Confidence < 0.5 || o.Confidence >= 1 {
		return nil, fmt.Errorf("opt: Options.Confidence must be in [0.5, 1) (0 selects the default), got %v", o.Confidence)
	}
	p := &Problem{space: sp, opts: o, valueFig: -1}

	if fs, ok := sp.(FingerprintSpace); ok {
		p.fingerprint = fs.Fingerprint()
	}
	if p.opts.Cache != nil && p.fingerprint != "" {
		// An unidentifiable program stays unbound: a hit could be wrong.
		p.cache = p.opts.Cache.Bind(fmt.Sprintf("%s|%d|", p.fingerprint, p.opts.Seed), p.opts.CacheScope)
	}

	p.starts = []State{sp.Initial()}
	if ms, ok := sp.(MultiStartSpace); ok {
		if s := ms.Starts(); len(s) > 0 {
			p.starts = s
		}
	}

	probe, err := sp.Kernel(p.starts[0], p.opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("opt: compiling kernel: %w", err)
	}
	if probe == nil {
		return nil, fmt.Errorf("opt: space built no kernel for its start state")
	}
	p.worlds, p.width = probe.Worlds(), probe.Width()
	if o.Worlds > 0 && p.worlds != o.Worlds {
		return nil, fmt.Errorf("opt: Options.Worlds=%d, but the compiled kernel samples %d worlds per state", o.Worlds, p.worlds)
	}
	// Adaptive precision engages only when everything it rests on is present:
	// a kernel that can finalize from a world prefix, indicator figures that
	// fully determine feasibility, and a world budget the first chunk does
	// not already cover. Otherwise the flag is inert and the problem runs the
	// fixed path (Problem.Adaptive reports which).
	if pk, ok := probe.(probir.PartialKernel); ok && o.Adaptive && p.worlds > o.MinWorlds {
		if idx, targets, okInd := pk.Indicators(); okInd && len(idx) > 0 {
			p.adaptive = true
			p.indIdx, p.indTargets = idx, targets
			p.valueFig = pk.ValueFigure()
			// Non-indicator columns need canonical (ascending world order)
			// refolds when worlds run permuted.
			isInd := make([]bool, p.width)
			for _, fi := range idx {
				if fi >= 0 && fi < p.width {
					isInd[fi] = true
				}
			}
			for w := 0; w < p.width; w++ {
				if !isInd[w] {
					p.valIdx = append(p.valIdx, w)
				}
			}
		}
	}
	// Decisive-world-first ordering engages on the adaptive path only. The
	// permutation is a pure function of (program content, seed) shared by
	// every state, so adaptive decisions stay bit-identical across devices. A
	// slice that is not a permutation of [0, worlds) is rejected rather than
	// trusted — a corrupt order would silently skip worlds.
	if ws, ok := sp.(WorldOrderSpace); ok && p.adaptive && !o.DisableWorldOrder {
		if ord := ws.WorldOrder(p.opts.Seed); isPermutation(ord, p.worlds) {
			p.order = ord
			p.rank = make([]int32, p.worlds)
			for pos, w := range ord {
				p.rank[w] = int32(pos)
			}
		}
	}
	p.sstats.Adaptive = p.adaptive
	p.sstats.Ordered = p.order != nil
	// Delta evaluation needs an evaluation that actually has per-world
	// finish times to snapshot.
	if ds, ok := sp.(DeltaSpace); ok && p.opts.SnapshotBudget >= 0 {
		if probeSnap := ds.NewSnapshot(); probeSnap != nil {
			ds.ReleaseSnapshot(probeSnap)
			budget := p.opts.SnapshotBudget
			if budget == 0 {
				budget = 64 << 20
			}
			p.dspace = ds
			p.snaps = newSnapStore(budget, ds.ReleaseSnapshot)
			p.planCache = map[uint64][]planEntry{}
		}
	}
	for ph, name := range phaseNames {
		p.phaseCtx[ph] = pprof.WithLabels(p.opts.Ctx, pprof.Labels("deco_phase", name))
	}
	return p, nil
}

// isPermutation reports whether ord is a permutation of [0, n).
func isPermutation(ord []int32, n int) bool {
	if len(ord) != n || n == 0 {
		return false
	}
	seen := make([]bool, n)
	for _, w := range ord {
		if w < 0 || int(w) >= n || seen[w] {
			return false
		}
		seen[w] = true
	}
	return true
}

// Fingerprint returns the compiled program fingerprint (empty when the space
// has none and caching is disabled).
func (p *Problem) Fingerprint() string { return p.fingerprint }

// Starts returns the compiled start states.
func (p *Problem) Starts() []State { return p.starts }

// Adaptive reports whether state evaluations run on the adaptive-precision
// (sequential stopping + racing) path. False either because Options.Adaptive
// was off or because the space/device cannot support it.
func (p *Problem) Adaptive() bool { return p.adaptive }

// Search runs the compiled problem to completion: A* when Options.AStar is
// set, otherwise the generic search of Algorithm 2.
func (p *Problem) Search() (*Result, error) {
	if p.opts.AStar {
		return p.astarSearch()
	}
	return p.genericSearch()
}

// EvaluateStates scores a batch of states on the compiled pipeline — the
// cache, kernel dispatch, and device the search itself would use — and
// returns the evaluations in input order. It is the building block for
// benchmarks and bit-exactness tests that need the solver's hot loop without
// a surrounding search.
func (p *Problem) EvaluateStates(states []State) ([]*probir.Evaluation, error) {
	cands := make([]candidate, len(states))
	for i, st := range states {
		cands[i] = candidate{state: st, key: st.Key()}
	}
	out := make([]*probir.Evaluation, len(states))
	for i, s := range p.evaluateCandidates(cands) {
		if s.err != nil {
			return nil, s.err
		}
		out[i] = s.eval
	}
	return out, nil
}

// EvaluateExpansion scores a parent state and then its full neighbor
// expansion on the compiled pipeline, returning the parent's evaluation and
// the children with theirs in generation order. When the problem compiled
// with delta evaluation, the parent's evaluation captures its finish-time
// snapshot and every child whose dirty cone is small enough evaluates
// incrementally from it — the frontier-expansion hot loop the delta engine
// exists for, exposed for benchmarks and equivalence tests.
func (p *Problem) EvaluateExpansion(parent State) (*probir.Evaluation, []State, []*probir.Evaluation, error) {
	pk := parent.Key()
	ps := p.evaluateCandidates([]candidate{{state: parent, key: pk}})
	if ps[0].err != nil {
		return nil, nil, nil, ps[0].err
	}
	batch := p.evaluateCandidates(p.childCandidates(parent, pk))
	states := make([]State, len(batch))
	evals := make([]*probir.Evaluation, len(batch))
	for i, s := range batch {
		if s.err != nil {
			return nil, nil, nil, s.err
		}
		states[i], evals[i] = s.state, s.eval
	}
	return ps[0].eval, states, evals, nil
}

// startCandidates wraps the compiled start states as parentless candidates.
func (p *Problem) startCandidates() []candidate {
	out := make([]candidate, len(p.starts))
	for i, s := range p.starts {
		out[i] = candidate{state: s, key: s.Key()}
	}
	return out
}

// childCandidates expands a parent into evaluation candidates. With delta
// evaluation compiled in, each child carries the parent key and the
// changed-task set so the kernel path can evaluate it incrementally;
// otherwise this is exactly Space.Neighbors (TransformNeighbors is required
// to enumerate the same children in the same order, so the search trajectory
// is independent of which path built the candidates).
func (p *Problem) childCandidates(parent State, parentKey string) []candidate {
	if p.dspace != nil {
		trs := p.dspace.TransformNeighbors(parent)
		out := make([]candidate, len(trs))
		for i, tr := range trs {
			out[i] = candidate{state: tr.Child, key: tr.Child.Key(), parentKey: parentKey, parent: parent, dirty: tr.Tasks}
		}
		return out
	}
	ns := p.space.Neighbors(parent)
	out := make([]candidate, len(ns))
	for i, s := range ns {
		out[i] = candidate{state: s, key: s.Key()}
	}
	return out
}

// evaluateCandidates scores candidates, consulting the evaluation cache when
// the compiled problem has one. Hits return the stored evaluation (shared,
// never modified); misses run live and are stored. Because evaluations are
// deterministic given (fingerprint, seed, state), a warm cache changes only
// wall-clock time, never the search trajectory.
func (p *Problem) evaluateCandidates(cands []candidate) []scored {
	if p.cache == nil {
		return p.evaluateLive(cands)
	}
	out := make([]scored, len(cands))
	var miss []candidate
	var missIdx []int
	for i, c := range cands {
		if ev, ok := p.cache.Get(c.key); ok {
			out[i] = scored{state: c.state, key: c.key, eval: ev}
			continue
		}
		miss = append(miss, c)
		missIdx = append(missIdx, i)
	}
	if len(miss) > 0 {
		for mi, s := range p.evaluateLive(miss) {
			out[missIdx[mi]] = s
			// Only complete evaluations enter the cache: an adaptive early
			// stop (0 < s.worlds < p.worlds) is a pessimistic verdict over a
			// world prefix, and caching it would freeze that pessimism into
			// later searches that share the binding.
			if s.err == nil && s.eval != nil && (s.worlds == 0 || s.worlds >= p.worlds) {
				p.cache.Put(s.key, s.eval)
			}
		}
	}
	return out
}

// evaluateLive scores candidates bypassing the cache, on the kernel path:
// block per state, thread per Monte-Carlo iteration, so even a batch
// narrower than the machine saturates every worker. Cancellation is honored
// at per-thread granularity; results are bit-identical across devices and
// scheduling orders because every world's figures depend only on (kernel,
// iteration) and reductions fold in iteration order.
func (p *Problem) evaluateLive(cands []candidate) []scored {
	if p.adaptive {
		return p.evaluateAdaptive(cands)
	}
	return p.evaluateFixed(cands)
}

// buildKernel constructs one candidate's world kernel. Without delta this is
// the space's kernel. With delta, the candidate's evaluation captures a
// snapshot, and when its parent's snapshot is retained the kernel evaluates
// incrementally over the dirty cone; a declined delta (cone too large, parent
// evicted) falls back to a full capturing kernel. The returned snapshot, if
// any, is owned by the caller: stored on evaluation success, released
// otherwise. A kernel whose shape drifts from the compiled one is an error
// for its state alone.
func (p *Problem) buildKernel(c candidate) (probir.WorldKernel, *probir.Snapshot, error) {
	k, snap, err := p.routeKernel(c)
	switch {
	case err != nil:
	case k == nil:
		err = fmt.Errorf("opt: space built no kernel for state %v", c.state)
	case k.Worlds() != p.worlds || k.Width() != p.width:
		err = fmt.Errorf("opt: state %v kernel shape (%d worlds, %d figures) drifted from the compiled (%d, %d)",
			c.state, k.Worlds(), k.Width(), p.worlds, p.width)
	}
	if err != nil {
		if snap != nil {
			p.dspace.ReleaseSnapshot(snap)
		}
		return nil, nil, err
	}
	return k, snap, nil
}

// routeKernel picks the candidate's kernel — plain, delta, or full capturing —
// and updates the routing counters. The snapshot is returned even on error,
// for buildKernel to release.
func (p *Problem) routeKernel(c candidate) (probir.WorldKernel, *probir.Snapshot, error) {
	if p.dspace == nil {
		k, err := p.space.Kernel(c.state, p.opts.Seed)
		return k, nil, err
	}
	snap := p.dspace.NewSnapshot()
	if c.parentKey != "" && len(c.dirty) > 0 {
		parent, ok := p.snaps.get(c.parentKey)
		if !ok && c.parent != nil && p.worthDelta(c.dirty) {
			// The parent's own evaluation stopped early (adaptive partial
			// verdicts never capture), or its snapshot was evicted. One full
			// evaluation regenerates it and buys incremental evaluation for the
			// whole sibling batch — this is what lets sequential stopping and
			// delta evaluation compound instead of starving each other.
			p.completeParent(c.parent, c.parentKey)
			parent, ok = p.snaps.get(c.parentKey)
		}
		if ok {
			k, err := p.deltaKernel(c, parent, snap)
			if err != nil {
				return nil, snap, err
			}
			if k != nil {
				p.stats.DeltaEvals++
				return k, snap, nil
			}
		}
		p.stats.Fallbacks++
	}
	k, err := p.dspace.KernelSnap(c.state, p.opts.Seed, snap)
	if err == nil {
		p.stats.FullEvals++
	}
	return k, snap, err
}

// deltaKernel builds the incremental kernel of one candidate from the shared
// cone plan of its dirty set. Returns (nil, nil) when delta does not apply
// and the caller must evaluate fully.
func (p *Problem) deltaKernel(c candidate, parent, snap *probir.Snapshot) (probir.WorldKernel, error) {
	plan, err := p.planFor(c.dirty)
	if err != nil {
		return nil, err
	}
	return p.dspace.DeltaKernel(c.state, p.opts.Seed, plan, parent, snap)
}

// worthDelta reports whether a child dirtying this task set would actually
// evaluate incrementally — the gate on regenerating a missing parent snapshot,
// so a batch whose cones the work model rejects anyway never pays the extra
// full evaluation.
func (p *Problem) worthDelta(dirty []int32) bool {
	plan, err := p.planFor(dirty)
	return err == nil && plan.Delta()
}

// completeParent re-evaluates an expansion parent on the fixed path to
// regenerate its finish-time snapshot. Errors are deliberately swallowed: the
// caller falls back to full child evaluations, which surface any real failure
// themselves under the same kernels.
func (p *Problem) completeParent(parent State, parentKey string) {
	batch := p.evaluateFixed([]candidate{{state: parent, key: parentKey}})
	p.stats.ParentCompletions++
	if s := batch[0]; s.err == nil && s.eval != nil && p.cache != nil {
		p.cache.Put(s.key, s.eval)
	}
}

// planFor returns the (possibly cached) cone plan of one dirty set. The
// cache key is an FNV-1a hash of the set with exact-match buckets, so two
// children dirtying the same task group — every sibling pair under
// GroupByExecutable — share one plan, one cone walk, and one delta-vs-full
// decision. Only the search goroutine calls this (kernel construction is
// serial), so no lock is needed.
func (p *Problem) planFor(dirty []int32) (*probir.ConePlan, error) {
	h := uint64(1469598103934665603)
	for _, d := range dirty {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(d >> s))
			h *= 1099511628211
		}
	}
	for _, e := range p.planCache[h] {
		if equalDirty(e.dirty, dirty) {
			p.stats.ConePlanHits++
			return e.plan, nil
		}
	}
	plan, err := p.dspace.PlanCone(dirty)
	if err != nil {
		return nil, err
	}
	p.stats.ConePlans++
	if p.planEntries < maxConePlans {
		p.planCache[h] = append(p.planCache[h], planEntry{dirty: dirty, plan: plan})
		p.planEntries++
	}
	return plan, nil
}

func equalDirty(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// labeled runs f under a pprof label so CPU profiles attribute hot-path time
// to the solver phase that spent it. Labels propagate into goroutines
// spawned inside f, so device workers inherit the phase. The labeled
// contexts are precomputed at Compile (see phaseCtx); a nested phase
// restores the unlabeled base context on exit, not its enclosing phase.
// Delta-only regions use enterPhase/exitPhase directly — the closure this
// form takes would itself be a per-batch allocation the full path never pays.
func (p *Problem) labeled(phase int, f func()) {
	p.enterPhase(phase)
	defer p.exitPhase()
	f()
}

func (p *Problem) enterPhase(phase int) { pprof.SetGoroutineLabels(p.phaseCtx[phase]) }

func (p *Problem) exitPhase() { pprof.SetGoroutineLabels(p.opts.Ctx) }

// evaluateFixed is the fixed-precision path: every state runs its full world
// budget. It is the routing target for non-adaptive problems and for
// confirmBest's and completeParent's full re-evaluations.
func (p *Problem) evaluateFixed(cands []candidate) []scored {
	out := make([]scored, len(cands))
	kernels := make([]probir.WorldKernel, len(cands))
	var snaps []*probir.Snapshot
	if p.dspace != nil {
		snaps = p.getSnapBuf(len(cands))
		defer p.putSnapBuf(snaps)
	}
	p.labeled(phaseKernelBuild, func() {
		for i, c := range cands {
			out[i] = scored{state: c.state, key: c.key}
			k, snap, err := p.buildKernel(c)
			kernels[i], out[i].err = k, err
			if snaps != nil {
				snaps[i] = snap
			}
		}
	})
	dev := p.opts.Device
	p.labeled(phaseChunkEval, func() {
		sums, errs := device.ReduceBlocks(dev, len(cands), p.worlds, p.width, func(b, t int, slot []float64) error {
			if kernels[b] == nil {
				return nil // kernel construction already failed for this state
			}
			if err := p.opts.Ctx.Err(); err != nil {
				return fmt.Errorf("opt: search cancelled: %w", err)
			}
			return kernels[b].Sample(t, slot)
		})
		// Reductions are independent per state; run them as blocks too
		// (CostFn objectives such as the packed plan cost do real work here).
		dev.Map(len(cands), func(i int) {
			if out[i].err != nil {
				return
			}
			if errs[i] != nil {
				out[i].err = errs[i]
				return
			}
			out[i].eval, out[i].err = kernels[i].Reduce(sums[i*p.width : (i+1)*p.width])
		})
	})
	// Sampling is complete: snapshots of successfully evaluated states enter
	// the store (possibly evicting older generations back to the pool);
	// failed states' snapshots are recycled directly. Storing strictly after
	// the batch finishes is what makes eviction safe — no running kernel can
	// hold a reference to an evicted snapshot.
	p.storeSnaps(snaps, out, func(int) bool { return true })
	return out
}

// storeSnaps hands a finished batch's snapshots to the store — those of
// states that evaluated successfully and that complete(i) reports ran every
// world — and recycles the rest.
func (p *Problem) storeSnaps(snaps []*probir.Snapshot, out []scored, complete func(i int) bool) {
	if snaps == nil {
		return
	}
	p.enterPhase(phaseSnapshotPut)
	for i, sn := range snaps {
		if sn == nil {
			continue
		}
		if out[i].err == nil && out[i].eval != nil && complete(i) {
			p.snaps.put(out[i].key, sn)
		} else {
			p.dspace.ReleaseSnapshot(sn)
		}
	}
	p.exitPhase()
}
