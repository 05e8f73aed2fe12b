package opt

import (
	"fmt"
	"sort"

	"deco/internal/dag"
	"deco/internal/estimate"
	"deco/internal/probir"
	"deco/internal/sim"
)

// Op identifies one of the six workflow transformation operations the
// solver's state transitions are driven by (§5.3, citing the authors' ToC
// work). Promote and Demote change instance configurations and therefore the
// value of the probabilistic goal/constraints; Move, Merge, Split and
// Co-Scheduling rearrange tasks on instances to exploit partial hours and
// are applied when a configuration is materialized into an executable plan
// (Consolidate).
type Op int

// The six transformation operations.
const (
	// OpMove delays a task's execution to a later time (materialized by the
	// serial ordering of merged instances).
	OpMove Op = iota
	// OpMerge merges two tasks with the same configuration onto the same
	// instance to fully utilize the instance partial hour.
	OpMerge
	// OpPromote changes a task's configuration to a more powerful type.
	OpPromote
	// OpDemote changes a task's configuration to a less powerful type.
	OpDemote
	// OpSplit suspends a running task and resumes it later. Our simulator
	// has no preemption, so Split never materializes; it is accepted in
	// operation sets for API completeness.
	OpSplit
	// OpCoSchedule assigns multiple same-configuration tasks to the same
	// instance.
	OpCoSchedule
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpMove:
		return "Move"
	case OpMerge:
		return "Merge"
	case OpPromote:
		return "Promote"
	case OpDemote:
		return "Demote"
	case OpSplit:
		return "Split"
	case OpCoSchedule:
		return "Co-Scheduling"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// ScheduleSpace is the search space of the workflow scheduling problem
// (§3.1): states assign an instance-type index to every task; neighbors
// Promote/Demote one task group at a time.
type ScheduleSpace struct {
	W    *dag.Workflow
	Eval probir.Evaluator
	// Groups partitions task indices; a transformation applies to a whole
	// group (see GroupPerTask / GroupByExecutable).
	Groups [][]int
	// Ops enables Promote and/or Demote transitions.
	Ops []Op
	// Init is the initial configuration; nil means all tasks on type 0
	// (the cheapest — Figure 5b's initial state).
	Init State
	// CostFn, when set, replaces the evaluator's goal value (typically
	// the fractional Eq. 1 cost) with a plan-level cost such as
	// PackedMeanCost; feasibility still comes from the evaluator's
	// Monte-Carlo constraint inference.
	CostFn func(State) (float64, error)
	// CostTag identifies the CostFn for the evaluation cache: two spaces
	// with equal evaluator fingerprints and equal tags must apply the same
	// objective. A set CostFn with an empty tag disables caching (the
	// closure cannot be hashed, so a hit could carry the wrong objective).
	CostTag string
}

// GroupPerTask puts every task in its own group: the exact space of the
// paper's formulation, used for small workflows.
func GroupPerTask(w *dag.Workflow) [][]int {
	groups := make([][]int, w.Len())
	for i := range groups {
		groups[i] = []int{i}
	}
	return groups
}

// GroupByExecutable groups tasks sharing an executable: Montage's thousands
// of mProjectPP tasks promote together. This collapses the optimization
// space the way the Autoscaling baseline's per-level typing does and keeps
// the branching factor independent of workflow size.
func GroupByExecutable(w *dag.Workflow) [][]int {
	byExec := map[string][]int{}
	var names []string
	for i, t := range w.Tasks {
		if _, ok := byExec[t.Executable]; !ok {
			names = append(names, t.Executable)
		}
		byExec[t.Executable] = append(byExec[t.Executable], i)
	}
	sort.Strings(names)
	groups := make([][]int, 0, len(names))
	for _, n := range names {
		groups = append(groups, byExec[n])
	}
	return groups
}

// NewScheduleSpace builds the scheduling search space with sensible
// defaults: per-task groups up to 30 tasks (the exact formulation),
// per-executable beyond (keeping the branching factor workable); Promote
// and Demote enabled; all-cheapest initial state.
func NewScheduleSpace(w *dag.Workflow, eval probir.Evaluator) *ScheduleSpace {
	var groups [][]int
	if w.Len() <= 30 {
		groups = GroupPerTask(w)
	} else {
		groups = GroupByExecutable(w)
	}
	return &ScheduleSpace{
		W: w, Eval: eval, Groups: groups,
		Ops: []Op{OpPromote, OpDemote},
	}
}

// Initial implements Space.
func (s *ScheduleSpace) Initial() State {
	if s.Init != nil {
		return s.Init.Clone()
	}
	return make(State, s.W.Len())
}

// Starts implements MultiStartSpace: one homogeneous configuration per
// instance type, from the all-cheapest state of Figure 5b to the
// all-fastest one, so every deadline regime has a nearby start and the
// packing-friendly homogeneous plans are all reachable. An explicit Init
// suppresses multi-start.
func (s *ScheduleSpace) Starts() []State {
	if s.Init != nil {
		return []State{s.Init.Clone()}
	}
	k := s.Eval.NumTypes()
	starts := make([]State, k)
	for j := 0; j < k; j++ {
		st := make(State, s.W.Len())
		for i := range st {
			st[i] = j
		}
		starts[j] = st
	}
	return starts
}

// TransformNeighbors implements DeltaSpace: one child per (group,
// enabled direction), as in Figure 5b where each child promotes one task,
// plus one whole-workflow shift per direction, each annotated with the
// operation and the exact task indices whose type changed. The global shift
// preserves type homogeneity, which the Merge/Co-Scheduling packing rewards
// (heterogeneous plans cannot share instances across types), so it lets the
// search cross the homogeneity ridge single-group moves cannot.
func (s *ScheduleSpace) TransformNeighbors(st State) []Transform {
	k := s.Eval.NumTypes()
	var out []Transform
	for _, op := range s.Ops {
		var delta int
		switch op {
		case OpPromote:
			delta = 1
		case OpDemote:
			delta = -1
		default:
			continue // Move/Merge/Split/Co-Scheduling act at plan level
		}
		for _, g := range s.Groups {
			child := st.Clone()
			var tasks []int32
			for _, i := range g {
				nv := child[i] + delta
				if nv >= 0 && nv < k {
					child[i] = nv
					tasks = append(tasks, int32(i))
				}
			}
			if len(tasks) > 0 {
				out = append(out, Transform{Op: op, Tasks: tasks, Child: child})
			}
		}
		// Global shift: every task moves one step in this direction.
		child := st.Clone()
		var tasks []int32
		for i := range child {
			nv := child[i] + delta
			if nv >= 0 && nv < k {
				child[i] = nv
				tasks = append(tasks, int32(i))
			}
		}
		if len(tasks) > 0 {
			out = append(out, Transform{Op: op, Tasks: tasks, Child: child})
		}
	}
	return out
}

// Neighbors implements Space: TransformNeighbors with the transformation
// metadata stripped — by construction the same children in the same order.
func (s *ScheduleSpace) Neighbors(st State) []State {
	trs := s.TransformNeighbors(st)
	out := make([]State, len(trs))
	for i, tr := range trs {
		out[i] = tr.Child
	}
	return out
}

// Kernel implements Space: the evaluator's per-world kernel, with any CostFn
// objective applied at reduction time. The Prolog interpreter samples its
// exetime facts per world rather than from CRN rows, so its worlds draw from
// the state-keyed substream StateBase(seed, st); every other evaluator
// shares the search seed's common random numbers across states.
func (s *ScheduleSpace) Kernel(st State, seed int64) (probir.WorldKernel, error) {
	base := seed
	if _, stateKeyed := s.Eval.(*probir.Prolog); stateKeyed {
		base = StateBase(seed, st)
	}
	k, err := s.Eval.Kernel(st, base)
	return s.withCost(st, k, err)
}

// NewSnapshot implements DeltaSpace: a pooled finish-time snapshot from a
// Native evaluator, or nil when the evaluator cannot delta (which disables
// delta evaluation at Compile time).
func (s *ScheduleSpace) NewSnapshot() *probir.Snapshot {
	if n, ok := s.Eval.(*probir.Native); ok {
		return n.NewSnapshot()
	}
	return nil
}

// The remaining DeltaSpace methods run only after NewSnapshot returned a
// snapshot, i.e. when the evaluator is a *probir.Native.

// ReleaseSnapshot implements DeltaSpace.
func (s *ScheduleSpace) ReleaseSnapshot(sn *probir.Snapshot) {
	s.Eval.(*probir.Native).ReleaseSnapshot(sn)
}

// KernelSnap implements DeltaSpace. Capture happens inside the evaluator
// kernel's Sample, so the CostFn wrapper never affects the snapshot.
func (s *ScheduleSpace) KernelSnap(st State, seed int64, snap *probir.Snapshot) (probir.WorldKernel, error) {
	k, err := s.Eval.(*probir.Native).KernelSnap(st, seed, snap)
	return s.withCost(st, k, err)
}

// PlanCone implements DeltaSpace.
func (s *ScheduleSpace) PlanCone(dirty []int32) (*probir.ConePlan, error) {
	return s.Eval.(*probir.Native).PlanCone(dirty)
}

// DeltaKernel implements DeltaSpace: the evaluator's incremental kernel (nil
// when delta does not apply for this transition), with any CostFn objective
// applied at reduction time.
func (s *ScheduleSpace) DeltaKernel(st State, seed int64, plan *probir.ConePlan, parent, snap *probir.Snapshot) (probir.WorldKernel, error) {
	k, err := s.Eval.(*probir.Native).DeltaKernel(st, seed, plan, parent, snap)
	return s.withCost(st, k, err)
}

// withCost applies the CostFn objective to a built kernel of st (identity
// without a CostFn; nil kernels and errors pass through).
func (s *ScheduleSpace) withCost(st State, k probir.WorldKernel, err error) (probir.WorldKernel, error) {
	if err != nil || k == nil || s.CostFn == nil {
		return k, err
	}
	return &costFnKernel{WorldKernel: k, fn: s.CostFn, st: st.Clone()}, nil
}

// WorldOrder implements WorldOrderSpace: a Native evaluator's
// decisive-world-first permutation. The CostFn never affects it — ordering
// is a property of the Monte-Carlo worlds, and the CostFn only rewrites the
// reduced goal value.
func (s *ScheduleSpace) WorldOrder(seed int64) []int32 {
	if n, ok := s.Eval.(*probir.Native); ok {
		return n.WorldOrder(seed)
	}
	return nil
}

// Fingerprint implements FingerprintSpace: the evaluator's program
// fingerprint composed with the objective tag. Empty (caching disabled) when
// the evaluator cannot fingerprint itself or a CostFn has no CostTag.
func (s *ScheduleSpace) Fingerprint() string {
	fe, ok := s.Eval.(interface{ Fingerprint() string })
	if !ok {
		return ""
	}
	fp := fe.Fingerprint()
	if fp == "" {
		return ""
	}
	if s.CostFn != nil {
		if s.CostTag == "" {
			return ""
		}
		fp += "|cost=" + s.CostTag
	}
	return fp
}

// costFnKernel replaces the reduced goal value with the plan-level cost. The
// cost runs inside Reduce, which the solver schedules per-state on the
// device, so packing stays parallel.
type costFnKernel struct {
	probir.WorldKernel
	fn func(State) (float64, error)
	st State
}

func (k *costFnKernel) Reduce(sums []float64) (*probir.Evaluation, error) {
	ev, err := k.WorldKernel.Reduce(sums)
	if err != nil {
		return nil, err
	}
	v, err := k.fn(k.st)
	if err != nil {
		return nil, err
	}
	ev.Value = v
	return ev, nil
}

// Indicators forwards the inner kernel's partial-evaluation capability: the
// CostFn changes the goal value only, never the constraint indicators.
func (k *costFnKernel) Indicators() (idx []int, targets []float64, ok bool) {
	if pk, isPartial := k.WorldKernel.(probir.PartialKernel); isPartial {
		return pk.Indicators()
	}
	return nil, nil, false
}

// ValueFigure reports a deterministic goal value: the CostFn replaces the
// reduced value with a world-free plan cost, exact under any world prefix.
func (k *costFnKernel) ValueFigure() int { return -1 }

// ReducePartial applies the CostFn over the inner partial reduction, exactly
// as Reduce applies it over the full one.
func (k *costFnKernel) ReducePartial(sums []float64, seen int) (*probir.Evaluation, error) {
	pk, isPartial := k.WorldKernel.(probir.PartialKernel)
	if !isPartial {
		return nil, fmt.Errorf("opt: inner kernel does not support partial reduction")
	}
	ev, err := pk.ReducePartial(sums, seen)
	if err != nil {
		return nil, err
	}
	v, err := k.fn(k.st)
	if err != nil {
		return nil, err
	}
	ev.Value = v
	return ev, nil
}

// NewPackedScheduleSpace builds the scheduling space with the hour-billed
// packed cost objective — the full transformation-aware optimization the
// engine uses by default.
func NewPackedScheduleSpace(w *dag.Workflow, eval probir.Evaluator, tbl *estimate.Table, prices []float64, region string) *ScheduleSpace {
	sp := NewScheduleSpace(w, eval)
	sp.CostFn = func(st State) (float64, error) {
		return PackedMeanCost(w, st, tbl, prices, region)
	}
	sp.CostTag = "packed:" + region
	return sp
}

// slotSpan records one packed instance's lifetime in the mean schedule.
type slotSpan struct {
	typ        string
	typeIdx    int
	start, end float64
	used       bool
}

// packMeanSchedule packs a configuration's mean schedule onto shared
// instances: the Merge and Co-Scheduling transformations reuse an instance
// of the same type that is idle by a task's start when the gap stays within
// an already-billed hour; Move is implicit in the serial order.
func packMeanSchedule(w *dag.Workflow, config State, tbl *estimate.Table, region string) (*sim.Plan, []slotSpan, error) {
	if len(config) != w.Len() {
		return nil, nil, fmt.Errorf("opt: config length %d, want %d", len(config), w.Len())
	}
	cfg := make(map[string]int, w.Len())
	for i, t := range w.Tasks {
		cfg[t.ID] = config[i]
	}
	means, err := tbl.MeanDurations(cfg)
	if err != nil {
		return nil, nil, err
	}
	// Mean schedule: start/finish under infinite instances.
	_, finish, err := w.Makespan(means)
	if err != nil {
		return nil, nil, err
	}
	order, err := w.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	// Sort tasks by mean start time (topo-stable).
	starts := make(map[string]float64, len(order))
	for _, id := range order {
		starts[id] = finish[id] - means[id]
	}
	ids := append([]string(nil), order...)
	sort.SliceStable(ids, func(a, b int) bool { return starts[ids[a]] < starts[ids[b]] })

	var slots []slotSpan
	plan := &sim.Plan{Place: make(map[string]sim.Placement, w.Len())}
	const hour = 3600.0
	for _, id := range ids {
		j := cfg[id]
		typ := tbl.Types[j]
		st, fin := starts[id], finish[id]
		bestSlot := -1
		for si := range slots {
			if slots[si].typ != typ || slots[si].end > st {
				continue
			}
			if st-slots[si].end <= hour {
				bestSlot = si
				break
			}
		}
		if bestSlot < 0 {
			slots = append(slots, slotSpan{typ: typ, typeIdx: j, start: st})
			bestSlot = len(slots) - 1
		} else if !slots[bestSlot].used {
			slots[bestSlot].start = st
		}
		slots[bestSlot].used = true
		slots[bestSlot].end = fin
		plan.Place[id] = sim.Placement{Slot: bestSlot, Type: typ, Region: region}
	}
	return plan, slots, nil
}

// Consolidate materializes a configuration into an executable plan, applying
// the plan-level transformations (Merge, Co-Scheduling, Move). Returns a
// sim.Plan ready for execution.
func Consolidate(w *dag.Workflow, config State, tbl *estimate.Table, region string) (*sim.Plan, error) {
	plan, _, err := packMeanSchedule(w, config, tbl, region)
	return plan, err
}

// PackedMeanCost is the hour-billed cost of a configuration's consolidated
// mean schedule: what the provisioning plan is expected to cost once the
// Merge/Co-Scheduling transformations have packed tasks onto instances and
// EC2 bills whole instance-hours. The scheduling search minimizes this (the
// transformations exist exactly to exploit partial hours); the fractional
// Eq. 1 cost is available from the evaluator for reporting.
func PackedMeanCost(w *dag.Workflow, config State, tbl *estimate.Table, prices []float64, region string) (float64, error) {
	if len(prices) != len(tbl.Types) {
		return 0, fmt.Errorf("opt: %d prices for %d types", len(prices), len(tbl.Types))
	}
	_, slots, err := packMeanSchedule(w, config, tbl, region)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, s := range slots {
		hours := (s.end - s.start) / 3600
		if hours <= 0 {
			hours = 0
		}
		billed := float64(int(hours) + 1)
		if hours == float64(int(hours)) && hours > 0 {
			billed = hours
		}
		total += billed * prices[s.typeIdx]
	}
	return total, nil
}
