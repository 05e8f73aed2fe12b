package runtime

import (
	"testing"

	"deco/internal/cloud"
	"deco/internal/dag"
	"deco/internal/device"
	"deco/internal/ensemble"
	"deco/internal/ftc"
	"deco/internal/opt"
	"deco/internal/probir"
	"deco/internal/sim"
	"deco/internal/wlog"
)

// contractDevices is the device matrix of the concurrency contract: the
// sequential reference order, state-parallel blocks, and two-level
// block/thread scheduling that splits one block's worlds across workers.
var contractDevices = []device.Device{
	device.Sequential{},
	device.Parallel{NumBlocks: 3},
	device.TwoLevel{NumWorkers: 4},
}

// contractBlocks is how many fresh kernels of one implementation run side by
// side as blocks of one ReduceBlocks call.
const contractBlocks = 3

// TestWorldKernelConcurrencyContract runs every probir.WorldKernel
// implementation through device.ReduceBlocks on every device and checks each
// block's reduction bit for bit against the sequential reference
// probir.RunKernel. It also chains the worlds in chunks through
// device.ReduceBlocksRange and checks the running sums against
// probir.RunKernelRange over the same chunks, and partial kernels'
// ReducePartial at the chunk boundary. Under -race this is the check that
// every kernel's Sample is safe for concurrent worlds.
func TestWorldKernelConcurrencyContract(t *testing.T) {
	for _, tc := range contractKernels(t) {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			want, err := probir.RunKernel(ref)
			if err != nil {
				t.Fatal(err)
			}
			worlds, width := ref.Worlds(), ref.Width()
			mid := worlds / 3
			wantMid := make([]float64, width)
			if err := probir.RunKernelRange(ref, wantMid, 0, mid); err != nil {
				t.Fatal(err)
			}
			for _, dev := range contractDevices {
				kernels := make([]probir.WorldKernel, contractBlocks)
				for b := range kernels {
					if kernels[b], err = tc.build(); err != nil {
						t.Fatal(err)
					}
				}
				run := func(b, it int, out []float64) error { return kernels[b].Sample(it, out) }

				sums, errs := device.ReduceBlocks(dev, contractBlocks, worlds, width, run)
				for b := range kernels {
					if errs[b] != nil {
						t.Fatalf("%s block %d: %v", dev.Name(), b, errs[b])
					}
					got, err := kernels[b].Reduce(sums[b*width : (b+1)*width])
					if err != nil {
						t.Fatal(err)
					}
					sameEvaluation(t, dev.Name()+" ReduceBlocks", got, want)
				}

				chunked := make([]float64, contractBlocks*width)
				for ci, r := range [][2]int{{0, mid}, {mid, worlds}} {
					_, errs := device.ReduceBlocksRange(dev, contractBlocks, r[0], r[1], width, chunked, run)
					for b, err := range errs {
						if err != nil {
							t.Fatalf("%s block %d chunk %v: %v", dev.Name(), b, r, err)
						}
					}
					if ci > 0 {
						continue
					}
					for b := range kernels {
						row := chunked[b*width : (b+1)*width]
						for w := range row {
							if row[w] != wantMid[w] {
								t.Fatalf("%s block %d: prefix sums[%d] %v != RunKernelRange %v", dev.Name(), b, w, row[w], wantMid[w])
							}
						}
						if pk, ok := kernels[b].(probir.PartialKernel); ok && mid > 0 {
							got, err := pk.ReducePartial(row, mid)
							if err != nil {
								t.Fatal(err)
							}
							wantPartial, err := ref.(probir.PartialKernel).ReducePartial(wantMid, mid)
							if err != nil {
								t.Fatal(err)
							}
							sameEvaluation(t, dev.Name()+" ReducePartial", got, wantPartial)
						}
					}
				}
				for b := range kernels {
					got, err := kernels[b].Reduce(chunked[b*width : (b+1)*width])
					if err != nil {
						t.Fatal(err)
					}
					sameEvaluation(t, dev.Name()+" ReduceBlocksRange", got, want)
				}
			}
		})
	}
}

// sameEvaluation fails unless the two evaluations are bit-identical.
func sameEvaluation(t *testing.T, label string, got, want *probir.Evaluation) {
	t.Helper()
	if got.Value != want.Value || got.Feasible != want.Feasible || got.Violation != want.Violation {
		t.Fatalf("%s: {%v %v %v} != {%v %v %v}", label,
			got.Value, got.Feasible, got.Violation, want.Value, want.Feasible, want.Violation)
	}
	if len(got.ConsProb) != len(want.ConsProb) {
		t.Fatalf("%s: ConsProb len %d != %d", label, len(got.ConsProb), len(want.ConsProb))
	}
	for i := range got.ConsProb {
		if got.ConsProb[i] != want.ConsProb[i] {
			t.Fatalf("%s: ConsProb[%d] %v != %v", label, i, got.ConsProb[i], want.ConsProb[i])
		}
	}
}

// contractKernel builds fresh kernels of one implementation: every call
// returns an independent kernel of the same state and seed.
type contractKernel struct {
	name  string
	build func() (probir.WorldKernel, error)
}

// contractKernels lists one kernel per WorldKernel implementation, each over
// a state whose worlds exercise its sampling paths.
func contractKernels(t *testing.T) []contractKernel {
	s := newScenario(t)
	const worlds, seed = 48, 17
	cons := append([]wlog.Constraint{{Kind: "budget", Percentile: 0.8, Bound: 1}}, s.cons...)
	native, err := probir.NewNative(s.w, s.tbl, s.prices, probir.GoalCost, cons, worlds)
	if err != nil {
		t.Fatal(err)
	}
	n := s.w.Len()
	cfg := make([]int, n)
	for i := range cfg {
		cfg[i] = i % len(s.prices)
	}

	// Spot markets: every on-demand column gets a spot twin.
	us, err := cloud.DefaultCatalog().Region(cloud.USEast)
	if err != nil {
		t.Fatal(err)
	}
	xtbl, err := s.tbl.ExpandSpot([]string{"m1.small", "m1.xlarge"})
	if err != nil {
		t.Fatal(err)
	}
	xprices := make([]float64, len(xtbl.Types))
	markets := make([]probir.MarketSpec, len(xtbl.Types))
	spotCfg := make([]int, n)
	for j, name := range xtbl.Types {
		xprices[j] = us.PricePerHour[cloud.BaseType(name)]
		if cloud.IsSpotName(name) {
			m := us.Spot[cloud.BaseType(name)]
			xprices[j] = m.PricePerHourMean
			markets[j] = probir.MarketSpec{Spot: true, PriceMean: m.PricePerHourMean, PriceSigma: m.PriceSigma,
				RevocationsPerHour: m.RevocationsPerHour, OnDemandUSD: us.PricePerHour[cloud.BaseType(name)]}
			for i := range spotCfg {
				if i%2 == 0 {
					spotCfg[i] = j
				}
			}
		}
	}
	spot, err := probir.NewNativeMarkets(s.w, xtbl, xprices, markets, probir.GoalCost, cons, worlds)
	if err != nil {
		t.Fatal(err)
	}

	// Planned delta: a child that moves the last task, built from the
	// parent's captured snapshot over a cone plan.
	makespan, err := probir.NewNative(s.w, s.tbl, s.prices, probir.GoalMakespan, s.cons, worlds)
	if err != nil {
		t.Fatal(err)
	}
	parent := makespan.NewSnapshot()
	pk, err := makespan.KernelSnap(make([]int, n), seed, parent)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probir.RunKernel(pk); err != nil {
		t.Fatal(err)
	}
	child := make([]int, n)
	child[n-1] = 2
	plan, err := makespan.PlanCone([]int32{int32(n - 1)})
	if err != nil {
		t.Fatal(err)
	}

	prolog, err := probir.NewProlog(s.w, s.tbl, s.prices, contractProgram(t), 8)
	if err != nil {
		t.Fatal(err)
	}

	// Residual: the first task finished, the second running, the rest
	// unstarted — finished facts, conditioned and fresh draws in one world.
	m, err := NewMonitor(s.w, s.plan, s.tbl, s.prices, cloud.USEast, cons, Options{Iters: worlds})
	if err != nil {
		t.Fatal(err)
	}
	first, second := s.w.Tasks[0].ID, s.w.Tasks[1].ID
	m.OnEvent(sim.Event{Kind: sim.EvTaskStart, Time: 0, Task: first, Type: "m1.small"})
	m.OnEvent(sim.Event{Kind: sim.EvTaskStart, Time: 5, Task: second, Type: "m1.small"})
	m.OnEvent(sim.Event{Kind: sim.EvTaskFinish, Time: 60, Task: first, Type: "m1.small", Duration: 60, AccruedCost: 0.01})

	adm := &ensemble.Space{E: &ensemble.Ensemble{Kind: ensemble.Constant}, Budget: 7}
	for i, c := range []float64{3, 2, 4, 1, 5} {
		adm.E.Workflows = append(adm.E.Workflows, &dag.Workflow{Priority: i})
		adm.Plans = append(adm.Plans, &ensemble.PlannedWorkflow{Cost: c, Feasible: true})
	}

	var jobs []*ftc.Job
	for i := 0; i < 3; i++ {
		j, err := ftc.NewJob(s.w, s.tbl, i%2, 1, 4000)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	placement := ftc.NewSpace(&ftc.Runtime{Cat: s.cat, Jobs: jobs})

	packed := opt.NewPackedScheduleSpace(s.w, native, s.tbl, s.prices, cloud.USEast)

	return []contractKernel{
		{"native-crn", func() (probir.WorldKernel, error) { return native.Kernel(cfg, seed) }},
		{"market-spot", func() (probir.WorldKernel, error) { return spot.Kernel(spotCfg, seed) }},
		{"planned-delta", func() (probir.WorldKernel, error) {
			return makespan.DeltaKernel(child, seed, plan, parent, makespan.NewSnapshot())
		}},
		{"partial", func() (probir.WorldKernel, error) { return makespan.Kernel(child, seed) }},
		{"prolog", func() (probir.WorldKernel, error) { return prolog.Kernel(cfg, opt.StateBase(seed, cfg)) }},
		{"runtime-residual", func() (probir.WorldKernel, error) {
			return m.res.buildKernel(m.config, opt.StateBase(seed, m.config))
		}},
		{"ensemble-admission", func() (probir.WorldKernel, error) { return adm.Kernel(opt.State{1, 0, 1, 0, 0}, seed) }},
		{"ftc-placement", func() (probir.WorldKernel, error) { return placement.Kernel(opt.State{1, 0, 1}, seed) }},
		{"cost-fn", func() (probir.WorldKernel, error) { return packed.Kernel(cfg, seed) }},
	}
}

// contractProgram is Example 1's user rules: the Prolog evaluator proves
// totalcost and maxtime per world.
func contractProgram(t *testing.T) *wlog.Program {
	t.Helper()
	prog, err := wlog.Parse(`
minimize Ct in totalcost(Ct).
T in maxtime(Path,T) satisfies deadline(90%,9000s).
configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).

path(X,Y,Y,Tp) :- edge(X,Y), exetime(X,Vid,T), configs(X,Vid,Con), Con==1, Tp is T.
path(X,Y,Z,Tp) :- edge(X,Z), Z\==Y, path(Z,Y,Z2,T1), exetime(X,Vid,T),
  configs(X,Vid,Con), Con==1, Tp is T+T1.
maxtime(Path,T) :- setof([Z,T1], path(root,tail,Z,T1), Set), max(Set, [Path,T]).
cost(Tid,Vid,C) :- price(Vid,Up), exetime(Tid,Vid,T), configs(Tid,Vid,Con), C is T*Up*Con.
totalcost(Ct) :- findall(C, cost(Tid,Vid,C), Bag), sum(Bag, Ct).
`)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
