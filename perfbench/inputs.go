package main

import (
	"fmt"
	"math/rand"
	"os"
	"regexp"

	"deco"
	"deco/internal/dag"
	"deco/internal/device"
	"deco/internal/exp"
	"deco/internal/wfgen"
)

// example1Path is read from the checkout: the benchmark runs the paper's
// own program, with only the deadline rendered per input.
const example1Path = "programs/scheduling.wlog"

var deadlineRE = regexp.MustCompile(`deadline\(95%,[^)]*\)`)

// Each workload generates this many instances of every workflow (and
// constraint setting). More distinct inputs average out how much search
// work one generated workflow happens to need, so runs with different seeds
// measure the same amount of work; fewer give each input more repeats, so
// its median solve time rests on more samples. prolog_rules solves each of
// its 12 inputs about five times in a run.
const (
	example1Variants = 3
	prologVariants   = 2
)

// solveInput is one program text plus the workflow it runs on.
type solveInput struct {
	label string
	src   string
	w     *dag.Workflow
}

// solveSpec fixes one solve workload: engine settings and input generator.
// Every input is Example 1, whose goal minimizes totalcost.
type solveSpec struct {
	iters    int
	budget   int
	adaptive bool
	// prolog marks inputs that Engine.RunProgram sends down the Prolog
	// interpreter path: user goal rules on workflows of at most 12 tasks.
	// The others take the native path.
	prolog bool
	// sequential runs the measured engine on device.Sequential; the
	// traced run's comparison pass then uses the default TwoLevel device.
	sequential bool
	gen        func(rng *rand.Rand, env *exp.Env) ([]solveInput, error)
}

var (
	example1Fixed    = solveSpec{iters: 100, budget: 4000, gen: genExample1}
	example1Adaptive = solveSpec{iters: 100, budget: 4000, adaptive: true, gen: genExample1}
	// prologRules runs sequentially: on the parallel devices the Prolog
	// evaluator currently fails its solves (shared query variables), which
	// the traced run counts as prolog.error_solves.
	prologRules = solveSpec{iters: 10, budget: 40, prolog: true, sequential: true, gen: genPrologRules}
)

// engineOptions returns the engine options of the measured configuration.
func (s solveSpec) engineOptions(seed int64, dev device.Device) []deco.Option {
	return []deco.Option{deco.WithSeed(seed), deco.WithIters(s.iters), deco.WithSearchBudget(s.budget),
		deco.WithAdaptive(s.adaptive), deco.WithDevice(dev)}
}

// devices returns the measured device and the traced run's comparison
// device.
func (s solveSpec) devices() (measured, other device.Device) {
	if s.sequential {
		return device.Sequential{}, device.TwoLevel{}
	}
	return device.TwoLevel{}, device.Sequential{}
}

func readTemplate(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("read program template (run from the repository root): %w", err)
	}
	return string(b), nil
}

// renderDeadline puts an absolute deadline into the Example 1 program.
func renderDeadline(tmpl string, seconds float64) (string, error) {
	if !deadlineRE.MatchString(tmpl) {
		return "", fmt.Errorf("%s has no deadline(95%%,...) constraint", example1Path)
	}
	return deadlineRE.ReplaceAllString(tmpl, fmt.Sprintf("deadline(95%%,%.0fs)", seconds)), nil
}

// namedGen generates one kind of workflow.
type namedGen struct {
	name string
	gen  func(*rand.Rand) (*dag.Workflow, error)
}

// example1Workflows are the workflows of the Example 1 workloads.
var example1Workflows = []namedGen{
	{"montage1", func(r *rand.Rand) (*dag.Workflow, error) { return wfgen.Montage(1, r) }},
	{"montage4", func(r *rand.Rand) (*dag.Workflow, error) { return wfgen.Montage(4, r) }},
	{"epigenomics", func(r *rand.Rand) (*dag.Workflow, error) { return wfgen.Epigenomics(2, 4, r) }},
	{"cybershake", func(r *rand.Rand) (*dag.Workflow, error) { return wfgen.CyberShake(4, 10, r) }},
	{"ligo", func(r *rand.Rand) (*dag.Workflow, error) { return wfgen.Ligo(3, r) }},
}

// prologWorkflows are small enough for the engine's exact Prolog
// interpretation. Bag solves take longer than pipeline ones; a second bag
// instance puts two thirds of the inputs in one cluster of times, so the
// median and the tail rank fall inside it rather than at the gap.
var prologWorkflows = []namedGen{
	{"pipeline5", func(r *rand.Rand) (*dag.Workflow, error) { return wfgen.Pipeline(5, r) }},
	{"bag6", func(r *rand.Rand) (*dag.Workflow, error) { return wfgen.Bag(6, 600, r) }},
	{"bag6b", func(r *rand.Rand) (*dag.Workflow, error) { return wfgen.Bag(6, 600, r) }},
}

func genExample1(rng *rand.Rand, env *exp.Env) ([]solveInput, error) {
	return genDeadlines(rng, env, example1Variants, example1Workflows)
}

func genPrologRules(rng *rand.Rand, env *exp.Env) ([]solveInput, error) {
	return genDeadlines(rng, env, prologVariants, prologWorkflows)
}

// genDeadlines renders Example 1, user rules included, for variants
// instances of each workflow at the tight and medium deadline settings of
// the paper's evaluation (§6.1).
func genDeadlines(rng *rand.Rand, env *exp.Env, variants int, workflows []namedGen) ([]solveInput, error) {
	tmpl, err := readTemplate(example1Path)
	if err != nil {
		return nil, err
	}
	var out []solveInput
	for v := 0; v < variants; v++ {
		for _, wf := range workflows {
			w, err := wf.gen(rand.New(rand.NewSource(rng.Int63())))
			if err != nil {
				return nil, err
			}
			for _, setting := range []string{"tight", "medium"} {
				d, err := env.Deadline(w, setting)
				if err != nil {
					return nil, err
				}
				src, err := renderDeadline(tmpl, d)
				if err != nil {
					return nil, err
				}
				out = append(out, solveInput{label: fmt.Sprintf("%s.%d/%s", wf.name, v, setting), src: src, w: w})
			}
		}
	}
	return out, nil
}
