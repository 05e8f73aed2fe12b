package probir

import "sort"

// This file implements decisive-world-first ordering: a per-world severity
// signal computed once per (program, base seed) that lets the adaptive
// evaluator run likely-violating worlds first. The exact worst-case stopping
// rule (package sample) bounds the final success probability over the FIXED
// finite world set, so it stays valid under any fixed permutation of that
// set — the permutation changes which prefix is seen, never the bound's
// soundness. Front-loading severe worlds means a near-boundary infeasible
// state meets its floor((1-pct)*N)+1 failing worlds in the first chunk
// instead of spread across all N, and a feasible state exhausts its few
// failing worlds early so the tail checkpoint at ceil(pct*N) can confirm it.
//
// The severity signal is the critical-path length over the CRN duration
// base, summed across every uniform configuration: severity[w] is the sum
// over instance types j of the makespan of world w with every task on type
// j. Duration rows are keyed by (task, type, iteration), so a mixed
// configuration's makespan reads one uniform configuration's draw per task —
// a world slow across the uniform sweeps is slow under any configuration.
// The signal depends only on (program content, base seed), never on the
// search state or device, so the resulting permutation — and with it every
// adaptive decision — is bit-identical across Sequential/Parallel/TwoLevel.

// WorldOrder returns the decisive-world-first permutation of the Monte-Carlo
// worlds for one CRN base seed: position p holds the p-th world to run, most
// severe first. Worlds sort by descending severity (critical-path sum over
// the uniform configurations), ties broken by ascending world index. The
// returned slice is shared and read-only; nil means there is no useful
// ordering (no sampled worlds). The permutation is computed once per compiled
// program and cached; computing it fills the program's full duration matrix,
// which doubles as a warm-up for the search that follows.
func (n *Native) WorldOrder(base int64) []int32 {
	if n.Iters <= 0 || !n.samplesWorlds() {
		return nil
	}
	return n.program(base).worldOrder()
}

// samplesWorlds reports whether evaluation runs any Monte-Carlo worlds at
// all (a sampled makespan or a sampled cost figure).
func (n *Native) samplesWorlds() bool {
	if n.needsMSSampling() || n.hasSpot {
		return true
	}
	for _, c := range n.Constraints {
		if c.Kind == "budget" && c.Percentile >= 0 {
			return true
		}
	}
	return false
}

// worldOrder computes and caches the program's severity permutation.
func (p *Program) worldOrder() []int32 {
	p.orderOnce.Do(func() {
		f := p.flat
		nt := f.Len()
		sev := make([]float64, p.iters)
		cfg := make([]int, nt)
		finish := make([]float64, nt)
		for j := 0; j < p.nTypes; j++ {
			for i := range cfg {
				cfg[i] = j
			}
			rows := p.Rows(cfg)
			for it := 0; it < p.iters; it++ {
				ms := 0.0
				for k, ti := range f.Order {
					start := 0.0
					for _, pa := range f.Parents[f.ParentStart[k]:f.ParentStart[k+1]] {
						if fp := finish[pa]; fp > start {
							start = fp
						}
					}
					end := start + rows[ti][it]
					finish[ti] = end
					if end > ms {
						ms = end
					}
				}
				sev[it] += ms
			}
		}
		order := make([]int32, p.iters)
		for i := range order {
			order[i] = int32(i)
		}
		sort.Slice(order, func(a, b int) bool {
			sa, sb := sev[order[a]], sev[order[b]]
			if sa != sb {
				return sa > sb
			}
			return order[a] < order[b]
		})
		p.order = order
	})
	return p.order
}
