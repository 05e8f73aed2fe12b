package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"deco"
	"deco/internal/dag"
	"deco/internal/exp"
	"deco/internal/service"
)

// The decod_open workload: open-loop arrivals into two in-process decod
// nodes that form a sharded pair.
const (
	decodNodes = 2
	// decodWorkers is the worker pool per node. With one worker, a node
	// parks its only worker on a forward (the forward slots floor at one),
	// so two nodes forwarding to each other stall until the forward hedge
	// fires; two workers keep one free for local and peer work.
	decodWorkers = 2
	// decodRate sets the Zipf expected counts in jobs per second; with every
	// key's count floored at one the offered rate comes out higher
	// (loadgen.offered_jobs_per_s reports it).
	decodRate = 5.5
	// decodKeys is the number of distinct job keys; popularity over them
	// is Zipf with exponent decodSkew.
	decodKeys = 120
	decodSkew = 1.1
	// decodPairs is how many of the most popular keys are first sent as a
	// pair: two submissions in one arrival slot, one to each node, so both
	// are in flight together and the key's owner coalesces them.
	decodPairs = 8
	// decodIters and decodBudget size each job's solve.
	decodIters  = 100
	decodBudget = 1000
	// pollEvery is how often the generator polls outstanding jobs.
	pollEvery = 25 * time.Millisecond
	// drainTimeout bounds the wait for jobs outstanding at the end.
	drainTimeout = 60 * time.Second
)

// decodWorkflows are the plan jobs' workflows (32 and 39 tasks), whose
// solves take about as long as each other: cold-solve latencies form one
// block, and the job counts put both the median and the tail rank inside it
// rather than at its edge with the cache hits.
var decodWorkflows = []string{"montage", "epigenomics"}

// ensembleTmpl is the ensemble-admission program of the job mix.
const ensembleTmpl = `import(amazonec2).
import(pipeline).
ensemble(constant, 4).
maximize S in score(S).
C in totalcost(C) satisfies budget(mean, %.2f).
`

// decodJob is one scheduled submission.
type decodJob struct {
	key  int           // index into decodRun.keys
	node int           // node the generator sends it to
	due  time.Duration // offset from the generator's start
}

// decodKey is one distinct job: the request every submission of it sends.
type decodKey struct {
	req      service.SubmitRequest
	ensemble bool
}

type decodRun struct {
	keys  []decodKey
	jobs  []decodJob
	nodes []*service.Server
	urls  []string
	span  time.Duration // length of the arrival window
}

// zipfCounts returns how many submissions each of k keys gets out of about
// n: the Zipf expected counts, rounded, at least one each. Fixing counts
// rather than drawing them keeps the cold-solve and hit mix the same for
// every seed; the seed decides which job each key is and the order.
func zipfCounts(n, k int, s float64) []int {
	h := 0.0
	for r := 0; r < k; r++ {
		h += math.Pow(float64(r+1), -s)
	}
	out := make([]int, k)
	for r := range out {
		out[r] = max(1, int(math.Round(float64(n)*math.Pow(float64(r+1), -s)/h)))
	}
	return out
}

// arrivalSlots orders the submissions of keys with the given counts into
// arrival slots, in a random order. A slot holds one submission's key,
// except that each of the first pairs keys with at least two submissions
// starts with a slot holding two: its first two submissions go together.
func arrivalSlots(counts []int, pairs int, rng *rand.Rand) [][]int {
	var slots [][]int
	for k, c := range counts {
		if k < pairs && c >= 2 {
			slots = append(slots, []int{k, k})
			c -= 2
		}
		for ; c > 0; c-- {
			slots = append(slots, []int{k})
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	// Move each pair to its key's first slot, so it is the key's cold solve.
	first := map[int]int{}
	for i, s := range slots {
		if _, ok := first[s[0]]; !ok {
			first[s[0]] = i
		}
	}
	for i, s := range slots {
		if len(s) == 2 {
			j := first[s[0]]
			slots[i], slots[j] = slots[j], slots[i]
		}
	}
	return slots
}

// repeatShare is a repeat slot's share of the arrival window relative to a
// cold slot's.
const repeatShare = 0.25

// slotDues spreads the slots over d: a slot holding a key's first
// submission gets an equal share of the window, and a repeat slot, which
// the plan caches answer, repeatShare of one. Cold solves then arrive at
// least d/(cold slots + repeatShare × repeat slots) apart and seldom
// overlap on the two cores, so job latency is the service's time rather
// than an accident of the order.
func slotDues(slots [][]int, d time.Duration) []time.Duration {
	shares := make([]float64, len(slots))
	seen := map[int]bool{}
	total := 0.0
	for i, keys := range slots {
		shares[i] = repeatShare
		if !seen[keys[0]] {
			seen[keys[0]] = true
			shares[i] = 1
		}
		total += shares[i]
	}
	dues := make([]time.Duration, len(slots))
	at := 0.0
	for i := range slots {
		dues[i] = time.Duration(float64(d) * at / total)
		at += shares[i]
	}
	return dues
}

func setupDecod(seed int64, d time.Duration) (workloadRun, error) {
	rng := rand.New(rand.NewSource(seed))
	env, err := exp.NewEnv(exp.FullConfig())
	if err != nil {
		return nil, err
	}
	eng, err := deco.NewEngine()
	if err != nil {
		return nil, err
	}
	prices, err := eng.Prices()
	if err != nil {
		return nil, err
	}
	r := &decodRun{span: d}
	for k := 0; k < decodKeys; k++ {
		jobSeed := rng.Int63n(1<<40) + 1
		req := service.SubmitRequest{Seed: jobSeed, Iters: decodIters, SearchBudget: decodBudget,
			Tenant: fmt.Sprintf("tenant-%d", k%4)}
		// Key kinds by popularity rank: every 25th an ensemble admission,
		// otherwise two Example-1 cost jobs to one makespan job.
		if k%25 == 24 {
			req.Program = fmt.Sprintf(ensembleTmpl, 20+20*rng.Float64())
			r.keys = append(r.keys, decodKey{req: req, ensemble: true})
			continue
		}
		name := decodWorkflows[k%len(decodWorkflows)]
		req.Workflow = name
		w, err := deco.NamedWorkflow(name, jobSeed)
		if err != nil {
			return nil, err
		}
		if k%3 != 2 {
			setting := []string{"tight", "medium"}[(k/6)%2]
			dl, err := env.Deadline(w, setting)
			if err != nil {
				return nil, err
			}
			req.Goal = "cost"
			req.Deadline = &service.PctBound{Percentile: 0.95, Value: dl}
		} else {
			lo, hi, err := uniformCostRange(eng, w, prices)
			if err != nil {
				return nil, err
			}
			req.Goal = "makespan"
			req.Budget = &service.PctBound{Percentile: 0.96, Value: (lo + hi) / 2}
		}
		r.keys = append(r.keys, decodKey{req: req})
	}
	// Arrivals: a fixed schedule in a random key order. Poisson arrivals
	// made the latency percentiles a function of the seed's bursts: solves
	// that overlap share the two cores, and the same seed's runs disagreed
	// by a quarter.
	slots := arrivalSlots(zipfCounts(int(decodRate*d.Seconds()), decodKeys, decodSkew), decodPairs, rng)
	dues := slotDues(slots, d)
	for i, keys := range slots {
		for _, k := range keys {
			r.jobs = append(r.jobs, decodJob{key: k, due: dues[i]})
		}
	}
	// Each key's submissions alternate between the nodes from a random
	// first node: whichever node owns the key, about half of its repeats
	// are local cache hits and half are forwarded to the owner, for every
	// seed, and a pair goes to both nodes.
	first := make([]int, decodKeys)
	for k := range first {
		first[k] = rng.Intn(decodNodes)
	}
	seen := make([]int, decodKeys)
	for i := range r.jobs {
		k := r.jobs[i].key
		r.jobs[i].node = (first[k] + seen[k]) % decodNodes
		seen[k]++
	}
	if err := r.boot(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// boot starts the nodes on loopback listeners and waits until each answers
// /healthz.
func (r *decodRun) boot() error {
	listeners := make([]net.Listener, decodNodes)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return err
		}
		listeners[i] = l
		r.urls = append(r.urls, "http://"+l.Addr().String())
	}
	for i, l := range listeners {
		srv := service.New(service.Config{
			Workers:       decodWorkers,
			QueueDepth:    1024,
			CacheCapacity: 4096,
			Self:          r.urls[i],
			Peers:         append([]string(nil), r.urls...),
		})
		r.nodes = append(r.nodes, srv)
		go srv.Serve(l)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, u := range r.urls {
		for {
			resp, err := http.Get(u + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %s not healthy: %v", u, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func (r *decodRun) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, srv := range r.nodes {
		_ = srv.Shutdown(ctx)
	}
	r.nodes = nil
}

// jobRecord is what the generator saw of one submission.
type jobRecord struct {
	openJob
	view     service.JobView
	observed time.Duration // when the generator saw the terminal state
}

// drive runs the open loop: one goroutine sends every job when due and
// polls outstanding ones, over at most one connection per node.
func (r *decodRun) drive(client *http.Client) ([]jobRecord, error) {
	recs := make([]jobRecord, len(r.jobs))
	start := time.Now()
	finish := func(i int, v service.JobView) {
		recs[i].view = v
		recs[i].observed = time.Since(start)
		switch v.State {
		case service.JobDone:
			recs[i].outcome = outcomeDone
		default:
			recs[i].outcome, recs[i].err = outcomeFailed, v.Error
		}
		if v.Finished != nil {
			recs[i].finished = v.Finished.Sub(start)
			recs[i].submitted = v.Submitted.Sub(start)
		}
	}
	var outstanding []int
	next := 0
	var drainBy time.Time
	for next < len(r.jobs) || len(outstanding) > 0 {
		now := time.Since(start)
		if next < len(r.jobs) && r.jobs[next].due <= now {
			i := next
			next++
			job := r.jobs[i]
			recs[i].due = job.due
			recs[i].sent = time.Since(start)
			v, status, err := submit(client, r.urls[job.node], r.keys[job.key].req)
			switch {
			case err != nil:
				recs[i].outcome = outcomeError
			case submitOutcome(status) != "":
				recs[i].outcome = submitOutcome(status)
			case terminal(v.State):
				finish(i, v)
			default:
				recs[i].view = v
				outstanding = append(outstanding, i)
			}
			continue
		}
		if next == len(r.jobs) {
			if drainBy.IsZero() {
				drainBy = time.Now().Add(drainTimeout)
			} else if time.Now().After(drainBy) {
				for _, i := range outstanding {
					recs[i].outcome = outcomeDropped
				}
				break
			}
		}
		kept := outstanding[:0]
		for _, i := range outstanding {
			v, err := getJob(client, r.urls[r.jobs[i].node], recs[i].view.ID)
			if err != nil {
				return nil, fmt.Errorf("poll job %s: %w", recs[i].view.ID, err)
			}
			if terminal(v.State) {
				finish(i, v)
			} else {
				kept = append(kept, i)
			}
		}
		outstanding = kept
		wait := pollEvery
		if next < len(r.jobs) {
			wait = min(wait, r.jobs[next].due-time.Since(start))
		}
		if wait > 0 {
			time.Sleep(wait)
		}
	}
	return recs, nil
}

func terminal(s service.JobState) bool {
	return s == service.JobDone || s == service.JobFailed || s == service.JobCancelled
}

func submit(c *http.Client, url string, req service.SubmitRequest) (service.JobView, int, error) {
	var v service.JobView
	body, err := json.Marshal(req)
	if err != nil {
		return v, 0, err
	}
	resp, err := c.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return v, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return v, resp.StatusCode, nil
	}
	return v, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&v)
}

func getJob(c *http.Client, url, id string) (service.JobView, error) {
	var v service.JobView
	resp, err := c.Get(url + "/v1/jobs/" + id)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("status %d", resp.StatusCode)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

func metricsOf(c *http.Client, url string) (service.Snapshot, error) {
	var s service.Snapshot
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// sumSnapshots adds the counters of the nodes' /metrics.
func (r *decodRun) sumSnapshots(c *http.Client) (service.Snapshot, error) {
	var t service.Snapshot
	for _, u := range r.urls {
		s, err := metricsOf(c, u)
		if err != nil {
			return t, err
		}
		t.SolvesTotal += s.SolvesTotal
		t.CoalescedTotal += s.CoalescedTotal
		t.ForwardsTotal += s.ForwardsTotal
		t.ForwardFailures += s.ForwardFailures
		t.ForwardHedged += s.ForwardHedged
		t.CrossShardHits += s.CrossShardHits
		t.QuotaRejected += s.QuotaRejected
		t.CacheHits += s.CacheHits
		t.CacheMisses += s.CacheMisses
		t.EvalCacheHits += s.EvalCacheHits
		t.EvalCacheMisses += s.EvalCacheMisses
	}
	return t, nil
}

func newLoadClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// decodOutcome is one decod run's records with their verification.
type decodOutcome struct {
	recs    []jobRecord
	summary openLoopSummary
	quality []keyQuality // per key, from its direct solve
}

// keyQuality is the direct solve of one key: its canonical result and the
// plan's quality figures.
type keyQuality struct {
	doc      []byte
	cost     float64
	makespan float64
	feasible bool
}

// warmup solves one job per workflow on each node, with seeds outside the
// measured key set, so the timed window starts on warm processes.
func (r *decodRun) warmup(client *http.Client) error {
	var ids []string
	var urls []string
	for n, u := range r.urls {
		for i, name := range decodWorkflows {
			req := service.SubmitRequest{Workflow: name, Seed: int64(1<<50 + n*10 + i),
				Iters: decodIters, SearchBudget: decodBudget, Goal: "makespan",
				Budget: &service.PctBound{Percentile: 0.96, Value: 1000}}
			v, status, err := submit(client, u, req)
			if err != nil || submitOutcome(status) != "" {
				return fmt.Errorf("warm-up submit: status %d: %v", status, err)
			}
			ids, urls = append(ids, v.ID), append(urls, u)
		}
	}

	deadline := time.Now().Add(drainTimeout)
	for i := range ids {
		for {
			v, err := getJob(client, urls[i], ids[i])
			if err != nil {
				return fmt.Errorf("warm-up poll: %w", err)
			}
			if terminal(v.State) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("warm-up job %s did not finish", ids[i])
			}
			time.Sleep(pollEvery)
		}
	}
	return nil
}

// verify checks every job's result against a direct solve of its key,
// outside the timed window, and summarizes the run.
func (r *decodRun) verify(recs []jobRecord) (*decodOutcome, error) {
	used := map[int]bool{}
	for i, rec := range recs {
		if rec.outcome == outcomeDone {
			used[r.jobs[i].key] = true
		}
	}
	out := &decodOutcome{recs: recs, quality: make([]keyQuality, len(r.keys))}
	for k := range used {
		q, err := r.directSolve(k)
		if err != nil {
			return nil, fmt.Errorf("direct solve of key %d: %w", k, err)
		}
		out.quality[k] = q
	}
	open := make([]openJob, len(recs))
	for i, rec := range recs {
		open[i] = rec.openJob
		if rec.outcome == outcomeDone {
			got, err := canonicalResult(rec.view.Result, r.keys[r.jobs[i].key].ensemble)
			open[i].verified = err == nil && bytes.Equal(got, out.quality[r.jobs[i].key].doc)
		}
	}
	out.summary = summarizeOpenLoop(open)
	return out, nil
}

// directSolve solves key k on a fresh engine configured as a decod worker
// configures its own, without the service's caches.
func (r *decodRun) directSolve(k int) (keyQuality, error) {
	key := r.keys[k]
	req := key.req
	eng, err := deco.NewEngine(deco.WithSeed(req.Seed), deco.WithIters(req.Iters),
		deco.WithSearchBudget(req.SearchBudget), deco.WithThreads(0), deco.WithAdaptive(false))
	if err != nil {
		return keyQuality{}, err
	}
	if key.ensemble {
		res, err := eng.RunEnsembleProgram(context.Background(), req.Program)
		if err != nil {
			return keyQuality{}, err
		}
		raw, err := json.Marshal(res)
		if err != nil {
			return keyQuality{}, err
		}
		doc, err := canonicalResult(raw, true)
		return keyQuality{doc: doc, feasible: res.Feasible}, err
	}
	w, err := deco.NamedWorkflow(req.Workflow, req.Seed)
	if err != nil {
		return keyQuality{}, err
	}
	var dl deco.Deadline
	var b deco.Budget
	if req.Deadline != nil {
		dl = deco.Deadline{Percentile: req.Deadline.Percentile, Seconds: req.Deadline.Value}
	}
	if req.Budget != nil {
		b = deco.Budget{Percentile: req.Budget.Percentile, Dollars: req.Budget.Value}
	}
	plan, err := eng.ScheduleConstrained(w, req.Goal == "cost", dl, b)
	if err != nil {
		return keyQuality{}, err
	}
	raw, err := json.Marshal(service.PlanResultOf(plan))
	if err != nil {
		return keyQuality{}, err
	}
	doc, err := canonicalResult(raw, false)
	if err != nil {
		return keyQuality{}, err
	}
	tbl, err := eng.Estimator().BuildTable(w)
	if err != nil {
		return keyQuality{}, err
	}
	span, err := meanMakespan(w, tbl, plan.Config)
	if err != nil {
		return keyQuality{}, err
	}
	return keyQuality{doc: doc, cost: plan.EstimatedCost, makespan: span, feasible: plan.Feasible}, nil
}

// canonicalResult keeps the fields of a job result that define the answer,
// dropping the solve's work counters, which depend on what the service's
// evaluation cache already held.
func canonicalResult(raw []byte, ensemble bool) ([]byte, error) {
	if ensemble {
		var e deco.EnsembleResult
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, err
		}
		e.StatesEvaluated = 0
		return json.Marshal(e)
	}
	var p service.PlanResult
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, err
	}
	p.StatesEvaluated, p.WorldsEvaluated, p.WorldsSaved, p.WorldsReordered = 0, 0, 0, 0
	p.DeltaEvals, p.DeltaFallbacks, p.ConePlanHits = 0, 0, 0
	return json.Marshal(p)
}

func (r *decodRun) measure(time.Duration) (map[string]metric, *tally, error) {
	client := newLoadClient()
	defer client.CloseIdleConnections()
	if err := r.warmup(client); err != nil {
		return nil, nil, err
	}
	recs, err := r.drive(client)
	if err != nil {
		return nil, nil, err
	}
	out, err := r.verify(recs)
	if err != nil {
		return nil, nil, err
	}
	s := out.summary
	var cost, span []float64
	feasible := 0
	for i, rec := range out.recs {
		if rec.outcome != outcomeDone {
			continue
		}
		q := out.quality[r.jobs[i].key]
		if q.feasible {
			feasible++
		}
		if !r.keys[r.jobs[i].key].ensemble {
			cost = append(cost, q.cost)
			span = append(span, q.makespan)
		}
	}
	m := map[string]metric{
		"ops_per_s":            {s.jobsPerBusyS, "1/s"},
		"ok_frac":              {1 - s.tally.failedFrac(), "ratio"},
		"feasible_frac":        {0, "ratio"},
		"plan_cost_usd.mean":   {mean(cost), "USD"},
		"plan_makespan_s.mean": {mean(span), "s"},
	}
	if len(s.latencyMs) > 0 {
		m["feasible_frac"] = metric{float64(feasible) / float64(len(s.latencyMs)), "ratio"}
	}
	addLatency(m, s.latencyMs, s.latencyMs)
	return m, &s.tally, nil
}

// traced runs the same open loop while sampling the nodes' worker
// utilization, and splits job time with the JobView timestamps and the
// /metrics counter deltas.
func (r *decodRun) traced() (map[string]metric, *tally, error) {
	client := newLoadClient()
	defer client.CloseIdleConnections()
	probe := newLoadClient()
	defer probe.CloseIdleConnections()
	if err := r.warmup(client); err != nil {
		return nil, nil, err
	}
	before, err := r.sumSnapshots(probe)
	if err != nil {
		return nil, nil, err
	}
	var util []float64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			busy := 0.0
			for _, u := range r.urls {
				if s, err := metricsOf(probe, u); err == nil {
					busy += s.WorkerUtilization
				}
			}
			util = append(util, busy/float64(len(r.urls)))
		}
	}()
	recs, err := r.drive(client)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	after, err := r.sumSnapshots(probe)
	if err != nil {
		return nil, nil, err
	}
	out, err := r.verify(recs)
	if err != nil {
		return nil, nil, err
	}

	var wait, runMs, overhead []float64
	var covered, total time.Duration
	rejected := 0
	for _, rec := range out.recs {
		switch rec.outcome {
		case outcomeRefused, outcomeRejected:
			rejected++
		case outcomeDone:
			v := rec.view
			server := v.Finished.Sub(v.Submitted)
			overhead = append(overhead, ms(rec.observed-rec.due-server))
			covered += server
			total += rec.finished - rec.due
			if v.Started != nil {
				wait = append(wait, ms(v.Started.Sub(v.Submitted)))
				runMs = append(runMs, ms(v.Finished.Sub(*v.Started)))
			}
		}
	}
	m := zeroLayerMetrics()
	m["service.queue_wait_ms.p50"] = metric{median(wait), "ms"}
	if v, _, ok := tail(wait); ok {
		m["service.queue_wait_ms.tail"] = metric{v, "ms"}
	}
	m["service.run_ms.p50"] = metric{median(runMs), "ms"}
	m["service.client_overhead_ms.p50"] = metric{median(overhead), "ms"}
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	m["service.plan_cache_hit_ratio"] = metric{ratio(after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses), "ratio"}
	m["service.eval_cache_hit_ratio"] = metric{ratio(after.EvalCacheHits-before.EvalCacheHits, after.EvalCacheMisses-before.EvalCacheMisses), "ratio"}
	m["service.coalesced"] = metric{float64(after.CoalescedTotal - before.CoalescedTotal), "count"}
	m["service.solves"] = metric{float64(after.SolvesTotal - before.SolvesTotal), "count"}
	m["service.rejected"] = metric{float64(rejected) + float64(after.QuotaRejected-before.QuotaRejected), "count"}
	m["service.worker_util"] = metric{mean(util), "ratio"}
	m["cluster.forwards"] = metric{float64(after.ForwardsTotal - before.ForwardsTotal), "count"}
	m["cluster.forward_failures"] = metric{float64(after.ForwardFailures - before.ForwardFailures), "count"}
	m["cluster.forward_hedged"] = metric{float64(after.ForwardHedged - before.ForwardHedged), "count"}
	m["cluster.cross_shard_hits"] = metric{float64(after.CrossShardHits - before.CrossShardHits), "count"}
	m["loadgen.late_ms.max"] = metric{out.summary.lateMsMax, "ms"}
	m["loadgen.offered_jobs_per_s"] = metric{float64(len(r.jobs)) / r.span.Seconds(), "1/s"}
	if total > 0 {
		m["trace.coverage_frac"] = metric{covered.Seconds() / total.Seconds(), "ratio"}
	}
	return m, &out.summary.tally, nil
}

// uniformCostRange returns the lowest and highest mean cost (Σ mean task
// time × hourly price) over the configurations that put every task on one
// type.
func uniformCostRange(eng *deco.Engine, w *dag.Workflow, prices []float64) (lo, hi float64, err error) {
	tbl, err := eng.Estimator().BuildTable(w)
	if err != nil {
		return 0, 0, err
	}
	for j := range tbl.Types {
		cfg := make(map[string]int, w.Len())
		for _, t := range w.Tasks {
			cfg[t.ID] = j
		}
		means, err := tbl.MeanDurations(cfg)
		if err != nil {
			return 0, 0, err
		}
		c := 0.0
		for _, t := range w.Tasks {
			c += means[t.ID] * prices[j] / 3600
		}
		if j == 0 || c < lo {
			lo = c
		}
		if j == 0 || c > hi {
			hi = c
		}
	}
	return lo, hi, nil
}
