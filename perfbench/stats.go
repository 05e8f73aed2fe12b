package main

import (
	"math"
	"net/http"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than one or two outliers.
const tailMinBeyond = 10

// tail applies the tail rule: it returns the highest nearest-rank
// percentile that still has at least tailMinBeyond samples above it, with
// the value at that rank. With n samples that is the (n-10)-th smallest
// value, at percentile 100·(n-10)/n. ok is false when n <= tailMinBeyond,
// where no percentile qualifies.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= tailMinBeyond {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	k := n - tailMinBeyond // 1-based rank of the reported sample
	return s[k-1], 100 * float64(k) / float64(n), true
}

// interval is a half-open time interval [start, end).
type interval struct{ start, end time.Duration }

// unionWithin returns the total length of the union of ivs clipped to
// [lo, hi): overlapping intervals (concurrent child spans) count once.
func unionWithin(ivs []interval, lo, hi time.Duration) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total time.Duration
	var curS, curE time.Duration
	open := false
	for _, iv := range clipped {
		if open && iv.start <= curE {
			curE = max(curE, iv.end)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = iv.start, iv.end, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of its interval covered by
// its children, which may overlap one another when they ran concurrently.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.end - parent.start - unionWithin(children, parent.start, parent.end)
}

// tally counts operations attempted and failed, by failure reason.
type tally struct {
	attempted int
	failed    int
	// wrong counts outputs that failed verification; any makes the run
	// incorrect.
	wrong   int
	reasons map[string]int
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(reason string) {
	t.attempted++
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

// wrongOutput records an operation whose output failed verification.
func (t *tally) wrongOutput(reason string) {
	t.fail("wrong: " + reason)
	t.wrong++
}

// failedFrac is failed over attempted operations.
func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// Job outcomes of the open-loop generator.
const (
	outcomeDone     = "done"
	outcomeRefused  = "refused"  // HTTP 429: admission or queue limit
	outcomeRejected = "rejected" // any other non-2xx submission status
	outcomeError    = "error"    // transport error on submit
	outcomeFailed   = "failed"   // terminal state failed or cancelled
	outcomeDropped  = "dropped"  // no terminal state before the drain deadline
)

// submitOutcome classifies a submission's HTTP status; "" means accepted.
func submitOutcome(status int) string {
	switch {
	case status == http.StatusTooManyRequests:
		return outcomeRefused
	case status == http.StatusOK || status == http.StatusAccepted:
		return ""
	default:
		return outcomeRejected
	}
}

// openJob is one scheduled submission of the open-loop generator. Times
// are offsets from the generator's start.
type openJob struct {
	due       time.Duration // when the schedule says it is sent
	sent      time.Duration // when the generator actually sent it
	submitted time.Duration // when the service recorded the submission
	finished  time.Duration // when the service recorded its terminal state
	outcome   string        // one of the outcome constants
	err       string        // the service's error for a failed job
	verified  bool          // result matched a direct solve of its key
}

// openLoopSummary is what the generator's records say about the service.
type openLoopSummary struct {
	latencyMs []float64 // due → terminal, successful jobs only
	lateMsMax float64   // worst generator lateness (sent − due)
	// jobsPerBusyS is successful jobs per second of busy time: the union
	// of the successful jobs' submitted → terminal intervals, the time the
	// service had one of them in hand. It does not depend on the offered
	// rate while the service keeps up.
	jobsPerBusyS float64
	tally        tally
}

// summarizeOpenLoop times every job from when it was due, not when it was
// sent, so a stall of the generator or the service is charged to every job
// it delayed. Every job that did not finish successfully and verified is a
// failure and contributes no latency sample.
func summarizeOpenLoop(jobs []openJob) openLoopSummary {
	var s openLoopSummary
	var busy []interval
	var end time.Duration
	for _, j := range jobs {
		if late := ms(j.sent - j.due); late > s.lateMsMax {
			s.lateMsMax = late
		}
		switch {
		case j.outcome == outcomeFailed && j.err != "":
			s.tally.fail(j.outcome + ": " + j.err)
		case j.outcome != outcomeDone:
			s.tally.fail(j.outcome)
		case !j.verified:
			s.tally.wrongOutput("result differs from a direct solve")
		default:
			s.tally.ok()
			s.latencyMs = append(s.latencyMs, ms(j.finished-j.due))
			busy = append(busy, interval{j.submitted, j.finished})
			end = max(end, j.finished)
		}
	}
	if b := unionWithin(busy, 0, end); b > 0 {
		s.jobsPerBusyS = float64(len(s.latencyMs)) / b.Seconds()
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// bitsEqual compares float slices bit for bit.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
