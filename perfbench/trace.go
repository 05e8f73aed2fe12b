package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one solve share its id;
// parent is 0 for a solve's root span.
type span struct {
	id, parent int64
	solve      int
	name       string
	start, end time.Duration // offsets from the tracer's epoch
}

func (s span) interval() interval { return interval{s.start, s.end} }

// tracer keeps spans in memory; they are aggregated when the run ends.
// Spans may be added from several goroutines at once.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) newID() int64 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a span named name and returns f's error. f receives
// the span's id, to parent spans it causes.
func (t *tracer) timed(solve int, parent int64, name string, f func(id int64) error) error {
	id := t.newID()
	start := t.now()
	err := f(id)
	t.add(span{id: id, parent: parent, solve: solve, name: name, start: start, end: t.now()})
	return err
}

// solveSpans groups one solve's spans: its root and the children of every
// span, by parent id.
type solveSpans struct {
	root     span
	children map[int64][]span
}

// bySolve indexes the recorded spans per solve.
func (t *tracer) bySolve() map[int]*solveSpans {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int]*solveSpans{}
	for _, s := range t.spans {
		ss := out[s.solve]
		if ss == nil {
			ss = &solveSpans{children: map[int64][]span{}}
			out[s.solve] = ss
		}
		if s.parent == 0 {
			ss.root = s
		} else {
			ss.children[s.parent] = append(ss.children[s.parent], s)
		}
	}
	return out
}

// layerTimes sums, per span name, the durations of a solve's spans.
func (ss *solveSpans) layerTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, kids := range ss.children {
		for _, k := range kids {
			out[k.name] += k.end - k.start
		}
	}
	return out
}

// coverage returns the root's duration and the part its direct children
// cover.
func (ss *solveSpans) coverage() (total, covered time.Duration) {
	var ivs []interval
	for _, k := range ss.children[ss.root.id] {
		ivs = append(ivs, k.interval())
	}
	return ss.root.end - ss.root.start, unionWithin(ivs, ss.root.start, ss.root.end)
}

// selfOf returns the self time of every span named name in the solve.
func (ss *solveSpans) selfOf(name string) time.Duration {
	var total time.Duration
	for _, kids := range ss.children {
		for _, k := range kids {
			if k.name != name {
				continue
			}
			var ivs []interval
			for _, c := range ss.children[k.id] {
				ivs = append(ivs, c.interval())
			}
			total += selfTime(k.interval(), ivs)
		}
	}
	return total
}

// count returns how many spans named name the solve recorded.
func (ss *solveSpans) count(name string) int {
	n := 0
	for _, kids := range ss.children {
		for _, k := range kids {
			if k.name == name {
				n++
			}
		}
	}
	return n
}
