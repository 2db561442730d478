package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval around a call into a layer.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer's origin
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index of the causing span, -1 for a root
	Req    int64         `json:"req"`    // unit or request id
	// Key links spans of one request recorded on different sides of an
	// HTTP hop (a hash of path and body); 0 when unused.
	Key uint64 `json:"key,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so call sites trace unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// roots names the span that times one closed-loop unit; coverage is
	// checked over these.
	roots string
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// start opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) start(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// finish closes the span.
func (t *tracer) finish(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already measured span (the serve-cluster wrappers time
// handlers themselves and record on completion).
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// since converts an absolute time into the tracer's clock.
func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.t0) }

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// covered returns the length of the union of the child intervals, clipped
// to the parent's interval.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if b < 0 {
			continue
		}
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// children indexes direct children by parent id.
func children(spans []span) map[int][]span {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its direct children cover, over the spans whose unit or request id is
// below maxReq.
func selfTimes(spans []span, maxReq int64) map[string]time.Duration {
	kids := children(spans)
	out := map[string]time.Duration{}
	for i, s := range spans {
		if s.End < 0 || s.Req >= maxReq {
			continue
		}
		out[s.Name] += s.End - s.Start - covered(s, kids[i])
	}
	return out
}

// minCoverage returns the smallest share of a root span's wall time that
// its direct children cover, over every root span with the given name
// (1 when there is none).
func minCoverage(spans []span, root string) float64 {
	kids := children(spans)
	min := 1.0
	for i, s := range spans {
		if s.Name != root || s.End < 0 || s.End == s.Start {
			continue
		}
		if c := float64(covered(s, kids[i])) / float64(s.End-s.Start); c < min {
			min = c
		}
	}
	return min
}

// spanCost measures what recording one span costs on this host, for the
// tracing-overhead estimate.
func spanCost() time.Duration {
	t := newTracer()
	const n = 1 << 15
	start := time.Now()
	for i := 0; i < n; i++ {
		t.finish(t.start("calibrate", -1, int64(i)))
	}
	return time.Since(start) / n
}

// minCoverageShare is the trace-coverage gate of the closed-loop
// workloads: the layer spans must explain at least this share of every
// unit's wall time.
const minCoverageShare = 0.95

// addSummary adds the trace's own metrics to a traced outcome and applies
// the coverage gate.
func (t *tracer) addSummary(out *outcome) {
	spans := t.snapshot()
	out.Metrics["trace.spans"] = float64(len(spans))
	if t.roots != "" {
		c := minCoverage(spans, t.roots)
		out.Metrics["trace.coverage_min"] = c
		if c < minCoverageShare {
			out.fail("trace coverage: layer spans cover %.1f%% of a %s span, want >= %.0f%%", 100*c, t.roots, 100*minCoverageShare)
		}
	}
	wall := time.Since(t.t0)
	out.Metrics["trace.overhead_pct"] = 100 * float64(spanCost()) * float64(len(spans)) / float64(wall)
}

// dump writes every span as one JSON line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
