package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its interval in
// nanoseconds since the recorder's origin, the span that caused it (-1
// for a root) and the op it belongs to (all spans of one op share it).
type span struct {
	Name       string
	Start, End int64
	Parent     int
	Op         int
}

// recorder keeps spans in memory for the life of a traced run; they are
// written out only when the run ends. It is safe for concurrent use
// (sweep workers record cache spans from their own goroutines).
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, op int) int {
	t := r.now()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: t, End: -1, Parent: parent, Op: op})
	r.mu.Unlock()
	return id
}

// beginAt opens a span that started at t, an earlier instant.
func (r *recorder) beginAt(name string, parent, op int, t time.Time) int {
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: int64(t.Sub(r.origin)), End: -1, Parent: parent, Op: op})
	r.mu.Unlock()
	return id
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	d := t - r.spans[id].Start
	r.mu.Unlock()
	return time.Duration(d)
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTime is the span's duration minus the part of its interval that its
// children cover. Overlapping children (concurrent calls) count once, and
// child time outside the parent's interval is ignored.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.End - parent.Start - covered
}

// spanStats summarizes closed spans by name: per-call durations and, for
// every span with children, its self time.
type spanStats struct {
	dur  map[string][]float64 // ns per call
	self map[string][]float64 // ns per call, self time
}

func summarize(spans []span) spanStats {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	for id, s := range spans {
		if s.End < 0 {
			continue
		}
		st.dur[s.Name] = append(st.dur[s.Name], float64(s.End-s.Start))
		st.self[s.Name] = append(st.self[s.Name], float64(selfTime(s, kids[id])))
	}
	return st
}

// total sums a name's per-call values.
func total(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// writeSpans writes spans as tab-separated lines: id, parent, op, name,
// start ns, end ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns")
	for id, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", id, s.Parent, s.Op, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
