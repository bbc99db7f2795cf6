package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation share
// Op; Parent indexes the enclosing span of the same operation (-1 for the
// operation's root). Times are nanoseconds since the tracer started.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every finished operation's spans in memory until the run
// writes them out. A nil tracer records nothing, so untraced operations run
// the same code with no span bookkeeping.
type tracer struct {
	t0     time.Time
	nextOp atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// opTrace records the spans of one operation on one goroutine.
type opTrace struct {
	tr    *tracer
	op    int64
	spans []span
	stack []int
}

// begin opens an operation whose root span is name.
func (tr *tracer) begin(name string) *opTrace {
	if tr == nil {
		return nil
	}
	o := &opTrace{tr: tr, op: tr.nextOp.Add(1)}
	o.enter(name)
	return o
}

// enter opens a child span of the innermost open span.
func (o *opTrace) enter(name string) {
	if o == nil {
		return
	}
	parent := -1
	if n := len(o.stack); n > 0 {
		parent = o.stack[n-1]
	}
	id := len(o.spans)
	o.spans = append(o.spans, span{Op: o.op, ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(o.tr.t0))})
	o.stack = append(o.stack, id)
}

// exit closes the innermost open span; closing the root hands the
// operation's spans to the tracer.
func (o *opTrace) exit() {
	if o == nil {
		return
	}
	id := o.stack[len(o.stack)-1]
	o.stack = o.stack[:len(o.stack)-1]
	o.spans[id].End = int64(time.Since(o.tr.t0))
	if len(o.stack) == 0 {
		o.tr.mu.Lock()
		o.tr.spans = append(o.tr.spans, o.spans...)
		o.tr.mu.Unlock()
	}
}

// call runs fn inside a span named name.
func (o *opTrace) call(name string, fn func() error) error {
	o.enter(name)
	defer o.exit()
	return fn()
}

// snapshot returns the spans recorded so far.
func (tr *tracer) snapshot() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// durations returns the length in nanoseconds of every recorded span named
// name.
func (tr *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range tr.snapshot() {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.snapshot() {
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

// selfTimes returns, for each span of one operation (indexed by ID), its
// duration minus the part of it covered by its children. Overlapping
// children count once, and children are clipped to their parent.
func selfTimes(spans []span) []int64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s.Start, s.End, children[i])
	}
	return self
}

// covered is the length of the union of the intervals clipped to [lo, hi).
func covered(lo, hi int64, iv []span) int64 {
	type seg struct{ a, b int64 }
	segs := make([]seg, 0, len(iv))
	for _, s := range iv {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			segs = append(segs, seg{a, b})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].a < segs[j].a })
	var total, curA, curB int64
	open := false
	for _, s := range segs {
		switch {
		case !open:
			curA, curB, open = s.a, s.b, true
		case s.a <= curB:
			curB = max(curB, s.b)
		default:
			total += curB - curA
			curA, curB = s.a, s.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// unattributed names the row for operation time no layer span covers.
const unattributed = "(unattributed)"

// layerShare is one row of an attribution table.
type layerShare struct {
	Layer string
	Self  time.Duration
	Share float64
}

// attribute sums self time by span name over every operation whose root
// span name starts with prefix, and reports each layer's share of total
// operation time. The roots' own self time is the unattributed row.
func attribute(spans []span, prefix string) (rows []layerShare, ops int, total time.Duration) {
	byOp := map[int64][]span{}
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	selfBy := map[string]int64{}
	for _, op := range byOp {
		sort.Slice(op, func(i, j int) bool { return op[i].ID < op[j].ID })
		root := op[0]
		if root.Parent != -1 || !strings.HasPrefix(root.Name, prefix) {
			continue
		}
		ops++
		total += time.Duration(root.End - root.Start)
		for i, st := range selfTimes(op) {
			name := op[i].Name
			if op[i].Parent == -1 {
				name = unattributed
			}
			selfBy[name] += st
		}
	}
	for name, ns := range selfBy {
		share := 0.0
		if total > 0 {
			share = float64(ns) / float64(total)
		}
		rows = append(rows, layerShare{Layer: name, Self: time.Duration(ns), Share: share})
	}
	sortRows(rows)
	return rows, ops, total
}

// sortRows orders attribution rows by self time, largest first.
func sortRows(rows []layerShare) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Layer < rows[j].Layer
	})
}

// printAttribution writes one workload's attribution table.
func printAttribution(w io.Writer, title string, rows []layerShare, ops int, total time.Duration) {
	fmt.Fprintf(w, "layer attribution: %s (%d operations, %.3f s of operation time)\n", title, ops, total.Seconds())
	fmt.Fprintf(w, "  %-28s %12s %8s\n", "layer", "self_ms", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %12.3f %7.2f%%\n", r.Layer, float64(r.Self)/1e6, 100*r.Share)
	}
}
