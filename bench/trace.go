package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// span is one timed interval of the traced replay. Every replayed
// operation is a root span (parent 0); each call the replay makes into a
// layer is a child span named "<layer>.<call>".
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. The replay runs on one goroutine, so open
// spans form a stack. With on false it only runs the calls, which is how
// the tracing overhead is measured.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int // indices into spans of the open spans, innermost last
	ops   int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// op runs fn as one replayed operation: a root span.
func (t *tracer) op(name string, fn func() error) error {
	t.ops++
	if !t.on {
		return fn()
	}
	if len(t.open) != 0 {
		panic("bench: replayed operations do not nest") // a bug in the replay, not an input
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Op: id, Name: name, Start: t.now()})
	return t.finish(id, fn)
}

// call runs fn as a child span of the innermost open span.
func (t *tracer) call(name string, fn func() error) error {
	if !t.on {
		return fn()
	}
	parent := t.spans[t.open[len(t.open)-1]]
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent.ID, Op: parent.Op, Name: name, Start: t.now()})
	return t.finish(id, fn)
}

func (t *tracer) finish(id int, fn func() error) error {
	t.open = append(t.open, id-1)
	err := fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].End = t.now()
	return err
}

// selfTimes returns every span's self time: its duration minus the part
// of it its children cover.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// checkTree verifies the span tree: every child lies inside its parent
// within the same op, and the self times of an op's spans sum to its root.
func checkTree(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := selfTimes(spans)
	sums := make(map[int]int64)
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		sums[s.Op] += self[s.ID]
		if s.Parent == 0 {
			if s.Op != s.ID {
				return fmt.Errorf("root span %d names op %d", s.ID, s.Op)
			}
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			return fmt.Errorf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		case p.Op != s.Op:
			return fmt.Errorf("span %d (%s) is in op %d, its parent in op %d", s.ID, s.Name, s.Op, p.Op)
		case s.Start < p.Start || s.End > p.End:
			return fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	for op, sum := range sums {
		root := byID[op]
		if d := root.End - root.Start; sum != d {
			return fmt.Errorf("op %d (%s): self times sum to %dns, the root lasts %dns", op, root.Name, sum, d)
		}
	}
	return nil
}

// opSpans groups the spans by op, in op order.
func opSpans(spans []span) [][]span {
	var out [][]span
	index := make(map[int]int)
	for _, s := range spans {
		i, ok := index[s.Op]
		if !ok {
			i = len(out)
			index[s.Op] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], s)
	}
	return out
}

// perOp returns, for every op named opName in op order, the summed
// duration (self time when self is set) of its spans named any of
// spanNames, in ms.
func perOp(spans []span, self map[int]int64, opName string, spanNames ...string) []float64 {
	var out []float64
	for _, group := range opSpans(spans) {
		if group[0].Name != opName {
			continue
		}
		var total int64
		for _, s := range group {
			if !slices.Contains(spanNames, s.Name) {
				continue
			}
			if self != nil {
				total += self[s.ID]
			} else {
				total += s.End - s.Start
			}
		}
		out = append(out, float64(total)/1e6)
	}
	return out
}

// layerOf is the layer a span belongs to: the part of its name before the
// first dot. Root spans belong to no layer.
func layerOf(s span) string {
	if s.Parent == 0 {
		return "(unattributed)"
	}
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// summarize prints, per op name, the mean self time of each layer and of
// the root, and returns the mean unattributed root time per op in ms.
func summarize(w io.Writer, spans []span) float64 {
	self := selfTimes(spans)
	type row struct {
		n      int
		total  int64
		layers map[string]int64
	}
	rows := make(map[string]*row)
	var names []string
	var rootSelf int64
	ops := 0
	for _, group := range opSpans(spans) {
		root := group[0]
		r, ok := rows[root.Name]
		if !ok {
			r = &row{layers: make(map[string]int64)}
			rows[root.Name] = r
			names = append(names, root.Name)
		}
		r.n++
		r.total += root.End - root.Start
		for _, s := range group {
			r.layers[layerOf(s)] += self[s.ID]
		}
		rootSelf += self[root.ID]
		ops++
	}
	fmt.Fprintf(w, "traced replay: %d ops, %d spans; self time per op in ms\n", ops, len(spans))
	for _, name := range names {
		r := rows[name]
		layers := make([]string, 0, len(r.layers))
		for l := range r.layers {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		var parts []string
		for _, l := range layers {
			parts = append(parts, fmt.Sprintf("%s %.4f", l, float64(r.layers[l])/1e6/float64(r.n)))
		}
		fmt.Fprintf(w, "  %-20s n=%-4d total %.4f | %s\n", name, r.n, float64(r.total)/1e6/float64(r.n), strings.Join(parts, ", "))
	}
	if ops == 0 {
		return 0
	}
	return float64(rootSelf) / 1e6 / float64(ops)
}

// writeSpans writes the spans as JSON.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
