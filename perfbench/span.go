package main

import (
	"encoding/json"
	"os"
	"strings"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Name is "<layer>.<operation>"; Parent is
// the index of the enclosing span, -1 for the root.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes share the traced code path at no cost.
type tracer struct {
	spans []span
	open  []int
}

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: hostNow()})
	ix := len(t.spans) - 1
	t.open = append(t.open, ix)
	return func() {
		t.spans[ix].End = hostNow()
		t.open = t.open[:len(t.open)-1]
	}
}

// layerOf is the span name's layer prefix.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfShares returns each layer's self time — its spans' durations minus
// the part their child spans cover — as a percentage of the root span.
// Children of one span never overlap (calls are sequential), so the
// covered part is the sum of the children's durations.
func (t *tracer) selfShares() map[string]float64 {
	child := make([]int64, len(t.spans))
	var root int64
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		} else {
			root += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[layerOf(s.Name)] += float64(s.End - s.Start - child[i])
	}
	for k := range out {
		out[k] = 100 * out[k] / float64(root)
	}
	return out
}

// write stores the spans as JSON in recording order, which is start
// order, so Parent indexes stay valid.
func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
