package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans of one pass share its pass number; Parent is the span that was
// open when this one began (-1 for a pass's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Pass   int    `json:"pass"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// "tracing off" state: begin and end cost one nil check, which is how the
// end-to-end runs execute the very same pass code untraced.
//
// One goroutine issues all work in every workload, so an open-span stack
// is enough to find each span's parent.
type tracer struct {
	epoch time.Time
	pass  int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// nextPass starts a new traced pass and returns its number.
func (t *tracer) nextPass() int {
	if t == nil {
		return 0
	}
	t.pass++
	return t.pass
}

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Pass: t.pass, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned, and any span left open inside it.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	for n := len(t.open); n > 0; n-- {
		if t.open[n-1] == id {
			t.open = t.open[:n-1]
			return
		}
	}
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time in nanoseconds, indexed by span
// id: its duration minus the part of its interval that its direct
// children cover. Children are clipped to the parent and overlapping
// children are counted once, so self time is never negative.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerMillis sums, per traced pass, the self time of the spans whose
// name is in names, and returns one value in milliseconds per pass that
// had such a span, in pass order.
func layerMillis(spans []span, self []int64, names ...string) []float64 {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	perPass := make(map[int]int64)
	for _, s := range spans {
		if want[s.Name] {
			perPass[s.Pass] += self[s.ID]
		}
	}
	passes := make([]int, 0, len(perPass))
	for p := range perPass {
		passes = append(passes, p)
	}
	sort.Ints(passes)
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = float64(perPass[p]) / 1e6
	}
	return out
}
