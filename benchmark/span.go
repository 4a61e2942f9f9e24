package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer of the program.
// Parent is the id of the span that caused it, or noSpan for a root; Run
// identifies the workload pass, so all spans of one pass share it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// noSpan is the parent of a root span and the id a disabled tracer returns.
const noSpan = -1

// tracer records spans in memory; they are written out once, at exit. A nil
// tracer records nothing, which is how the untraced runs measure: the calls
// stay in the workload code and cost a nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	run   int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// nextRun starts a new workload pass: later spans carry the new run id.
func (t *tracer) nextRun() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run++
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its child spans cover. Children may overlap one another
// (two client goroutines under one phase), so the covered part is the union
// of their intervals clipped to the parent, not their sum.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from < edge {
				from = edge
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanSums totals duration and self time per span name, in seconds.
func spanSums(spans []span) (total, self map[string]float64, count map[string]int) {
	total, self, count = map[string]float64{}, map[string]float64{}, map[string]int{}
	st := selfTimes(spans)
	for i, s := range spans {
		total[s.Name] += float64(s.End-s.Start) / 1e9
		self[s.Name] += float64(st[i]) / 1e9
		count[s.Name]++
	}
	return total, self, count
}

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
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
