package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer of the program. Name is
// "<layer>.<call>"; Parent is the enclosing span's ID (0 at the top);
// Run groups the spans of one pipeline run or one HTTP request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced code paths pay one nil
// check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span; close it with (*tracer).close.
type openSpan struct {
	id     int64
	parent int64
	name   string
	run    string
	start  time.Time
}

func (t *tracer) begin(name string, parent int64, run string) openSpan {
	o := openSpan{parent: parent, name: name, run: run, start: time.Now()}
	if t == nil {
		return o
	}
	t.mu.Lock()
	o.id = int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: o.id}) // reserve the slot so IDs follow start order
	t.mu.Unlock()
	return o
}

// end closes o and returns its duration in seconds.
func (t *tracer) end(o openSpan) float64 {
	now := time.Now()
	if t != nil {
		t.mu.Lock()
		t.spans[o.id-1] = span{ID: o.id, Parent: o.parent, Name: o.name, Run: o.run,
			Start: o.start.Sub(t.t0).Nanoseconds(), End: now.Sub(t.t0).Nanoseconds()}
		t.mu.Unlock()
	}
	return now.Sub(o.start).Seconds()
}

// requests records one span per request of a load step, under the
// step's span, with the request index as its run id.
func (t *tracer) requests(step openSpan, start time.Time, qs []query, samples []sample) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := start.Sub(t.t0).Nanoseconds()
	for i := range samples {
		s := &samples[i]
		t.spans = append(t.spans, span{ID: int64(len(t.spans)) + 1, Parent: step.id,
			Name: "http.GET /v1/" + qs[i].Route.String(), Run: fmt.Sprintf("req-%d-%d", step.id, i),
			Start: base + s.Sent.Nanoseconds(), End: base + s.Done.Nanoseconds()})
	}
}

// selfTimes returns each layer's self time in seconds: the time its
// spans cover minus the part of each span that its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		if s.Name == "" {
			continue // opened but never closed: its call failed
		}
		self := s.End - s.Start - covered(s, children[s.ID])
		out[s.layer()] += float64(self) / 1e9
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	k := append([]span(nil), kids...)
	sort.Slice(k, func(i, j int) bool { return k[i].Start < k[j].Start })
	var total int64
	lo, hi := int64(-1), int64(-1)
	for _, c := range k {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			total += hi - lo
			lo, hi = s, e
			continue
		}
		hi = max(hi, e)
	}
	return total + hi - lo
}

// writeSpans writes the spans and the per-layer self times as JSON.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Spans []span             `json:"spans"`
		Self  map[string]float64 `json:"self_s"`
	}{t.spans, selfTimes(t.spans)}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
