package main

import (
	"sort"
	"sync"
	"time"
)

// spanID names a recorded span; noSpan is the parent of a root span and
// the id every call returns when tracing is off.
type spanID int32

const noSpan spanID = -1

// span is one timed call into a layer: name, start, end, the span that
// caused it, and the unit (program, request, profile) it belongs to.
type span struct {
	Layer, Name string
	Start, End  time.Duration
	Parent      spanID
	Unit        int
}

// tracer keeps spans in memory for the traced run. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) on() bool { return t != nil }

func (t *tracer) start(parent spanID, layer, name string, unit int) spanID {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Layer: layer, Name: name, Start: now, End: -1, Parent: parent, Unit: unit})
	return spanID(len(t.spans) - 1)
}

func (t *tracer) stop(id spanID) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// mark returns the current span count, so a later query can look only at
// spans recorded after it (the timed phase, not set-up).
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations of the finished spans from index from
// on whose layer and name match (an empty name matches any).
func (t *tracer) durations(from int, layer, name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans[from:] {
		if s.Layer == layer && (name == "" || s.Name == name) && s.End >= 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTimes returns, for the finished spans from index from on, each
// span's self time: its duration minus the part of its interval covered
// by its children. Keyed by layer, summed; and per span, in order.
func (t *tracer) selfTimes(from int) (byLayer map[string]time.Duration, perSpan []time.Duration) {
	byLayer = map[string]time.Duration{}
	if t == nil {
		return byLayer, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[spanID][]span{}
	for _, s := range t.spans[from:] {
		if s.Parent != noSpan && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	perSpan = make([]time.Duration, len(t.spans)-from)
	for i, s := range t.spans[from:] {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(children[spanID(from+i)])
		perSpan[i] = self
		byLayer[s.Layer] += self
	}
	return byLayer, perSpan
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) time.Duration {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total, end time.Duration
	end = -1
	for _, s := range ss {
		switch {
		case s.Start >= end:
			total += s.End - s.Start
			end = s.End
		case s.End > end:
			total += s.End - end
			end = s.End
		}
	}
	return total
}

// selfOf returns the self times of the finished spans from index from on
// with the given layer and name.
func (t *tracer) selfOf(from int, layer, name string) []time.Duration {
	_, per := t.selfTimes(from)
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for i, s := range t.spans[from:] {
		if s.Layer == layer && s.Name == name && s.End >= 0 {
			out = append(out, per[i])
		}
	}
	return out
}

// spanCost measures what one start/stop pair costs, for stating the
// tracer's own overhead.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.stop(t.start(noSpan, "x", "x", i))
	}
	return time.Since(t0) / n
}
