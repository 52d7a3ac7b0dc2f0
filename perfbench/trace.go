package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a module, recorded by the benchmark around
// the call. Spans of one request share its request id; a span's parent is
// the index of the span that caused it, or -1.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int64  `json:"request"`
}

// tracer keeps spans in memory for the whole traced run; write saves them
// when the run ends, so recording a span costs two clock reads and an
// append.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, parent int, request int64) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Request: request})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover.
func (t *tracer) selfTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := max(t.spans[k].Start, reach), min(t.spans[k].End, s.End)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfByName groups self times by span name.
func (t *tracer) selfByName() map[string][]time.Duration {
	self := t.selfTimes()
	out := make(map[string][]time.Duration)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], self[i])
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// memSample reads the runtime's cumulative allocation counters.
type memSample struct {
	allocBytes, allocObjects uint64
}

var memKeys = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"}

func readMem() memSample {
	s := make([]metrics.Sample, len(memKeys))
	for i, k := range memKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	return memSample{allocBytes: s[0].Value.Uint64(), allocObjects: s[1].Value.Uint64()}
}

func (m memSample) sub(o memSample) memSample {
	return memSample{allocBytes: m.allocBytes - o.allocBytes, allocObjects: m.allocObjects - o.allocObjects}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
