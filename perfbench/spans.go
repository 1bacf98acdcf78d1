package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. Spans of one request share Req; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"` // "<layer>/<call>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID, so a parent can be named before it is recorded.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under a reserved (or fresh, when id is 0)
// ID and returns that ID.
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.id()
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// timed runs fn inside a root span.
func (t *tracer) timed(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(0, 0, 0, name, start, end)
	return end.Sub(start)
}

// layerSelf is one layer's total self time over a run.
type layerSelf struct {
	Layer string
	Spans int
	Self  time.Duration
}

// selfTimes sums, per layer (the span name up to its first '/'), each
// span's duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() []layerSelf {
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	by := map[string]*layerSelf{}
	for _, s := range t.spans {
		covered := coveredNs(s, kids[s.ID])
		layer, _, _ := strings.Cut(s.Name, "/")
		ls := by[layer]
		if ls == nil {
			ls = &layerSelf{Layer: layer}
			by[layer] = ls
		}
		ls.Spans++
		ls.Self += time.Duration(s.End - s.Start - covered)
	}
	out := make([]layerSelf, 0, len(by))
	for _, ls := range by {
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}
