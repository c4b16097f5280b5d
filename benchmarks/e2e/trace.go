package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval the harness observed from outside a layer. Start and
// End are nanoseconds since the tracer was made. Parent is the id of the
// span that caused it (0 for a root); spans of one request or pass share
// Req. A measured span was timed by the harness around a call; a span with
// Measured false was filled from timings the call returned, so its length
// is exact but its position inside the parent is nominal.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Req      int    `json:"req"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Measured bool   `json:"measured"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.t0)) }

// add records a measured span and returns its id.
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	return t.put(span{Parent: parent, Req: req, Name: name, Start: t.at(start), End: t.at(end), Measured: true})
}

// fill records a child of parent whose length a callee reported. It is laid
// at offset nanoseconds into the parent; fills of one parent are laid end to
// end by the caller so that they do not overlap.
func (t *tracer) fill(name string, parent, req int, parentStart time.Time, offset, nanos int64) int {
	if t == nil {
		return 0
	}
	s := t.at(parentStart) + offset
	return t.put(span{Parent: parent, Req: req, Name: name, Start: s, End: s + nanos})
}

func (t *tracer) put(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// selfNanos returns, per span id, the span's length minus the part of its
// interval that its children cover (the union, clipped to the parent, so
// parallel or overlapping children are not counted twice).
func selfNanos(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, edge := int64(0), s.Start
		for _, k := range iv {
			lo, hi := max(k[0], edge), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName sums self time per span name, in milliseconds.
func (t *tracer) selfByName() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	self := selfNanos(t.spans)
	for _, s := range t.spans {
		out[s.Name] += float64(self[s.ID]) / 1e6
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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
