package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation
// (a check-in, a merge round, a sweep) share the root span's ID through
// their parent chain.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer, or
// one switched off, records nothing, so untraced code paths call the
// same methods.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
	// active maps a correlation key (a device ID, "round", "epoch") to
	// the innermost open span working for it, so a handler running on a
	// server goroutine can find the client span that caused it.
	active map[string]uint64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), active: make(map[string]uint64)}
	t.on.Store(true)
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// setOn switches recording; a nil tracer stays off.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a span and makes it the active span for key (when key is
// not empty). The returned closer ends it and restores the previous
// active span.
func (t *tracer) open(name, key string, parent uint64) (id uint64, done func()) {
	if !t.enabled() {
		return 0, func() {}
	}
	id = t.next.Add(1)
	t.mu.Lock()
	prev, hadPrev := t.active[key]
	if parent == 0 && hadPrev {
		parent = prev
	}
	if key != "" {
		t.active[key] = id
	}
	t.mu.Unlock()
	start := t.now()
	return id, func() {
		end := t.now()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
		if key != "" {
			if hadPrev {
				t.active[key] = prev
			} else {
				delete(t.active, key)
			}
		}
		t.mu.Unlock()
	}
}

// add records an already-timed span.
func (t *tracer) add(name string, parent uint64, start, end time.Time) uint64 {
	if !t.enabled() {
		return 0
	}
	id := t.next.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
	return id
}

// spanIndex answers self-time questions over the recorded spans.
type spanIndex struct {
	spans    []span
	children map[uint64][]int
	byName   map[string][]int
}

func (t *tracer) index() *spanIndex {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	ix := &spanIndex{spans: spans, children: make(map[uint64][]int), byName: make(map[string][]int)}
	for i, s := range spans {
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], i)
		}
		ix.byName[s.Name] = append(ix.byName[s.Name], i)
	}
	return ix
}

// self is a span's duration minus the part of it its children cover.
// Children of one span run one after another here, so their clipped
// durations add up without overlap.
func (ix *spanIndex) self(i int) int64 {
	s := ix.spans[i]
	d := s.dur()
	for _, c := range ix.children[s.ID] {
		cs := ix.spans[c]
		lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
		if hi > lo {
			d -= hi - lo
		}
	}
	return d
}

// childTime sums the durations of a span's children named child.
func (ix *spanIndex) childTime(i int, child string) (int64, bool) {
	var d int64
	found := false
	for _, c := range ix.children[ix.spans[i].ID] {
		if ix.spans[c].Name == child {
			d += ix.spans[c].dur()
			found = true
		}
	}
	return d, found
}

// durations returns the named spans' durations in the given unit.
func (ix *spanIndex) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, i := range ix.byName[name] {
		out = append(out, float64(ix.spans[i].dur())/float64(unit))
	}
	return out
}

// coverage is the share of the named root spans' wall time that their
// descendant spans explain: 1 minus the roots' own self time.
func (ix *spanIndex) coverage(roots ...string) float64 {
	var total, self int64
	for _, r := range roots {
		for _, i := range ix.byName[r] {
			total += ix.spans[i].dur()
			self += ix.self(i)
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(self)/float64(total)
}

// write saves the spans as JSON lines under .bench_build/traces.
func (t *tracer) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.jsonl", workload, seed, os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
