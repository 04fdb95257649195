package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program around the layer's public function. Spans of one request
// share req; parent is the id of the span that caused this one (0 for
// a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	// Start is nanoseconds since the tracer was created; Dur is the
	// span's length in nanoseconds.
	Start int64 `json:"start_ns"`
	Dur   int64 `json:"dur_ns"`
	// Items is the number of documents the span handled when it is
	// more than one (a batch stream).
	Items int `json:"items,omitempty"`
}

// tracer keeps spans in memory until dump. A nil tracer records
// nothing, which is how the untraced run pays no tracing cost.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id, so a span can name its parent before the
// parent has ended (a client span that a server span reports to).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores a span under a reserved id.
func (t *tracer) record(id, parent int64, name, req string, items int, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), Dur: dur.Nanoseconds(), Items: items})
	t.mu.Unlock()
}

// timed runs fn, records it as a span and returns its duration.
func (t *tracer) timed(name, req string, parent int64, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.record(t.newID(), parent, name, req, 0, start, d)
	return d, err
}

// layerTimes returns, per span name, the full and the self time of
// its spans in microseconds per item. Self time is the duration minus
// the durations of the span's children; replayed children run after
// their parent rather than inside its interval, so child time is
// summed by duration, not by overlap. Self times are listed only for
// spans that have children, the ones whose remainder means something.
func (t *tracer) layerTimes() (full, self map[string][]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.Dur
		}
	}
	full = make(map[string][]float64)
	self = make(map[string][]float64)
	for _, s := range t.spans {
		items := float64(max(s.Items, 1))
		full[s.Name] = append(full[s.Name], float64(s.Dur)/1e3/items)
		if c, ok := child[s.ID]; ok {
			self[s.Name] = append(self[s.Name], float64(s.Dur-c)/1e3/items)
		}
	}
	return full, self
}

// dump writes every span as one JSON line, in start order.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
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
