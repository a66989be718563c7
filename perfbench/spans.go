package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Reserved span ids: the whole traced call, and the harness call inside
// it. Generator spans are children of the harness span; export spans
// are children of the run span.
const (
	spanRun uint64 = iota + 1
	spanHarness
)

// span is one timed call into a layer, in nanoseconds since the log
// was created.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps the traced run's spans in memory until the run ends.
// It is safe for concurrent use: under Workers=2 the generator is
// called from both partition workers. A nil log records nothing.
type spanLog struct {
	origin time.Time
	ids    atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog {
	l := &spanLog{origin: time.Now()}
	l.ids.Store(spanHarness)
	return l
}

// newID allocates a span id above the reserved ones.
func (l *spanLog) newID() uint64 {
	if l == nil {
		return 0
	}
	return l.ids.Add(1)
}

func (l *spanLog) add(id, parent uint64, name string, start, end time.Time) {
	if l == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(l.origin).Nanoseconds(), EndNS: end.Sub(l.origin).Nanoseconds()}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// spanTotal is the count and summed duration of the spans of one name.
type spanTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	Seconds float64 `json:"seconds"`
	// SelfSeconds is Seconds minus the summed duration of the spans'
	// direct children (clamped at zero: children on two workers can
	// overlap).
	SelfSeconds float64 `json:"self_seconds"`
}

// totals folds the spans by name, sorted by name.
func (l *spanLog) totals() []spanTotal {
	l.mu.Lock()
	defer l.mu.Unlock()
	byID := make(map[uint64]string, len(l.spans))
	child := map[uint64]float64{}
	for _, s := range l.spans {
		byID[s.ID] = s.Name
		child[s.Parent] += float64(s.EndNS-s.StartNS) / 1e9
	}
	acc := map[string]*spanTotal{}
	for _, s := range l.spans {
		t := acc[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			acc[s.Name] = t
		}
		d := float64(s.EndNS-s.StartNS) / 1e9
		t.Count++
		t.Seconds += d
		if self := d - child[s.ID]; self > 0 {
			t.SelfSeconds += self
		}
	}
	out := make([]spanTotal, 0, len(acc))
	for _, t := range acc {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeFile writes the spans and their per-name totals as JSON.
func (l *spanLog) writeFile(path string) error {
	totals := l.totals()
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Schema string      `json:"schema"`
		Totals []spanTotal `json:"totals"`
		Spans  []span      `json:"spans"`
	}{"perfbench-spans/v1", totals, l.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
