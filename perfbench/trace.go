package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Start and End are offsets from the tracer's epoch.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Req    string        `json:"req"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// N is the work the call covered: messages, rows or groups.
	N int `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced runs call the same code for free.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type spanKey struct{}

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span named name as a child of the span ctx carries, or as
// the root of a new request when it carries none.
func (t *tracer) start(ctx context.Context, name string) (context.Context, *openSpan) {
	if t == nil {
		return ctx, nil
	}
	id := t.next.Add(1)
	s := span{ID: id, Name: name, Req: "r" + strconv.FormatInt(id, 10)}
	if p, ok := ctx.Value(spanKey{}).(*openSpan); ok {
		s.Parent, s.Req = p.s.ID, p.s.Req
	}
	o := &openSpan{t: t, s: s}
	o.s.Start = time.Since(t.epoch)
	return context.WithValue(ctx, spanKey{}, o), o
}

// end records the span, covering n items of work.
func (o *openSpan) end(n int) {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.t.epoch)
	o.s.N = n
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// requestID is the request the span belongs to, "" when untraced.
func (o *openSpan) requestID() string {
	if o == nil {
		return ""
	}
	return o.s.Req
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanSet indexes recorded spans by name and parent.
type spanSet struct {
	byName   map[string][]span
	children map[int64][]span
}

func indexSpans(spans []span) spanSet {
	set := spanSet{byName: map[string][]span{}, children: map[int64][]span{}}
	for _, s := range spans {
		set.byName[s.Name] = append(set.byName[s.Name], s)
		if s.Parent != 0 {
			set.children[s.Parent] = append(set.children[s.Parent], s)
		}
	}
	return set
}

// total sums the durations and work counts of the spans named name.
func (set spanSet) total(name string) (d time.Duration, calls, n int) {
	for _, s := range set.byName[name] {
		d += s.dur()
		n += s.N
	}
	return d, len(set.byName[name]), n
}

// meanUS is the mean duration of the spans named name, in microseconds.
func (set spanSet) meanUS(name string) float64 {
	d, calls, _ := set.total(name)
	return ratio(us(d), float64(calls))
}

// perItemUS is the total duration of the spans named name divided by the
// work they covered, in microseconds.
func (set spanSet) perItemUS(name string) float64 {
	d, _, n := set.total(name)
	return ratio(us(d), float64(n))
}

// durationsMS lists the durations of the spans named name.
func (set spanSet) durationsMS(name string) []float64 {
	out := make([]float64, 0, len(set.byName[name]))
	for _, s := range set.byName[name] {
		out = append(out, ms(s.dur()))
	}
	return out
}

// meanSelfUS is the mean self time of the spans named name: each span's
// duration minus what its children named child cover.
func (set spanSet) meanSelfUS(name, child string) float64 {
	var total time.Duration
	parents := set.byName[name]
	for _, p := range parents {
		var kids []interval
		for _, c := range set.children[p.ID] {
			if c.Name == child {
				kids = append(kids, interval{c.Start, c.End})
			}
		}
		total += selfTime(interval{p.Start, p.End}, kids)
	}
	return ratio(us(total), float64(len(parents)))
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
