package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public entry point. Spans of
// one request share req; the Go-API replay of an HTTP request carries
// the HTTP span's req, which is how HTTP self time is derived.
type span struct {
	Name  string  `json:"name"`
	Req   int64   `json:"req"`
	Start float64 `json:"start_us"`
	Dur   float64 `json:"dur_us"`
	// N is the work the span covered, in the layer's own unit (points,
	// cells, segments); 0 when the span is one operation.
	N int64 `json:"n,omitempty"`
}

// tracer records spans in memory from the benchmark's own code around
// calls into the program; the program itself is not instrumented. A nil
// or disabled tracer records nothing and costs one branch.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(enabled bool) *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(enabled)
	return t
}

func (t *tracer) enabled() bool { return t.on.Load() }

// newReq allocates a request identifier.
func (t *tracer) newReq() int64 { return t.reqs.Add(1) }

// record stores a finished span.
func (t *tracer) record(name string, req int64, start time.Time, d time.Duration, n int64) {
	if !t.enabled() {
		return
	}
	s := span{
		Name:  name,
		Req:   req,
		Start: float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		Dur:   float64(d.Nanoseconds()) / 1e3,
		N:     n,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name string, req int64, n int64, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	d := time.Since(start)
	t.record(name, req, start, d, n)
	return d, err
}

// byName returns every span of one name.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// medianDur is the median duration (µs) of the named spans.
func (t *tracer) medianDur(name string) float64 {
	var v []float64
	for _, s := range t.byName(name) {
		v = append(v, s.Dur)
	}
	return medianOf(v)
}

// medianSince is the median duration (µs) of the named spans that
// started at or after from (µs on the tracer clock).
func (t *tracer) medianSince(name string, from float64) float64 {
	var v []float64
	for _, s := range t.byName(name) {
		if s.Start >= from {
			v = append(v, s.Dur)
		}
	}
	return medianOf(v)
}

// totals sums the duration (µs) and work of the named spans.
func (t *tracer) totals(name string) (durUS float64, n int64) {
	for _, s := range t.byName(name) {
		durUS += s.Dur
		n += s.N
	}
	return durUS, n
}

// selfMedian is the median over requests of outer's duration minus the
// duration of inner spans carrying the same req: the time a request
// spends in the layer between the two entry points.
func (t *tracer) selfMedian(outer, inner string) float64 {
	in := map[int64]float64{}
	for _, s := range t.byName(inner) {
		in[s.Req] += s.Dur
	}
	var v []float64
	for _, s := range t.byName(outer) {
		if d, ok := in[s.Req]; ok {
			v = append(v, s.Dur-d)
		}
	}
	return medianOf(v)
}

// write dumps every span as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
