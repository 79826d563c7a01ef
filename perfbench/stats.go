package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rank is the 0-based index of the nearest-rank q-quantile (0 < q <= 1)
// in a sorted sample of n.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// quantile returns the nearest-rank q-quantile of xs, or 0 for an empty
// sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail reports the q-quantile of xs when at least ten samples lie beyond
// it, and otherwise falls back to the median. The returned label names the
// percentile actually reported, with the sample count, so a tail figure is
// never read off a handful of points.
func tail(xs []float64, q float64) (float64, string) {
	if n := len(xs); n > 0 && n-1-rank(n, q) >= 10 {
		return quantile(xs, q), fmt.Sprintf("p%g of %d", q*100, len(xs))
	}
	return median(xs), fmt.Sprintf("p50 of %d (too few samples for p%g)", len(xs), q*100)
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapSampler reads the Go runtime's allocation and live-heap counters
// without stopping the world.
type heapSampler struct {
	s []metrics.Sample
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}}
}

// read returns cumulative bytes allocated and the live heap as of the last
// collection.
func (h *heapSampler) read() (allocs, live uint64) {
	metrics.Read(h.s)
	return h.s[0].Value.Uint64(), h.s[1].Value.Uint64()
}

// span is one timed call into a layer, taken from outside the program.
// Spans that carry work for a miner list its id in Miners, so one miner's
// spans can be followed from its POST, through the rounds it waited, to
// the GET that delivered its alert.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Miners []int  `json:"miners,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run avoids every probe.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 when tracing is off).
func (t *tracer) add(name string, parent int, start, end time.Time, miners []int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
		Miners: miners,
	})
	return id
}

// write stores the spans as JSON lines in dir.
func (t *tracer) write(dir, file string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
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
