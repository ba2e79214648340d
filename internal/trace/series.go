// Package trace records and renders time series produced by the
// simulation: power draw, CPU frequency, power caps, and online
// performance. The experiment harness uses it to regenerate the paper's
// figures as aligned text series and CSV, plus compact ASCII sparklines
// for at-a-glance shape checks in terminal output.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Point is a single (time, value) sample.
type Point struct {
	T time.Duration
	V float64
}

// Series is an append-only time series with a name and a unit label.
type Series struct {
	// Name and Unit are construction configuration.
	Name string `snap:"-"`
	Unit string `snap:"-"`
	pts  []Point
}

// NewSeries returns an empty series.
func NewSeries(name, unit string) *Series {
	return &Series{Name: name, Unit: unit}
}

// Add appends a sample. Samples must be appended in non-decreasing time
// order; out-of-order appends panic because they indicate an engine bug.
func (s *Series) Add(t time.Duration, v float64) {
	if n := len(s.pts); n > 0 && t < s.pts[n-1].T {
		panic(fmt.Sprintf("trace: out-of-order sample on %q: %v after %v", s.Name, t, s.pts[n-1].T))
	}
	s.pts = append(s.pts, Point{T: t, V: v})
}

// Reserve grows the series' capacity to hold at least n total samples,
// so a caller that knows the run length (samples per window × windows)
// can pre-size the backing array instead of growing it through repeated
// append doublings on the hot path.
func (s *Series) Reserve(n int) {
	if n <= cap(s.pts) {
		return
	}
	pts := make([]Point, len(s.pts), n)
	copy(pts, s.pts)
	s.pts = pts
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.pts) }

// At returns the i-th sample.
func (s *Series) At(i int) Point { return s.pts[i] }

// Points returns the underlying samples. The slice must not be mutated.
func (s *Series) Points() []Point { return s.pts }

// Values returns just the sample values in order.
func (s *Series) Values() []float64 {
	vs := make([]float64, len(s.pts))
	for i, p := range s.pts {
		vs[i] = p.V
	}
	return vs
}

// Times returns the sample times in seconds.
func (s *Series) Times() []float64 {
	ts := make([]float64, len(s.pts))
	for i, p := range s.pts {
		ts[i] = p.T.Seconds()
	}
	return ts
}

// ValueAt returns the most recent value at or before t (step
// interpolation). The boolean is false when t precedes the first sample.
func (s *Series) ValueAt(t time.Duration) (float64, bool) {
	i := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T > t })
	if i == 0 {
		return 0, false
	}
	return s.pts[i-1].V, true
}

// Slice returns the samples in [from, to).
func (s *Series) Slice(from, to time.Duration) []Point {
	lo := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T >= from })
	hi := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T >= to })
	return s.pts[lo:hi]
}

// MeanBetween returns the mean of values sampled in [from, to), and false
// if the window holds no samples.
func (s *Series) MeanBetween(from, to time.Duration) (float64, bool) {
	pts := s.Slice(from, to)
	if len(pts) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, p := range pts {
		sum += p.V
	}
	return sum / float64(len(pts)), true
}

// Resample buckets the series into fixed windows of width step starting at
// from, averaging the samples in each bucket. Empty buckets carry the
// previous bucket's value (or 0 before any data). The result has
// ceil((to-from)/step) buckets.
func (s *Series) Resample(from, to time.Duration, step time.Duration) []float64 {
	if step <= 0 {
		panic("trace: Resample with non-positive step")
	}
	n := int((to - from + step - 1) / step)
	if n < 0 {
		n = 0
	}
	out := make([]float64, n)
	prev := 0.0
	for i := 0; i < n; i++ {
		lo := from + time.Duration(i)*step
		hi := lo + step
		if m, ok := s.MeanBetween(lo, hi); ok {
			prev = m
		}
		out[i] = prev
	}
	return out
}

// Sparkline renders values as a compact unicode bar chart, useful for
// eyeballing figure shapes in terminal output.
func Sparkline(vs []float64) string {
	if len(vs) == 0 {
		return ""
	}
	bars := []rune("▁▂▃▄▅▆▇█")
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vs {
		idx := 0
		if hi > lo {
			idx = int(math.Round((v - lo) / (hi - lo) * float64(len(bars)-1)))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(bars) {
			idx = len(bars) - 1
		}
		b.WriteRune(bars[idx])
	}
	return b.String()
}
