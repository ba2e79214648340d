package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the driver's side
// of the call. Times are nanoseconds since the tracer started.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root span
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps spans and named counters in memory. Every simulation runs
// on one goroutine, so the open spans form a stack and the innermost one
// is the parent of the next. A nil *tracer is valid and records nothing:
// untraced passes call the same code with tr == nil.
type tracer struct {
	workload string
	op       int
	t0       time.Time
	spans    []span
	open     []int
	counts   map[string]int64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), counts: map[string]int64{}}
}

// begin opens a span and returns its id, to be passed to end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Op: t.op, ID: id, Parent: parent,
		Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned. Spans close in LIFO order.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// count adds n to a named counter.
func (t *tracer) count(name string, n int64) {
	if t != nil {
		t.counts[name] += n
	}
}

// rollup is the per-span-name summary of a trace.
type rollup struct {
	Name    string
	Calls   int
	TotalNs int64
	SelfNs  int64 // duration minus the part covered by child spans
	durs    []int64
}

// quantile returns the q-quantile of the span durations in ns.
func (r *rollup) quantile(q float64) float64 {
	if r == nil {
		return 0
	}
	fs := make([]float64, len(r.durs))
	for i, d := range r.durs {
		fs[i] = float64(d)
	}
	return quantile(fs, q)
}

// selfTimes returns each span's duration minus the union of its direct
// children's intervals, clipped to the span.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, reach int64
		reach = s.Start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// rollups summarizes spans by name.
func rollups(spans []span) map[string]*rollup {
	self := selfTimes(spans)
	out := map[string]*rollup{}
	for i, s := range spans {
		r := out[s.Name]
		if r == nil {
			r = &rollup{Name: s.Name}
			out[s.Name] = r
		}
		d := s.End - s.Start
		r.Calls++
		r.TotalNs += d
		r.SelfNs += self[i]
		r.durs = append(r.durs, d)
	}
	return out
}

// printRollup writes the rollup as a table, largest self time first.
func printRollup(w io.Writer, rs map[string]*rollup) {
	list := make([]*rollup, 0, len(rs))
	for _, r := range rs {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].SelfNs != list[j].SelfNs {
			return list[i].SelfNs > list[j].SelfNs
		}
		return list[i].Name < list[j].Name
	})
	fmt.Fprintf(w, "%-28s %8s %12s %12s %12s %12s\n", "span", "calls", "total_ms", "self_ms", "p50_us", "p99_us")
	for _, r := range list {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %12.3f %12.3f\n", r.Name, r.Calls,
			float64(r.TotalNs)/1e6, float64(r.SelfNs)/1e6, r.quantile(0.5)/1e3, r.quantile(0.99)/1e3)
	}
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
