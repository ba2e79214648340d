package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"progresscap/internal/trace"
)

// miniWorkloads returns every workload at a size the race detector runs
// in seconds.
func miniWorkloads() map[string]benchWorkload {
	return map[string]benchWorkload{
		"capped-node":   cappedNode{seconds: 2, apps: nodeApps[:1], fixedTickSeconds: 0.5},
		"uncapped-node": uncappedNode{seconds: 5, apps: nodeApps[:2], perMode: 1},
		"cap-sweep":     capSweep{seconds: 3, apps: nodeApps[3:], levels: 2},
		"fleet":         fleet{nodes: 8, epochs: 4},
		"paper-suite":   paperSuite{gens: suiteGenerators[:3]},
	}
}

// testProbeIters keeps the probes cheap under the race detector.
const testProbeIters = 50

func opNames(t *testing.T, w benchWorkload, seed uint64, k int) []string {
	t.Helper()
	p, err := w.pass(seed, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, o := range p.ops {
		names = append(names, o.name)
	}
	return names
}

func TestOpListsAreSeeded(t *testing.T) {
	for name, w := range miniWorkloads() {
		a, b := opNames(t, w, 1, 0), opNames(t, w, 1, 0)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two op lists:\n%q\n%q", name, a, b)
		}
		if c := opNames(t, w, 2, 0); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same op list %q", name, a)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "child", ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "child", ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps the first
		{Name: "leaf", ID: 3, Parent: 2, Start: 25, End: 45},   // covers its parent, not the root
		{Name: "child", ID: 4, Parent: 0, Start: 90, End: 120}, // clipped to the root
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30 - 20, 20, 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	r := rollups(spans)["child"]
	if r.Calls != 3 || r.TotalNs != 80 || r.SelfNs != 60 || r.quantile(0.5) != 30 {
		t.Fatalf("child rollup %+v, p50 %v", r, r.quantile(0.5))
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer("w")
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	second := tr.begin("outer")
	tr.end(second)
	if tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[2].Parent != -1 {
		t.Fatalf("parents %+v", tr.spans)
	}
	var none *tracer
	none.end(none.begin("x"))
	none.count("x", 1)
}

func TestChecksFlagBadOutputs(t *testing.T) {
	if sameResult("re-run", "s 1s 0x1p+00", "s 1s 0x1p+01") == nil {
		t.Error("a corrupted signature passed")
	}
	if sameResult("re-run", "same", "same") != nil {
		t.Error("equal signatures failed")
	}
	if checkUnderCap([]float64{140, 120, 100.2, 100.7, 99, 130}, 100, capMarginW) == nil {
		t.Error("a window 0.7 W over the cap passed")
	}
	if err := checkUnderCap([]float64{140, 120, 100.2, 100.5, 99, 130}, 100, capMarginW); err != nil {
		t.Errorf("windows within the margin failed: %v", err)
	}
	budget := trace.NewSeries("budget", "W")
	a, b := trace.NewSeries("a", "W"), trace.NewSeries("b", "W")
	for i, caps := range [][2]float64{{50, 50}, {60, 41}, {70, 30}} {
		at := time.Duration(i+1) * time.Second
		budget.Add(at, 100)
		a.Add(at, caps[0])
		b.Add(at, caps[1])
	}
	fails := checkBudgetTraces(budget, []*trace.Series{a, b})
	if len(fails) != 1 || fails[1] == nil {
		t.Errorf("over-budget epoch 1 not flagged alone: %v", fails)
	}
	if checkRender("== fig9: nothing ==\n") == nil {
		t.Error("an empty render passed")
	}
}

// TestMiniatureRuns runs every workload small, untraced and traced: no op
// fails and both give the same digest.
func TestMiniatureRuns(t *testing.T) {
	for name, w := range miniWorkloads() {
		t.Run(name, func(t *testing.T) {
			plain := &driver{w: w, seed: 3, stderr: io.Discard}
			if _, err := plain.measure(time.Nanosecond); err != nil {
				t.Fatal(err)
			}
			traced := &driver{w: w, seed: 3, stderr: io.Discard, traceDir: t.TempDir(), probeIters: testProbeIters}
			if _, err := traced.traced(name); err != nil {
				t.Fatal(err)
			}
			if plain.failed != 0 || traced.failed != 0 {
				t.Errorf("%d and %d of %d and %d ops failed", plain.failed, traced.failed, plain.attempted, traced.attempted)
			}
			if plain.digest != traced.digest {
				t.Errorf("untraced digest %s, traced %s", plain.digest, traced.digest)
			}
		})
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// printed runs the driver's report and returns the JSON metrics and the
// names on the "name value unit" lines.
func printed(t *testing.T, d *driver, m map[string]metric) (map[string]metric, []string) {
	t.Helper()
	var buf bytes.Buffer
	if err := report(&buf, d, m); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out struct {
		Correct   *bool             `json:"correct"`
		Attempted *int              `json:"attempted"`
		Failed    *int              `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil || out.Correct == nil || out.Attempted == nil || out.Failed == nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	var names []string
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) != 3 {
			t.Fatalf("line %q is not name value unit", l)
		}
		switch f[0] {
		case "ops_attempted", "ops_failed", "digest":
			continue
		}
		if got, ok := out.Metrics[f[0]]; !ok || got.Unit != f[2] {
			t.Errorf("line %q disagrees with the JSON", l)
		}
		names = append(names, f[0])
	}
	return out.Metrics, names
}

func declared(t *testing.T, want map[string]string, got map[string]metric, what string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: declared metric %s not printed", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: %s printed in %s, declared in %s", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: printed metric %s is not declared", what, name)
		}
	}
}

// TestBenchmarkFileMatchesOutput checks BENCHMARK.json against what the
// driver prints in both modes.
func TestBenchmarkFileMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var wls []string
	for _, w := range bf.Workloads {
		wls = append(wls, w.Name)
	}
	if !reflect.DeepEqual(wls, workloadNames) || len(wls) < 2 || len(wls) > 8 {
		t.Errorf("workloads %v, driver has %v", wls, workloadNames)
	}
	if len(bf.EndToEnd) < 1 || len(bf.EndToEnd) > 16 || len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(bf.EndToEnd), len(bf.PerLayer))
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, names := range []map[string]string{e2e, layers} {
		for n := range names {
			if !nameRE.MatchString(n) {
				t.Errorf("metric name %q", n)
			}
		}
	}
	if len(e2e)+len(layers) != len(bf.EndToEnd)+len(bf.PerLayer) {
		t.Error("a metric name is used twice")
	}

	w := miniWorkloads()["uncapped-node"]
	plain := &driver{w: w, seed: 1, stderr: io.Discard}
	m, err := plain.measure(time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	m["setup_s"] = metric{1, "s"}
	got, _ := printed(t, plain, m)
	declared(t, e2e, got, "untraced")

	traced := &driver{w: w, seed: 1, stderr: io.Discard, traceDir: t.TempDir(), probeIters: testProbeIters}
	m, err = traced.traced("uncapped-node")
	if err != nil {
		t.Fatal(err)
	}
	got, names := printed(t, traced, m)
	declared(t, layers, got, "traced")
	if !sort.StringsAreSorted(names) {
		t.Errorf("metric lines are not sorted: %v", names)
	}
}
