// Command capbench is the repository's benchmark driver. One process runs
// one workload for one seed:
//
//	capbench --workload capped-node --seed 1 --seconds 10 --trace 0
//
// It times calls into the simulator's public functions from outside and
// changes no code under test. Untraced (--trace 0), it repeats passes of
// the workload's seeded op list until --seconds have elapsed and reports
// the end-to-end metrics. Traced (--trace 1), it runs pass 0 untraced and
// then traced, checks both give the same digest, runs the per-layer
// probes, writes the spans to .bench_build/trace-<workload>-<seed>.jsonl,
// prints a rollup to standard error and reports the per-layer metrics.
//
// Standard output holds one "name value unit" line per metric, the op
// counts and the digest, and, as its last line, a JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	start := time.Now()
	// Every simulation runs on one goroutine; one P keeps the collector on
	// the same CPU, so the measurement is single-core on any host.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], start, os.Stdout, os.Stderr))
}

// setupReps is how many times a run sets up before measuring; setup_s is
// the median.
const setupReps = 5

// sampleEvery marks every n-th op for the untimed re-run oracle.
const sampleEvery = 10

func run(args []string, start time.Time, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("capbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed of the op list")
	secs := fs.Float64("seconds", 20, "measured time of an untraced run")
	traced := fs.Int("trace", 0, "1 runs pass 0 traced and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "capbench:", err)
		return 2
	}
	if *secs <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "capbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	d := &driver{w: w, seed: *seed, stderr: stderr, traceDir: ".bench_build", probeIters: 20000}
	setup, err := d.setup(start)
	if err != nil {
		fmt.Fprintln(stderr, "capbench: setup:", err)
		return 1
	}
	var metrics map[string]metric
	if *traced == 1 {
		metrics, err = d.traced(*name)
	} else {
		metrics, err = d.measure(time.Duration(*secs * float64(time.Second)))
		metrics["setup_s"] = metric{setup, "s"}
	}
	if err != nil {
		fmt.Fprintln(stderr, "capbench:", err)
		return 1
	}
	if err := report(stdout, d, metrics); err != nil {
		fmt.Fprintln(stderr, "capbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driver runs passes of one workload and accounts for their ops.
type driver struct {
	w          benchWorkload
	seed       uint64
	stderr     io.Writer
	traceDir   string // where a traced run writes its spans
	probeIters int    // iterations per probe batch

	opIndex   int // ops run so far, for sampling
	attempted int
	failed    int
	digest    string

	opMs  []float64
	passS []float64
	shown int // failure messages printed
}

// passResult is what a pass leaves for digests and metrics.
type passResult struct {
	results []string // per op, when requested
	failed  map[int]bool
	busy    time.Duration
}

// fail records a failed op, printing the first few reasons.
func (d *driver) fail(what string, err error) {
	if d.shown < 10 {
		fmt.Fprintf(d.stderr, "capbench: FAIL %s: %v\n", what, err)
		d.shown++
	}
}

// runPass runs pass k. Construction and ops are timed; result rendering
// and oracles are not.
func (d *driver) runPass(k int, tr *tracer, keep bool) (passResult, error) {
	var pr passResult
	// Each pass starts from a collected heap, as a fresh process would, so
	// one pass's garbage neither slows the next nor lifts its peak memory.
	runtime.GC()
	t := time.Now()
	p, err := d.w.pass(d.seed, k, tr)
	pr.busy = time.Since(t)
	if err != nil {
		return pr, fmt.Errorf("building pass %d: %w", k, err)
	}
	if keep {
		pr.results = make([]string, len(p.ops))
	}
	failed := map[int]bool{}
	pr.failed = failed
	for i, o := range p.ops {
		if tr != nil {
			tr.op = i
		}
		sp := tr.begin("op")
		t := time.Now()
		out, err := o.run(tr)
		dt := time.Since(t)
		tr.end(sp)
		pr.busy += dt
		d.opMs = append(d.opMs, float64(dt.Nanoseconds())/1e6)
		d.attempted++
		sampled := d.opIndex%sampleEvery == 0
		d.opIndex++
		if err != nil {
			d.fail(o.name, err)
			failed[i] = true
			continue
		}
		if keep || (sampled && out.rerun != nil) {
			res := out.result()
			if keep {
				pr.results[i] = res
			}
			if sampled && out.rerun != nil {
				again, err := out.rerun()
				if err == nil {
					err = sameResult("re-run", res, again)
				}
				if err != nil {
					d.fail(o.name, err)
					failed[i] = true
				}
			}
		}
		if out.check != nil {
			if err := out.check(sampled); err != nil {
				d.fail(o.name, err)
				failed[i] = true
			}
		}
	}
	if p.verify != nil {
		for i, err := range p.verify(k%sampleEvery == 0) {
			d.fail(p.ops[i].name, err)
			failed[i] = true
		}
	}
	d.failed += len(failed)
	d.passS = append(d.passS, pr.busy.Seconds())
	return pr, nil
}

// digestOf hashes op results in op order.
func digestOf(results []string) string {
	h := sha256.New()
	for _, r := range results {
		sum := sha256.Sum256([]byte(r))
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// setup times building pass 0 and running its first op untimed, setupReps
// times, and returns the median plus the time from process start to main.
func (d *driver) setup(mainStart time.Time) (float64, error) {
	var reps []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		p, err := d.w.pass(d.seed, 0, nil)
		if err != nil {
			return 0, err
		}
		if _, err := p.ops[0].run(nil); err != nil {
			return 0, err
		}
		reps = append(reps, time.Since(t).Seconds())
	}
	return processStartup(mainStart) + quantile(reps, 0.5), nil
}

// processStartup returns the time from CAPBENCH_T0, which bench/run.sh
// sets to the wall clock just before it starts the binary, to main. It
// covers loading and package initialization; 0 when the variable is
// unset or unreadable.
func processStartup(mainStart time.Time) float64 {
	v := strings.Replace(os.Getenv("CAPBENCH_T0"), ",", ".", 1)
	t0, err := strconv.ParseFloat(v, 64)
	if err != nil || t0 <= 0 {
		return 0
	}
	s := float64(mainStart.UnixNano())/1e9 - t0
	if s < 0 {
		return 0
	}
	return s
}

// measure runs whole passes, at least one, while the next is expected to
// end within budget, and returns the end-to-end metrics but setup_s.
func (d *driver) measure(budget time.Duration) (map[string]metric, error) {
	start := time.Now()
	for k := 0; k == 0 || time.Since(start)*time.Duration(k+1)/time.Duration(k) <= budget; k++ {
		pr, err := d.runPass(k, nil, k == 0)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			d.digest = digestOf(pr.results)
		}
	}
	fmt.Fprintf(d.stderr, "capbench: %d ops in %d passes\n", len(d.opMs), len(d.passS))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"pass_s":      {quantile(d.passS, 0.5), "s"},
		"op_p50_ms":   {quantile(d.opMs, 0.5), "ms"},
		"op_p90_ms":   {quantile(d.opMs, 0.9), "ms"},
		"peak_rss_mb": {rss, "MB"},
	}, nil
}

// traced runs pass 0 untraced and then traced, compares them op by op,
// runs the probes, and returns the per-layer metrics.
func (d *driver) traced(name string) (map[string]metric, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, err := d.runPass(0, nil, true)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	tr := newTracer(name)
	withSpans, err := d.runPass(0, tr, true)
	if err != nil {
		return nil, err
	}
	d.digest = digestOf(plain.results)
	for i := range plain.results {
		err := sameResult("traced", plain.results[i], withSpans.results[i])
		if err != nil && !withSpans.failed[i] {
			d.fail(fmt.Sprintf("op %d", i), err)
			d.failed++
		}
	}
	path := filepath.Join(d.traceDir, fmt.Sprintf("trace-%s-%d.jsonl", name, d.seed))
	if err := writeJSONL(path, tr.spans); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	rs := rollups(tr.spans)
	printRollup(d.stderr, rs)
	fmt.Fprintf(d.stderr, "capbench: %d spans written to %s\n", len(tr.spans), path)

	m := layerMetrics(rs, tr.counts)
	m["go.alloc_mb"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), "MB"}
	m["go.gc_cycles"] = metric{float64(m1.NumGC - m0.NumGC), "count"}
	m["trace.spans"] = metric{float64(len(tr.spans)), "count"}
	m["trace.overhead_frac"] = metric{withSpans.busy.Seconds()/plain.busy.Seconds() - 1, "ratio"}
	if err := probeMetrics(m, d.probeIters); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	return m, nil
}

// layerMetrics derives the per-layer metrics from the span rollup and
// the counters. A layer the workload does not reach reports 0.
func layerMetrics(rs map[string]*rollup, counts map[string]int64) map[string]metric {
	m := map[string]metric{}
	calls := func(name string) float64 {
		if r := rs[name]; r != nil {
			return float64(r.Calls)
		}
		return 0
	}
	selfMs := func(name string) float64 {
		if r := rs[name]; r != nil {
			return float64(r.SelfNs) / 1e6
		}
		return 0
	}
	q := func(name string, p, scale float64) float64 { return rs[name].quantile(p) / scale }
	count := func(name string) float64 { return float64(counts[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	const us, ms = 1e3, 1e6

	m["engine.advance.calls"] = metric{calls("engine.advance"), "count"}
	m["engine.advance.us_p50"] = metric{q("engine.advance", 0.5, us), "us"}
	m["engine.advance.us_p99"] = metric{q("engine.advance", 0.99, us), "us"}
	m["engine.advance.self_ms"] = metric{selfMs("engine.advance"), "ms"}
	m["engine.virtual_s"] = metric{count("engine.virtual_ns") / 1e9, "virtual_s"}
	m["engine.windows"] = metric{count("engine.windows"), "count"}
	m["engine.new.us_p50"] = metric{q("engine.new", 0.5, us), "us"}
	m["engine.finish.us_p50"] = metric{q("engine.finish", 0.5, us), "us"}

	m["policy.cap_at.calls"] = metric{calls("policy.cap_at"), "count"}
	m["policy.cap_at.self_ms"] = metric{selfMs("policy.cap_at"), "ms"}
	m["policy.write_cap.calls"] = metric{calls("policy.write_cap"), "count"}
	m["policy.write_cap.us_p50"] = metric{q("policy.write_cap", 0.5, us), "us"}
	m["policy.write_cap.errors"] = metric{count("policy.write_cap.errors"), "count"}

	m["runner.do.calls"] = metric{calls("runner.do"), "count"}
	m["runner.do.ms_p50"] = metric{q("runner.do", 0.5, ms), "ms"}
	m["runner.do.ms_p90"] = metric{q("runner.do", 0.9, ms), "ms"}
	m["runner.executed"] = metric{count("runner.executed"), "count"}
	m["runner.memo_hits"] = metric{count("runner.memo_hits"), "count"}
	m["runner.fork_runs"] = metric{count("runner.fork_runs"), "count"}
	m["runner.fork_hits"] = metric{count("runner.fork_hits"), "count"}
	m["runner.fork_hit_rate"] = metric{ratio(count("runner.fork_hits"), count("runner.fork_runs")), "ratio"}
	m["runner.fork_skipped_virtual_s"] = metric{count("runner.fork_skipped_s"), "virtual_s"}
	m["runner.fork_skip_frac"] = metric{ratio(count("runner.fork_skipped_s"), count("runner.fork_run_s")), "ratio"}

	m["cluster.new.ms_p50"] = metric{q("cluster.new", 0.5, ms), "ms"}
	m["cluster.step.calls"] = metric{calls("cluster.step"), "count"}
	m["cluster.step.ms_p50"] = metric{q("cluster.step", 0.5, ms), "ms"}
	m["cluster.step.ms_p90"] = metric{q("cluster.step", 0.9, ms), "ms"}
	m["cluster.advance.self_ms"] = metric{selfMs("cluster.step"), "ms"}
	m["cluster.divide.calls"] = metric{calls("cluster.divide"), "count"}
	m["cluster.divide.us_p50"] = metric{q("cluster.divide", 0.5, us), "us"}
	m["cluster.divide.self_ms"] = metric{selfMs("cluster.divide"), "ms"}

	for _, g := range suiteGenerators {
		name := "artifact." + g.id
		var total float64
		if r := rs[name]; r != nil {
			total = float64(r.TotalNs) / ms
		}
		m[name+".ms"] = metric{total, "ms"}
	}
	return m
}

// probeMetrics runs the per-event probes, iters calls per batch.
func probeMetrics(m map[string]metric, iters int) error {
	v, err := probeSpanConsume(iters)
	if err != nil {
		return err
	}
	m["probe.workload.span_consume.ns"] = metric{v, "ns"}
	if v, err = probeObserveControl(iters); err != nil {
		return err
	}
	m["probe.rapl.observe_control.ns"] = metric{v, "ns"}
	if v, err = probeProgressReport(iters); err != nil {
		return err
	}
	m["probe.progress.report.ns"] = metric{v, "ns"}
	ck, err := probeCheckpoint(max(iters/500, 2))
	if err != nil {
		return err
	}
	m["probe.engine.checkpoint.us"] = metric{ck.checkpointUs, "us"}
	m["probe.engine.resume.us"] = metric{ck.resumeUs, "us"}
	m["probe.engine.checkpoint.bytes"] = metric{float64(ck.bytes), "bytes"}
	return nil
}

// peakRSSMB returns the process's peak resident set in MiB, from VmHWM.
// getrusage would also count the shell that exec'd the driver.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// report prints the metric lines and, last, the JSON result. A run is
// correct when no op failed.
func report(w io.Writer, d *driver, metrics map[string]metric) error {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %v %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Fprintf(w, "ops_attempted %d count\n", d.attempted)
	fmt.Fprintf(w, "ops_failed %d count\n", d.failed)
	fmt.Fprintf(w, "digest %s sha256\n", d.digest)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{d.failed == 0, d.attempted, d.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}
