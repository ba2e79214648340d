// Command benchreport converts `go test -bench` output into the
// repository's tracked benchmark baseline format (BENCH_<date>.json).
//
// Usage:
//
//	go test -bench=. -benchmem . | benchreport -o BENCH_$(date +%F).json
//	benchreport -echo -before BENCH_old.json -o BENCH_new.json bench.out
//
// It parses standard testing.B result lines — including custom metrics
// such as the engine's virtual-s/s — plus the trailing `ok <pkg> <secs>`
// line, which it records as the suite wall time. Repeated lines for one
// benchmark (`go test -count=N`) collapse to the fastest sample, and on a
// host with more than one CPU, Serial/Parallel benchmark pairs gain a
// derived parallel_speedup metric. With -before, a prior
// report is embedded under "before" so a single file carries the
// before/after pair for a PR. With -echo, input lines are copied to
// stdout so the tool can sit at the end of a pipe without hiding the
// benchmark output.
//
// Diff mode compares two baselines per benchmark and per metric:
//
//	benchreport -diff old.json new.json
//	benchreport -diff new.json          # old = new's embedded "before"
//
// It exits non-zero when any benchmark's ns/op regressed by more than
// -regress percent (default 10), making it a CI gate for the tracked
// perf trajectory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// Benchmark is one parsed testing.B result line.
type Benchmark struct {
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Metrics maps a unit (ns/op, B/op, allocs/op, virtual-s/s, ...) to
	// its measured value.
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the persisted baseline.
type Report struct {
	Schema     string `json:"schema"`
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPU is the machine's physical parallelism budget, distinct from
	// GOMAXPROCS (which a runner may pin). On a 1-CPU host no
	// parallel_speedup is derived: its ~1.0 would be noise, not a result.
	NumCPU       int         `json:"num_cpu,omitempty"`
	SuiteSeconds float64     `json:"suite_seconds,omitempty"`
	Benchmarks   []Benchmark `json:"benchmarks"`
	// Notes carries free-form context (host caveats, what changed).
	Notes []string `json:"notes,omitempty"`
	// Before optionally embeds the previous baseline for PR-over-PR
	// comparison.
	Before *Report `json:"before,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchreport: ")

	out := flag.String("o", "", "write the JSON report here (default stdout)")
	before := flag.String("before", "", "embed this prior report under \"before\"")
	echo := flag.Bool("echo", false, "copy input lines to stdout while parsing")
	note := flag.String("note", "", "free-form note recorded in the report")
	diff := flag.Bool("diff", false, "compare two baselines (or one against its embedded \"before\") instead of parsing bench output")
	regress := flag.Float64("regress", 10, "with -diff, fail when any ns/op regresses by more than this percent")
	preferEmbedded := flag.Bool("prefer-embedded", false, "with -diff and two files, diff the newer file against its own embedded \"before\" when it has one (a same-host pair) instead of the older file")
	flag.Parse()

	if *diff {
		if err := runDiff(flag.Args(), *regress, *preferEmbedded, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	var in io.Reader = os.Stdin
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		log.Fatal("at most one input file")
	}

	rep := &Report{
		Schema:     "progresscap-bench/v1",
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if *note != "" {
		rep.Notes = append(rep.Notes, *note)
	}
	if *before != "" {
		data, err := os.ReadFile(*before)
		if err != nil {
			log.Fatal(err)
		}
		var prev Report
		if err := json.Unmarshal(data, &prev); err != nil {
			log.Fatalf("parsing %s: %v", *before, err)
		}
		prev.Before = nil // keep the chain one level deep
		rep.Before = &prev
	}

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if *echo {
			fmt.Println(line)
		}
		if b, ok := parseBenchLine(line); ok {
			rep.addBenchmark(b)
			continue
		}
		if secs, ok := parseOKLine(line); ok {
			rep.SuiteSeconds = secs
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		log.Fatal("no benchmark result lines found in input")
	}
	addDerivedMetrics(rep)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	if *echo {
		fmt.Fprintf(os.Stderr, "benchreport: wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
	}
}

// parseBenchLine parses one testing.B result line:
//
//	BenchmarkEngineTicks-8   20   56663043 ns/op   75338 B/op   292 allocs/op   88.34 virtual-s/s
//
// i.e. name, iteration count, then (value, unit) pairs.
func parseBenchLine(line string) (Benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Benchmark{}, false
	}
	fields := strings.Fields(line)
	// Name, iterations, and at least one value+unit pair.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix the harness appends.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = val
	}
	return b, true
}

// addBenchmark records one parsed result line. Repeated lines for the
// same benchmark (a `go test -count=N` run) collapse to the fastest
// sample by ns/op — on shared-CPU hosts a single capture carries
// ±10% scheduling noise, and the minimum is the standard noise-robust
// estimate of a benchmark's true cost.
func (rep *Report) addBenchmark(b Benchmark) {
	for i, prev := range rep.Benchmarks {
		if prev.Name != b.Name {
			continue
		}
		if pn, ok := prev.Metrics["ns/op"]; ok {
			if bn, ok2 := b.Metrics["ns/op"]; ok2 && bn < pn {
				rep.Benchmarks[i] = b
			}
		}
		return
	}
	rep.Benchmarks = append(rep.Benchmarks, b)
}

// addDerivedMetrics computes cross-benchmark metrics the raw testing.B
// lines cannot express. For every Serial/Parallel benchmark pair
// (BenchmarkXSerial / BenchmarkXParallel), the Parallel entry gains a
// parallel_speedup metric — serial ns/op over parallel ns/op — so the
// sharding win is tracked as a first-class number in the baseline,
// unless the report was taken on one CPU, where there is no win to
// measure. A
// Scratch/Forked pair gains fork_speedup on the Forked entry the same
// way, and any benchmark reporting fork_hits/fork_runs custom metrics
// gains fork_hit_rate, tracking checkpoint-pool effectiveness.
func addDerivedMetrics(rep *Report) {
	serial := map[string]float64{}
	scratch := map[string]float64{}
	for _, b := range rep.Benchmarks {
		if base, ok := strings.CutSuffix(b.Name, "Serial"); ok && rep.NumCPU != 1 {
			if ns := b.Metrics["ns/op"]; ns > 0 {
				serial[base] = ns
			}
		}
		if base, ok := strings.CutSuffix(b.Name, "Scratch"); ok {
			if ns := b.Metrics["ns/op"]; ns > 0 {
				scratch[base] = ns
			}
		}
	}
	for _, b := range rep.Benchmarks {
		if base, ok := strings.CutSuffix(b.Name, "Parallel"); ok {
			if sns, ok := serial[base]; ok {
				if pns := b.Metrics["ns/op"]; pns > 0 {
					b.Metrics["parallel_speedup"] = sns / pns
				}
			}
		}
		if base, ok := strings.CutSuffix(b.Name, "Forked"); ok {
			if sns, ok := scratch[base]; ok {
				if fns := b.Metrics["ns/op"]; fns > 0 {
					b.Metrics["fork_speedup"] = sns / fns
				}
			}
		}
		if runs := b.Metrics["fork_runs"]; runs > 0 {
			b.Metrics["fork_hit_rate"] = b.Metrics["fork_hits"] / runs
		}
	}
}

// parseOKLine extracts the elapsed seconds from a `ok <pkg> <secs>s`
// test-harness summary line.
func parseOKLine(line string) (float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || fields[0] != "ok" || !strings.HasSuffix(fields[2], "s") {
		return 0, false
	}
	secs, err := strconv.ParseFloat(strings.TrimSuffix(fields[2], "s"), 64)
	if err != nil {
		return 0, false
	}
	return secs, true
}

// loadReport reads and validates one baseline file.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks recorded", path)
	}
	return &rep, nil
}

// lowerIsBetter reports whether a metric improves by shrinking. Rates
// (anything per second, like the engine's virtual-s/s) grow when things
// get faster, as do derived ratios like parallel_speedup, fork_speedup,
// and fork_hit_rate; costs (ns/op, B/op, allocs/op) shrink.
func lowerIsBetter(unit string) bool {
	switch unit {
	case "parallel_speedup", "fork_speedup", "fork_hit_rate", "fork_hits", "fork_runs":
		return false
	}
	return !strings.HasSuffix(unit, "/s")
}

// runDiff compares old vs new per benchmark and per metric, prints the
// delta table to w, and returns an error when any ns/op regression
// exceeds regressPct. With preferEmbedded, a new file carrying an
// embedded "before" is diffed against that instead of the older file:
// the embedded pair was measured on one host in one sitting, so it
// isolates the code change from day-to-day host-speed drift that a
// cross-date file pair would misreport as a regression.
func runDiff(args []string, regressPct float64, preferEmbedded bool, w io.Writer) error {
	var oldRep, newRep *Report
	var oldName, newName string
	switch len(args) {
	case 1:
		rep, err := loadReport(args[0])
		if err != nil {
			return err
		}
		if rep.Before == nil {
			return fmt.Errorf("%s has no embedded \"before\" to diff against", args[0])
		}
		oldRep, newRep = rep.Before, rep
		oldName, newName = args[0]+"#before", args[0]
	case 2:
		var err error
		if oldRep, err = loadReport(args[0]); err != nil {
			return err
		}
		if newRep, err = loadReport(args[1]); err != nil {
			return err
		}
		oldName, newName = args[0], args[1]
		if preferEmbedded && newRep.Before != nil {
			oldRep, oldName = newRep.Before, args[1]+"#before"
		}
	default:
		return fmt.Errorf("-diff needs one or two baseline files, got %d", len(args))
	}

	fmt.Fprintf(w, "benchmark diff: %s (%s) -> %s (%s)\n", oldName, oldRep.Date, newName, newRep.Date)
	oldBy := map[string]Benchmark{}
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Name] = b
	}

	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tmetric\told\tnew\tdelta")
	var regressions []string
	matched := 0
	newBy := map[string]bool{}
	for _, nb := range newRep.Benchmarks {
		newBy[nb.Name] = true
	}
	for _, nb := range newRep.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t(new)\t-\t-\t-\n", nb.Name)
			continue
		}
		matched++
		units := make([]string, 0, len(nb.Metrics))
		for u := range nb.Metrics {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			nv := nb.Metrics[u]
			ov, ok := ob.Metrics[u]
			if !ok {
				continue
			}
			var pct float64
			if ov != 0 {
				pct = (nv - ov) / ov * 100
			}
			marker := ""
			if u == "ns/op" && ov > 0 && pct > regressPct {
				marker = "  << REGRESSION"
				regressions = append(regressions,
					fmt.Sprintf("%s ns/op %+.1f%% (%.0f -> %.0f, limit +%.0f%%)", nb.Name, pct, ov, nv, regressPct))
			} else if marker == "" {
				improved := pct < 0
				if !lowerIsBetter(u) {
					improved = pct > 0
				}
				if improved && (pct > 5 || pct < -5) {
					marker = "  (improved)"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%g\t%g\t%+.1f%%%s\n", nb.Name, u, ov, nv, pct, marker)
		}
	}
	// One-sided benchmarks are informational, never failures: a renamed
	// or retired benchmark should read as "gone" in the table, not
	// silently vanish from the comparison.
	for _, ob := range oldRep.Benchmarks {
		if !newBy[ob.Name] {
			fmt.Fprintf(tw, "%s\t(gone)\t-\t-\t-\n", ob.Name)
		}
	}
	tw.Flush()
	if matched == 0 {
		return fmt.Errorf("no benchmark names in common between %s and %s", oldName, newName)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d ns/op regression(s) beyond %.0f%%:\n  %s",
			len(regressions), regressPct, strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(w, "%d benchmarks compared, no ns/op regression beyond %.0f%%\n", matched, regressPct)
	return nil
}
