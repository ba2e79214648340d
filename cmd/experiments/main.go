// Command experiments regenerates the paper's tables and figures on the
// simulated node and prints them as text.
//
// Usage:
//
//	experiments [-run table1,table6,fig4] [-seconds 12] [-reps 3] [-seed 1] [-parallel N]
//
// With no -run flag every artifact is produced in paper order. All
// artifacts share one memoizing scheduler, so baselines reused across
// tables and figures simulate once; -parallel bounds how many
// simulations run concurrently (default GOMAXPROCS). Output is
// byte-identical at any -parallel setting. A scheduler summary line
// (runs executed, cache hits, peak workers, wall time) goes to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"progresscap/internal/experiments"
	"progresscap/internal/soak"
	"progresscap/internal/spec"
)

// replaySpec runs one scenario spec file — typically a minimal repro
// emitted by cmd/soak — under the same oracle battery the soak uses,
// so a shrunk failure re-fails here deterministically. The deliberate
// bug is re-armed from the environment (see soak.BugEnv) when the repro
// was produced under it.
func replaySpec(runner *experiments.Runner, path string) int {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 2
	}
	sc, err := spec.Decode(b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", path, err)
		return 2
	}
	rep, err := soak.New(runner).RunScenario(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", path, err)
		return 2
	}
	if rep.Failed() {
		fmt.Printf("spec %s (%s): FAIL\n", sc.Name, rep.Hash)
		for _, v := range rep.Violations {
			fmt.Printf("  %s\n", v)
		}
		return 1
	}
	fmt.Printf("spec %s (%s): ok\n", sc.Name, rep.Hash)
	return 0
}

func main() {
	ids := make([]string, len(experiments.Artifacts))
	for i, g := range experiments.Artifacts {
		ids[i] = g.ID
	}
	runList := flag.String("run", "", "comma-separated artifact ids ("+strings.Join(ids, ",")+"); empty = all")
	seconds := flag.Float64("seconds", 12, "virtual seconds per measurement run")
	reps := flag.Int("reps", 3, "repetitions per power cap (Figure 4)")
	seed := flag.Uint64("seed", 1, "base RNG seed")
	parallel := flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS); results are identical at any setting")
	nodeWorkers := flag.Int("nodeworkers", 0, "max concurrent node shards per cluster epoch (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
	invariants := flag.Bool("invariants", false, "arm the engine-level safety invariant checker on every run; violations fail the artifact")
	csvDir := flag.String("csv", "", "also write each artifact's tables as CSV files into this directory")
	svgDir := flag.String("svg", "", "also write each artifact's figures as SVG files into this directory")
	fixedTick := flag.Bool("fixedtick", false, "run every engine in fixed-tick oracle mode instead of event-driven macro-stepping (validation; output is identical)")
	backend := flag.String("backend", "msr", "power-actuation backend for capped runs: msr (register daemon) or sysfs (hardened actuator over the emulated powercap tree)")
	forking := flag.Bool("forking", false, "fork sweep cells from pooled engine checkpoints where they share a simulation prefix; results are identical at any setting")
	specFile := flag.String("spec", "", "replay one scenario spec JSON (e.g. a soak repro) under the full oracle battery instead of generating artifacts; exits 1 on violation")
	cacheDir := flag.String("cachedir", "", "back the run memo table with a disk cache in this directory, shared across invocations")
	cachePrune := flag.Duration("cacheprune", 0, "before running, evict -cachedir entries older than this age (e.g. 168h); 0 = never")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the suite here")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken after the suite) here")
	flag.Parse()

	var cpuProfileFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: creating %s: %v\n", *cpuProfile, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: starting CPU profile: %v\n", err)
			os.Exit(2)
		}
		cpuProfileFile = f
	}

	for _, dir := range []string{*csvDir, *svgDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: creating %s: %v\n", dir, err)
				os.Exit(2)
			}
		}
	}

	// One runner for the whole invocation: runs shared across artifacts
	// (e.g. the Table 6 / Figure 4 characterizations) simulate once.
	runner := experiments.NewRunner(*parallel)
	if *cacheDir != "" {
		if *cachePrune > 0 {
			removed, freed, err := experiments.PruneDiskCache(*cacheDir, *cachePrune, time.Now())
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(2)
			}
			if removed > 0 {
				fmt.Fprintf(os.Stderr, "experiments: cache prune: %d entries older than %s removed, %d bytes freed\n", removed, *cachePrune, freed)
			}
		}
		if err := runner.EnableDiskCache(*cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
	}
	if *specFile != "" {
		os.Exit(replaySpec(runner, *specFile))
	}
	opts := experiments.Options{
		RunSeconds:      *seconds,
		Reps:            *reps,
		Seed:            *seed,
		CheckInvariants: *invariants,
		Parallel:        *parallel,
		FixedTick:       *fixedTick,
		NodeWorkers:     *nodeWorkers,
		Backend:         *backend,
		Forking:         *forking,
	}.WithRunner(runner)
	start := time.Now()

	want := map[string]bool{}
	if *runList != "" {
		for _, id := range strings.Split(*runList, ",") {
			want[strings.TrimSpace(id)] = true
		}
		for id := range want {
			if !slices.Contains(ids, id) {
				fmt.Fprintf(os.Stderr, "experiments: unknown artifact %q\n", id)
				os.Exit(2)
			}
		}
	}

	exit := 0
	for _, g := range experiments.Artifacts {
		if len(want) > 0 && !want[g.ID] {
			continue
		}
		art, err := g.Fn(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", g.ID, err)
			exit = 1
			continue
		}
		fmt.Println(art.Render())
		if *csvDir != "" {
			for i, tbl := range art.Tables {
				name := fmt.Sprintf("%s_%d.csv", art.ID, i)
				if err := os.WriteFile(filepath.Join(*csvDir, name), []byte(tbl.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", name, err)
					exit = 1
				}
			}
		}
		if *svgDir != "" {
			for _, fig := range art.Figures {
				name := fig.Name + ".svg"
				if err := os.WriteFile(filepath.Join(*svgDir, name), []byte(fig.Plot.SVG()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", name, err)
					exit = 1
				}
			}
		}
	}
	st := runner.Stats()
	shardLine := ""
	if st.Shards.Epochs > 0 {
		shardLine = fmt.Sprintf(", %d cluster epochs over %d shards (peak %d node workers, barrier wait %s)",
			st.Shards.Epochs, st.Shards.Shards, st.Shards.PeakWorkers, st.Shards.BarrierWait.Round(time.Microsecond))
	}
	actLine := ""
	if a := st.Actuation; a.Attempts > 0 {
		actLine = fmt.Sprintf(", actuation %d attempts (%d retries, %d failovers, %d parks)",
			a.Attempts, a.Retries, a.Failovers, a.Parks)
	}
	forkLine := ""
	if st.ForkRuns > 0 {
		forkLine = fmt.Sprintf(", %d/%d runs forked from shared prefixes (%d virtual s skipped)",
			st.ForkHits, st.ForkRuns, st.ForkSkippedSec)
	}
	fmt.Fprintf(os.Stderr, "experiments: %d runs executed, %d served from cache (%d memo, %d disk), peak %d/%d workers%s%s%s, wall %s\n",
		st.Executed, st.CacheHits+st.DiskHits, st.CacheHits, st.DiskHits, st.PeakWorkers, runner.Parallel(), shardLine, actLine, forkLine, time.Since(start).Round(time.Millisecond))
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: creating %s: %v\n", *memProfile, err)
			exit = 2
		} else {
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: writing heap profile: %v\n", err)
				exit = 2
			}
			f.Close()
		}
	}
	if cpuProfileFile != nil {
		// os.Exit below would skip deferred calls; flush explicitly.
		pprof.StopCPUProfile()
		cpuProfileFile.Close()
	}
	os.Exit(exit)
}
