// Command soak generates randomized scenario specs (internal/spec) and
// executes each under the full invariant-oracle battery (internal/soak).
// Any failing scenario is automatically shrunk to a locally minimal
// reproduction and written to the output directory; replay it with
//
//	go run ./cmd/experiments -spec out/soak/<name>.json
//
// Usage:
//
//	soak [-seeds 25] [-seed 0] [-parallel N] [-cachedir DIR] [-out out/soak]
//
// With -seed set, exactly that one seed runs; otherwise seeds 1..-seeds
// run, cluster scenarios and single-node scenarios mixed by the
// generator. Single-node scenarios share one memoizing runner (and, with
// -cachedir, a disk cache), so repeated invocations skip already-proven
// specs. Setting the SOAK_BUG environment variable to a wattage arms a
// deliberate budget-accounting bug — the self-test that proves the soak
// finds and shrinks real violations end to end.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"progresscap/internal/experiments"
	"progresscap/internal/soak"
	"progresscap/internal/spec"
)

// forceBackend overrides the actuation backend on single-node scenarios
// when the -backend flag is set. Forcing msr drops any powercap fault
// plan (those faults only exist on the sysfs path); forcing sysfs is
// skipped for pinned-DVFS scenarios, which carry no cap daemon. Cluster
// scenarios pass through untouched.
func forceBackend(sc spec.Scenario, backend string) spec.Scenario {
	if backend == "" || sc.Cluster() {
		return sc
	}
	switch backend {
	case "msr":
		sc.Operating.Backend = ""
		sc.Faults.Powercap = nil
	case "sysfs":
		if sc.Operating.DVFSMHz == 0 {
			sc.Operating.Backend = "sysfs"
		}
	}
	return sc
}

func main() {
	seeds := flag.Int("seeds", 25, "number of generated scenarios (seeds 1..N)")
	oneSeed := flag.Uint64("seed", 0, "run exactly this one generator seed (overrides -seeds)")
	parallel := flag.Int("parallel", 0, "max concurrent scenarios (0 = GOMAXPROCS)")
	nodeWorkers := flag.Int("nodeworkers", 0, "max concurrent node shards per cluster epoch (0 = GOMAXPROCS, 1 = serial); oracle outcomes are identical at any setting")
	cacheDir := flag.String("cachedir", "", "disk result cache directory shared with cmd/experiments")
	cachePrune := flag.Duration("cacheprune", 0, "before running, evict -cachedir entries older than this age (e.g. 168h); 0 = never")
	outDir := flag.String("out", filepath.Join("out", "soak"), "directory for shrunk minimal repros")
	shrinkBudget := flag.Int("shrinkbudget", soak.DefaultShrinkBudget, "max scenario executions per shrink")
	backend := flag.String("backend", "", "force the actuation backend on every generated single-node scenario: msr or sysfs (empty = generator's own mix)")
	flag.Parse()

	switch *backend {
	case "", "msr", "sysfs":
	default:
		fmt.Fprintf(os.Stderr, "soak: unknown backend %q (want msr or sysfs)\n", *backend)
		os.Exit(2)
	}

	runner := experiments.NewRunner(*parallel)
	if *cacheDir != "" {
		if *cachePrune > 0 {
			removed, freed, err := experiments.PruneDiskCache(*cacheDir, *cachePrune, time.Now())
			if err != nil {
				fmt.Fprintf(os.Stderr, "soak: %v\n", err)
				os.Exit(2)
			}
			if removed > 0 {
				fmt.Fprintf(os.Stderr, "soak: cache prune: %d entries older than %s removed, %d bytes freed\n", removed, *cachePrune, freed)
			}
		}
		if err := runner.EnableDiskCache(*cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "soak: %v\n", err)
			os.Exit(2)
		}
	}
	h := soak.New(runner)
	h.NodeWorkers = *nodeWorkers
	if h.BugW != 0 {
		fmt.Fprintf(os.Stderr, "soak: deliberate budget bug armed (+%g W)\n", h.BugW)
	}

	var list []uint64
	if *oneSeed != 0 {
		list = []uint64{*oneSeed}
	} else {
		for s := uint64(1); s <= uint64(*seeds); s++ {
			list = append(list, s)
		}
	}

	workers := *parallel
	if workers <= 0 {
		workers = 4
	}
	type outcome struct {
		sc  spec.Scenario
		rep *soak.Report
		err error
	}
	results := make([]outcome, len(list))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for i, seed := range list {
		wg.Add(1)
		go func(i int, seed uint64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sc := spec.Generate(seed)
			sc = forceBackend(sc, *backend)
			rep, err := h.RunScenario(sc)
			results[i] = outcome{sc, rep, err}
		}(i, seed)
	}
	wg.Wait()

	exit := 0
	clusterN, singleN, failures := 0, 0, 0
	for i, seed := range list {
		o := results[i]
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "soak: seed %d: %v\n", seed, o.err)
			exit = 2
			continue
		}
		if o.sc.Cluster() {
			clusterN++
		} else {
			singleN++
		}
		if !o.rep.Failed() {
			continue
		}
		failures++
		exit = 1
		fmt.Printf("seed %d (%s, %s): FAIL\n", seed, o.sc.Name, o.rep.Hash)
		for _, v := range o.rep.Violations {
			fmt.Printf("  %s\n", v)
		}
		// Shrink sequentially: repros should be minimal and deterministic,
		// and failures are the rare path.
		sr, err := h.Shrink(o.sc, o.rep, *shrinkBudget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "soak: shrinking seed %d: %v\n", seed, err)
			exit = 2
			continue
		}
		min := sr.Scenario
		fmt.Printf("  shrunk in %d runs to %d faults, %g s horizon, %d nodes%s\n",
			sr.Runs, min.FaultCount(), min.HorizonSec, min.Fleet.Nodes,
			map[bool]string{true: " (budget exhausted, may not be minimal)"}[sr.Exhausted])
		for _, v := range sr.Report.Violations {
			fmt.Printf("    %s\n", v)
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "soak: %v\n", err)
			exit = 2
			continue
		}
		b, err := min.Encode()
		if err != nil {
			fmt.Fprintf(os.Stderr, "soak: encoding repro for seed %d: %v\n", seed, err)
			exit = 2
			continue
		}
		path := filepath.Join(*outDir, fmt.Sprintf("repro-seed%d.json", seed))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "soak: %v\n", err)
			exit = 2
			continue
		}
		fmt.Printf("  minimal repro: %s (replay: go run ./cmd/experiments -spec %s)\n", path, path)
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
	fmt.Fprintf(os.Stderr, "soak: %d scenarios (%d cluster, %d single), %d failing, %d runs executed, %d served from cache (%d memo, %d disk)%s%s, wall %s\n",
		len(list), clusterN, singleN, failures, st.Executed, st.CacheHits+st.DiskHits, st.CacheHits, st.DiskHits, shardLine, actLine, time.Since(start).Round(time.Millisecond))
	os.Exit(exit)
}
