package experiments

import (
	"fmt"
	"sync"
	"testing"

	"progresscap/internal/apps"
	"progresscap/internal/policy"
	"progresscap/internal/workload"
)

// mkSampleSpec is a cheap spec for scheduler tests: the Listing-1
// imbalance sample at a reduced scale.
func mkSampleSpec(seed uint64, capW float64) RunSpec {
	mk := func() *workload.Workload { return apps.ImbalanceSample(8, 3, false, 1.0) }
	var scheme policy.Scheme
	if capW > 0 {
		scheme = policy.Constant{Watts: capW}
	}
	return RunSpec{Make: mk, Scheme: scheme, Seed: seed, MaxSeconds: 10}
}

func TestRunnerMemoizesIdenticalRuns(t *testing.T) {
	r := NewRunner(2)
	a, err := r.Do(mkSampleSpec(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Do(mkSampleSpec(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical specs did not share one memoized result")
	}
	if st := r.Stats(); st.Executed != 1 || st.CacheHits != 1 {
		t.Fatalf("stats after duplicate Do: %+v", st)
	}
	// A different seed is a different run.
	if _, err := r.Do(mkSampleSpec(2, 0)); err != nil {
		t.Fatal(err)
	}
	// A different scheme is a different run even at the same seed.
	if _, err := r.Do(mkSampleSpec(1, 90)); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Executed != 3 || st.CacheHits != 1 {
		t.Fatalf("stats after distinct specs: %+v", st)
	}
}

func TestRunnerPrefetchAccounting(t *testing.T) {
	r := NewRunner(2)
	r.Prefetch(mkSampleSpec(1, 0))
	r.Prefetch(mkSampleSpec(1, 0)) // duplicate prefetch is a no-op
	if _, err := r.Do(mkSampleSpec(1, 0)); err != nil {
		t.Fatal(err)
	}
	// Collecting one's own prefetch is plumbing, not a cache hit.
	if st := r.Stats(); st.Executed != 1 || st.CacheHits != 0 {
		t.Fatalf("stats after prefetch+collect: %+v", st)
	}
	if _, err := r.Do(mkSampleSpec(1, 0)); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Executed != 1 || st.CacheHits != 1 {
		t.Fatalf("stats after re-collect: %+v", st)
	}
}

// TestRunnerParallelDeterminism drives one scheduler hard from many
// goroutines and asserts every run's result matches a serial rerun of
// the same spec. Cheap enough to run under -race, where it doubles as
// the scheduler's data-race exercise.
func TestRunnerParallelDeterminism(t *testing.T) {
	specs := []RunSpec{
		mkSampleSpec(1, 0),
		mkSampleSpec(1, 95),
		mkSampleSpec(2, 0),
		mkSampleSpec(3, 80),
	}
	par := NewRunner(4)
	var wg sync.WaitGroup
	got := make([][]*runResult, 3)
	for round := range got {
		got[round] = make([]*runResult, len(specs))
		for i, spec := range specs {
			wg.Add(1)
			go func(round, i int, spec RunSpec) {
				defer wg.Done()
				res, err := par.Do(spec)
				got[round][i] = &runResult{err: err}
				if err == nil {
					got[round][i].sig = fmt.Sprintf("%v/%v/%v", res.Elapsed, res.WorkUnits, res.EnergyJ)
				}
			}(round, i, spec)
		}
	}
	wg.Wait()

	serial := NewRunner(1)
	for i, spec := range specs {
		want, err := serial.Do(spec)
		if err != nil {
			t.Fatal(err)
		}
		wantSig := fmt.Sprintf("%v/%v/%v", want.Elapsed, want.WorkUnits, want.EnergyJ)
		for round := range got {
			g := got[round][i]
			if g.err != nil {
				t.Fatalf("round %d spec %d: %v", round, i, g.err)
			}
			if g.sig != wantSig {
				t.Fatalf("round %d spec %d: parallel %q != serial %q", round, i, g.sig, wantSig)
			}
		}
	}
	if st := par.Stats(); st.Executed != uint64(len(specs)) {
		t.Fatalf("parallel runner executed %d runs, want %d (stats %+v)", st.Executed, len(specs), st)
	}
}

type runResult struct {
	sig string
	err error
}

func TestOptionsRejectNegativeScale(t *testing.T) {
	for _, opts := range []Options{
		{RunSeconds: -1},
		{Reps: -2},
	} {
		if _, err := Table1(opts); err == nil {
			t.Errorf("Table1(%+v) accepted negative scale", opts)
		}
		if _, err := All(opts); err == nil {
			t.Errorf("All(%+v) accepted negative scale", opts)
		}
	}
}

func TestOptionsSentinelDefaults(t *testing.T) {
	var o Options
	if err := o.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	d := DefaultOptions()
	if o.RunSeconds != d.RunSeconds || o.Reps != d.Reps || o.Seed != d.Seed {
		t.Fatalf("zero-value fill %+v != DefaultOptions %+v", o, d)
	}
	if o.Parallel < 1 || o.runner == nil {
		t.Fatalf("fillDefaults left scheduler unset: %+v", o)
	}
}

// TestAllParallelDeterminism is the scheduler's non-negotiable: every
// registered artifact must render byte-identical at any parallelism.
func TestAllParallelDeterminism(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("full-suite determinism sweep is expensive")
	}
	render := func(parallel int) []*Artifact {
		opts := quickOpts()
		opts.Parallel = parallel
		// The shard axis rides the same sweep: the serial pass advances
		// cluster nodes one at a time, the wide pass shards them 8-wide.
		opts.NodeWorkers = parallel
		// And the checkpoint/fork axis: the serial pass simulates every
		// cell from scratch, the wide pass forks shared prefixes from the
		// snapshot pool. Byte-identical renders pin forking as a pure
		// execution knob.
		opts.Forking = parallel > 1
		arts, err := All(opts)
		if err != nil {
			t.Fatalf("All(parallel=%d): %v", parallel, err)
		}
		return arts
	}
	assertSameRenders(t, "-parallel 1", render(1), "-parallel 8", render(8))
}
