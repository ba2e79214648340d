package workload

import (
	"math"
	"testing"
	"time"

	"progresscap/internal/counters"
	"progresscap/internal/simtime"
)

func TestRankLoadsBalanced(t *testing.T) {
	w := simpleWorkload(4, 5, Segment{ComputeCycles: 1e7, Instructions: 1e7})
	e, _ := NewExec(w, counters.NewBank(4), 1)
	runToCompletion(t, e, 100*time.Microsecond, 1e9, 1)
	loads := e.RankLoads()
	if len(loads) != 4 {
		t.Fatalf("loads = %d", len(loads))
	}
	for r, l := range loads {
		if math.Abs(l.WorkSeconds-0.05) > 0.002 { // 5 × 10 ms
			t.Fatalf("rank %d work = %v, want ~0.05", r, l.WorkSeconds)
		}
		// Balanced: spin bounded by tick granularity (one tick per iter).
		if l.SpinSeconds > 5*0.0002 {
			t.Fatalf("rank %d spin = %v in a balanced run", r, l.SpinSeconds)
		}
	}
	if idx := ImbalanceIndex(loads); idx > 0.02 {
		t.Fatalf("balanced imbalance index = %v", idx)
	}
}

func TestRankLoadsImbalanced(t *testing.T) {
	// Rank 1 works 10× longer than rank 0.
	gen := func(rank, iter int, shared float64, rng *simtime.RNG) Segment {
		c := 1e7
		if rank == 1 {
			c = 1e8
		}
		return Segment{ComputeCycles: c, Instructions: c}
	}
	w := &Workload{Name: "imb", Metric: "it/s", Ranks: 2,
		Phases: []Phase{{Name: "p", Iterations: 3, ProgressPerIter: 1, Gen: gen}}}
	e, _ := NewExec(w, counters.NewBank(2), 1)
	runToCompletion(t, e, 100*time.Microsecond, 1e9, 1)
	loads := e.RankLoads()
	// Rank 0 spins ~90 ms per 100 ms iteration.
	if loads[0].SpinSeconds < 0.25 {
		t.Fatalf("rank 0 spin = %v, want ~0.27", loads[0].SpinSeconds)
	}
	if loads[1].SpinSeconds > 0.01 {
		t.Fatalf("rank 1 (critical path) spin = %v", loads[1].SpinSeconds)
	}
	idx := ImbalanceIndex(loads)
	if idx < 0.3 || idx > 0.6 {
		t.Fatalf("imbalance index = %v, want ~0.45", idx)
	}
}

func TestRankLoadsSleepAccounted(t *testing.T) {
	w := simpleWorkload(1, 2, Segment{SleepSeconds: 0.1})
	e, _ := NewExec(w, counters.NewBank(1), 1)
	runToCompletion(t, e, time.Millisecond, 1e9, 1)
	l := e.RankLoads()[0]
	if math.Abs(l.SleepSeconds-0.2) > 0.005 {
		t.Fatalf("sleep = %v, want ~0.2", l.SleepSeconds)
	}
	if l.WorkSeconds > 0.001 {
		t.Fatalf("work = %v for a sleep-only segment", l.WorkSeconds)
	}
}

func TestImbalanceIndexEdgeCases(t *testing.T) {
	if ImbalanceIndex(nil) != 0 {
		t.Fatal("empty loads index != 0")
	}
	if ImbalanceIndex([]RankLoad{{}}) != 0 {
		t.Fatal("zero-busy loads index != 0")
	}
	half := []RankLoad{{WorkSeconds: 1, SpinSeconds: 1}}
	if got := ImbalanceIndex(half); got != 0.5 {
		t.Fatalf("index = %v, want 0.5", got)
	}
}

func TestRankLoadBusy(t *testing.T) {
	l := RankLoad{WorkSeconds: 2, SpinSeconds: 1, SleepSeconds: 10}
	if l.Busy() != 3 {
		t.Fatalf("Busy = %v", l.Busy())
	}
}
