package engine

import (
	"testing"
	"time"

	"progresscap/internal/progress"
	"progresscap/internal/simtime"
	"progresscap/internal/workload"
)

// TestProgressOverflowDrops drives a job's progress subscription past
// its 1,024-report depth: a 0.4 ms iteration publishes 2,500 reports
// inside the first 1 s window, so that window aggregates exactly the
// 1,024 the queue holds and the bus counts the other 1,476 as drops,
// both in total and against the job's topic. The run ends 0.2 s into
// the second window, whose 500 reports fit.
func TestProgressOverflowDrops(t *testing.T) {
	w := &workload.Workload{
		Name:   "burst",
		Metric: "iterations/s",
		Ranks:  1,
		Phases: []workload.Phase{{
			Name:            "burst",
			Iterations:      3000,
			ProgressPerIter: 1,
			Gen: func(rank, iter int, shared float64, rng *simtime.RNG) workload.Segment {
				return workload.Segment{SleepSeconds: 0.0004, WorkUnits: 1}
			},
		}},
	}
	res := mustRun(t, w, nil, 5*time.Second)
	if !res.Completed {
		t.Fatal("burst workload did not complete")
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples")
	}
	if got := res.Samples[0].Reports; got != 1024 {
		t.Fatalf("first window aggregated %d reports, want the queue depth 1024", got)
	}
	const wantDropped = 2500 - 1024
	if res.Dropped != wantDropped {
		t.Fatalf("Dropped = %d, want %d", res.Dropped, wantDropped)
	}
	if got := res.DropsByTopic[progress.Topic("burst")]; got != wantDropped {
		t.Fatalf("DropsByTopic = %v, want %d on %q", res.DropsByTopic, wantDropped, progress.Topic("burst"))
	}
}
