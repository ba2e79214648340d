package engine

import (
	"math"
	"testing"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/policy"
)

func TestAdvanceFinishEquivalentToRun(t *testing.T) {
	mk := func() *Engine {
		cfg := DefaultConfig()
		e, err := New(cfg, apps.LAMMPS(apps.DefaultRanks, 100))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e1 := mk()
	r1, err := e1.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	e2 := mk()
	for {
		done, err := e2.Advance(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	r2, err := e2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Elapsed != r2.Elapsed || r1.EnergyJ != r2.EnergyJ || len(r1.Samples) != len(r2.Samples) {
		t.Fatalf("Run vs Advance loop diverged: %v/%v, %v/%v, %d/%d",
			r1.Elapsed, r2.Elapsed, r1.EnergyJ, r2.EnergyJ, len(r1.Samples), len(r2.Samples))
	}
}

// TestAdvanceChunksMatchRun pins that an Advance limit never forces a
// workload flush: a capped run advanced in chunks that end between window
// edges must equal the one-shot Run bit for bit. Callers that advance in
// chunks, such as cluster epochs, rely on it.
func TestAdvanceChunksMatchRun(t *testing.T) {
	mk := func() *Engine {
		e, err := New(DefaultConfig(), apps.AMG(apps.DefaultRanks, 20))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetScheme(policy.Constant{Watts: 100}); err != nil {
			t.Fatal(err)
		}
		return e
	}
	const dur = 6 * time.Second
	res, err := mk().Run(dur)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Signature()
	for _, chunk := range []time.Duration{7 * time.Millisecond, 250 * time.Millisecond} {
		e := mk()
		for done := false; !done && e.Clock().Now() < dur; {
			if done, err = e.Advance(min(chunk, dur-e.Clock().Now())); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Signature(); got != want {
			t.Errorf("%v chunks diverge from Run:\n%s", chunk, diffHead(got, want))
		}
	}
}

func TestAdvanceStopsAtBudget(t *testing.T) {
	e, err := New(DefaultConfig(), apps.LAMMPS(apps.DefaultRanks, 100000))
	if err != nil {
		t.Fatal(err)
	}
	done, err := e.Advance(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("huge workload done after 2 s")
	}
	now := e.Clock().Now()
	if now < 2*time.Second || now > 2*time.Second+time.Millisecond {
		t.Fatalf("clock after Advance(2s) = %v", now)
	}
	// Second advance continues from where it stopped.
	if _, err := e.Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	if e.Clock().Now() < 3*time.Second {
		t.Fatalf("clock after second Advance = %v", e.Clock().Now())
	}
}

func TestAdvanceAfterFinishFails(t *testing.T) {
	e, _ := New(DefaultConfig(), apps.ImbalanceSample(4, 1, true, 0.05))
	if _, err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Advance(time.Second); err == nil {
		t.Fatal("Advance after Finish accepted")
	}
	if _, err := e.Finish(); err == nil {
		t.Fatal("second Finish accepted")
	}
}

func TestAdvanceBadDuration(t *testing.T) {
	e, _ := New(DefaultConfig(), apps.ImbalanceSample(4, 1, true, 0.05))
	if _, err := e.Advance(0); err == nil {
		t.Fatal("Advance(0) accepted")
	}
}

func TestMultiWorkloadDisjointProgress(t *testing.T) {
	// Two workloads sharing the node: 12-rank LAMMPS + 12-rank STREAM.
	lammps := apps.LAMMPS(12, 200)
	stream := apps.STREAM(12, 160)
	e, err := NewMulti(DefaultConfig(), lammps, stream)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	if res.Jobs[0].Workload != "lammps" || res.Jobs[1].Workload != "stream" {
		t.Fatalf("job order: %s, %s", res.Jobs[0].Workload, res.Jobs[1].Workload)
	}
	if !res.Completed || !res.Jobs[0].Completed || !res.Jobs[1].Completed {
		t.Fatal("not all workloads completed")
	}
	// Both progress streams are populated and distinct.
	// Iteration duration is per-rank work at a fixed 50 ms, so the rate
	// is rank-count independent (each rank handles a larger share).
	r0, r1 := res.Jobs[0].MeanRate(), res.Jobs[1].MeanRate()
	if r0 < 700000 || r0 > 900000 {
		t.Fatalf("12-rank LAMMPS rate = %v, want ~800k", r0)
	}
	if r1 < 12 || r1 > 20 {
		t.Fatalf("12-rank STREAM rate = %v, want ~16", r1)
	}
	// Primary mirrors job 0.
	if res.MeanRate() != r0 {
		t.Fatalf("primary rate %v != job0 rate %v", res.MeanRate(), r0)
	}
}

func TestMultiWorkloadOversubscriptionRejected(t *testing.T) {
	if _, err := NewMulti(DefaultConfig(), apps.LAMMPS(16, 10), apps.STREAM(16, 10)); err == nil {
		t.Fatal("32 ranks on 24 cores accepted")
	}
	if _, err := NewMulti(DefaultConfig()); err == nil {
		t.Fatal("zero workloads accepted")
	}
}

func TestMultiWorkloadCapAffectsBoth(t *testing.T) {
	run := func(scheme policy.Scheme) (float64, float64) {
		e, err := NewMulti(DefaultConfig(), apps.LAMMPS(12, 400), apps.STREAM(12, 320))
		if err != nil {
			t.Fatal(err)
		}
		if scheme != nil {
			if err := e.SetScheme(scheme); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.Run(time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return res.Jobs[0].MeanRate(), res.Jobs[1].MeanRate()
	}
	l0, s0 := run(nil)
	l1, s1 := run(policy.Constant{Watts: 90})
	if l1 >= l0 || s1 >= s0 {
		t.Fatalf("cap did not slow both workloads: lammps %v→%v, stream %v→%v", l0, l1, s0, s1)
	}
}

func TestMultiWorkloadEarlierFinishLeavesCoresIdle(t *testing.T) {
	// Short STREAM next to long LAMMPS: after STREAM finishes, the node
	// keeps running LAMMPS and total power drops.
	e, err := NewMulti(DefaultConfig(), apps.LAMMPS(12, 400), apps.STREAM(12, 32))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run incomplete")
	}
	// STREAM lasts ~2 s; LAMMPS ~20 s. Power in the last windows must be
	// below the first full window (fewer engaged cores).
	early := res.PowerTrace.At(1).V
	late := res.PowerTrace.At(res.PowerTrace.Len() - 2).V
	if late >= early {
		t.Fatalf("power did not drop after STREAM finished: early %v, late %v", early, late)
	}
	if math.Abs(res.Jobs[1].MeanRate()) == 0 {
		t.Fatal("stream job recorded no progress")
	}
}
