package workload

import (
	"math"
	"testing"
	"time"

	"progresscap/internal/counters"
	"progresscap/internal/simtime"
)

// uniform returns a generator where every rank does the same fixed work.
func uniform(seg Segment) GenFunc {
	return func(rank, iter int, shared float64, rng *simtime.RNG) Segment { return seg }
}

func simpleWorkload(ranks, iters int, seg Segment) *Workload {
	return &Workload{
		Name:   "test",
		Metric: "iters/s",
		Ranks:  ranks,
		Phases: []Phase{{Name: "main", Iterations: iters, ProgressPerIter: 1, Gen: uniform(seg)}},
	}
}

// runToCompletion walks the exec in fixed ticks at a fixed operating
// point, crossing Span boundaries inside ticks, and returns all
// completion events and the total virtual time.
func runToCompletion(t *testing.T, e *Exec, tick time.Duration, effHz, memFactor float64) ([]IterationEvent, time.Duration) {
	t.Helper()
	var events []IterationEvent
	now := time.Duration(0)
	for i := 0; i < 10_000_000 && !e.Done(); i++ {
		now += tick
		if ev, ok := e.ConsumeTo(now, effHz, memFactor); ok {
			events = append(events, ev)
		}
	}
	if !e.Done() {
		t.Fatal("workload did not complete")
	}
	return events, now
}

func TestValidate(t *testing.T) {
	good := simpleWorkload(2, 3, Segment{ComputeCycles: 1e6, Instructions: 1e6})
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Workload{
		{Name: "", Ranks: 1, Phases: []Phase{{Name: "p", Iterations: 1, Gen: uniform(Segment{ComputeCycles: 1})}}},
		{Name: "x", Ranks: 0, Phases: []Phase{{Name: "p", Iterations: 1, Gen: uniform(Segment{ComputeCycles: 1})}}},
		{Name: "x", Ranks: 1},
		{Name: "x", Ranks: 1, Phases: []Phase{{Name: "p", Iterations: 0, Gen: uniform(Segment{ComputeCycles: 1})}}},
		{Name: "x", Ranks: 1, Phases: []Phase{{Name: "p", Iterations: 1}}},
	}
	for i, w := range bad {
		if w.Validate() == nil {
			t.Errorf("bad workload %d validated", i)
		}
	}
}

func TestSegmentValidate(t *testing.T) {
	good := Segment{ComputeCycles: 100, MemSeconds: 0.1, Instructions: 10, BWShare: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Segment{
		{},
		{ComputeCycles: -1},
		{ComputeCycles: 1, BWShare: 2},
		{ComputeCycles: 1, Instructions: -1},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("bad segment %d validated", i)
		}
	}
}

func TestSegmentDurationAt(t *testing.T) {
	s := Segment{ComputeCycles: 2e9, MemSeconds: 0.5, SleepSeconds: 0.25}
	got := s.DurationAt(2e9, 2)
	if math.Abs(got-(0.25+1+1)) > 1e-12 {
		t.Fatalf("DurationAt = %v, want 2.25", got)
	}
}

func TestExecCompletesAllIterations(t *testing.T) {
	// 4 ranks, 5 iterations, 10 ms of compute at 1 GHz.
	w := simpleWorkload(4, 5, Segment{ComputeCycles: 1e7, Instructions: 2e7})
	e, err := NewExec(w, counters.NewBank(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	events, _ := runToCompletion(t, e, time.Millisecond, 1e9, 1)
	if len(events) != 5 {
		t.Fatalf("completions = %d, want 5", len(events))
	}
	for i, ev := range events {
		if ev.Iter != i || ev.Phase != "main" || ev.Progress != 1 {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
}

func TestExecIterationTimingMatchesModel(t *testing.T) {
	// One rank: 50 ms compute at 1 GHz + 50 ms memory → 100 ms/iter.
	w := simpleWorkload(1, 10, Segment{ComputeCycles: 5e7, MemSeconds: 0.05, Instructions: 1e8})
	e, _ := NewExec(w, counters.NewBank(1), 1)
	_, total := runToCompletion(t, e, 100*time.Microsecond, 1e9, 1)
	want := 1.0 // 10 × 100 ms
	if math.Abs(total.Seconds()-want) > 0.01 {
		t.Fatalf("total = %v, want ~%vs", total, want)
	}
}

func TestExecFrequencyScalesComputeOnly(t *testing.T) {
	seg := Segment{ComputeCycles: 6.6e7, MemSeconds: 0.03, Instructions: 1e8}
	w := simpleWorkload(1, 5, seg)

	e1, _ := NewExec(w, counters.NewBank(1), 1)
	_, tFast := runToCompletion(t, e1, 100*time.Microsecond, 3.3e9, 1)

	e2, _ := NewExec(w, counters.NewBank(1), 1)
	_, tSlow := runToCompletion(t, e2, 100*time.Microsecond, 1.65e9, 1)

	// Compute part doubles (20→40 ms), memory part fixed (30 ms).
	ratio := tSlow.Seconds() / tFast.Seconds()
	want := (0.04 + 0.03) / (0.02 + 0.03)
	if math.Abs(ratio-want) > 0.03 {
		t.Fatalf("slowdown = %v, want ~%v", ratio, want)
	}
}

func TestExecMemFactorScalesMemoryOnly(t *testing.T) {
	seg := Segment{ComputeCycles: 3.3e7, MemSeconds: 0.04, Instructions: 1e8, BWShare: 1}
	w := simpleWorkload(1, 5, seg)

	e1, _ := NewExec(w, counters.NewBank(1), 1)
	_, tFull := runToCompletion(t, e1, 100*time.Microsecond, 3.3e9, 1)

	e2, _ := NewExec(w, counters.NewBank(1), 1)
	_, tHalf := runToCompletion(t, e2, 100*time.Microsecond, 3.3e9, 2)

	ratio := tHalf.Seconds() / tFull.Seconds()
	want := (0.01 + 0.08) / (0.01 + 0.04)
	if math.Abs(ratio-want) > 0.03 {
		t.Fatalf("bandwidth slowdown = %v, want ~%v", ratio, want)
	}
}

func TestExecEtinskiRelationHolds(t *testing.T) {
	// β = (C/fmax)/(C/fmax + M). Check T(f)/T(fmax) = β(fmax/f−1)+1.
	const fmax, fmin = 3.3e9, 1.6e9
	seg := Segment{ComputeCycles: 0.02 * fmax, MemSeconds: 0.02, Instructions: 1e8}
	beta := 0.02 / (0.02 + 0.02) // 0.5
	w := simpleWorkload(1, 4, seg)

	e1, _ := NewExec(w, counters.NewBank(1), 1)
	_, tMax := runToCompletion(t, e1, 100*time.Microsecond, fmax, 1)
	e2, _ := NewExec(w, counters.NewBank(1), 1)
	_, tMin := runToCompletion(t, e2, 100*time.Microsecond, fmin, 1)

	got := tMin.Seconds() / tMax.Seconds()
	want := beta*(fmax/fmin-1) + 1
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("Etinski ratio = %v, want %v", got, want)
	}
}

func TestExecBarrierSpinRetiresInstructions(t *testing.T) {
	// Rank 1 works 100 ms; rank 0 works 10 ms then spins ~90 ms.
	gen := func(rank, iter int, shared float64, rng *simtime.RNG) Segment {
		c := 1e7
		if rank == 1 {
			c = 1e8
		}
		return Segment{ComputeCycles: c, Instructions: c} // IPC 1 while working
	}
	w := &Workload{Name: "imb", Metric: "iters/s", Ranks: 2,
		Phases: []Phase{{Name: "p", Iterations: 1, ProgressPerIter: 1, Gen: gen}}}
	bank := counters.NewBank(2)
	e, _ := NewExec(w, bank, 1)
	runToCompletion(t, e, 100*time.Microsecond, 1e9, 1)

	work0 := 1e7
	spin0 := 0.09 * 1e9 * SpinIPC // 90 ms spinning at 1 GHz, SpinIPC
	got0 := float64(bank.Read(0, counters.TotIns))
	if math.Abs(got0-(work0+spin0))/(work0+spin0) > 0.02 {
		t.Fatalf("rank 0 instructions = %v, want ~%v", got0, work0+spin0)
	}
	got1 := float64(bank.Read(1, counters.TotIns))
	if math.Abs(got1-1e8)/1e8 > 0.02 {
		t.Fatalf("rank 1 instructions = %v, want ~1e8", got1)
	}
}

func TestExecSleepIsFrequencyIndependent(t *testing.T) {
	w := simpleWorkload(1, 3, Segment{SleepSeconds: 0.1})
	e1, _ := NewExec(w, counters.NewBank(1), 1)
	_, tFast := runToCompletion(t, e1, time.Millisecond, 3.3e9, 1)
	e2, _ := NewExec(w, counters.NewBank(1), 1)
	_, tSlow := runToCompletion(t, e2, time.Millisecond, 1e9, 1)
	if math.Abs(tFast.Seconds()-tSlow.Seconds()) > 0.005 {
		t.Fatalf("sleep time varied with frequency: %v vs %v", tFast, tSlow)
	}
	if math.Abs(tFast.Seconds()-0.3) > 0.01 {
		t.Fatalf("sleep total = %v, want ~0.3s", tFast)
	}
}

func TestExecSleepingRanksReportedIdle(t *testing.T) {
	w := simpleWorkload(2, 1, Segment{SleepSeconds: 1})
	e, _ := NewExec(w, counters.NewBank(2), 1)
	sp := e.Span(3.3e9, 1)
	if sp.Sleeping != 2 || sp.Engaged != 0 {
		t.Fatalf("sleeping=%d engaged=%d, want 2,0", sp.Sleeping, sp.Engaged)
	}
}

func TestExecActivityReflectsMemoryStall(t *testing.T) {
	// 50/50 compute/memory at this frequency → activity ≈ 0.5.
	seg := Segment{ComputeCycles: 1e9, MemSeconds: 1, Instructions: 1e9, BWShare: 1}
	w := simpleWorkload(1, 1, seg)
	e, _ := NewExec(w, counters.NewBank(1), 1)
	sp := e.Span(1e9, 1)
	if activity := sp.ActivitySum / float64(sp.Engaged); math.Abs(activity-0.5) > 0.01 {
		t.Fatalf("activity = %v, want ~0.5", activity)
	}
	if math.Abs(sp.BWUtil-0.5) > 0.01 {
		t.Fatalf("bw util = %v, want ~0.5", sp.BWUtil)
	}
}

func TestExecPhaseSequencing(t *testing.T) {
	mk := func(name string, iters int) Phase {
		return Phase{Name: name, Iterations: iters, ProgressPerIter: 1,
			Gen: uniform(Segment{ComputeCycles: 1e6, Instructions: 1e6})}
	}
	w := &Workload{Name: "phased", Metric: "blocks/s", Ranks: 1,
		Phases: []Phase{mk("vmc1", 2), mk("vmc2", 3), mk("dmc", 4)}}
	if w.TotalIterations() != 9 {
		t.Fatalf("TotalIterations = %d", w.TotalIterations())
	}
	e, _ := NewExec(w, counters.NewBank(1), 1)
	name, idx := e.Phase()
	if name != "vmc1" || idx != 0 {
		t.Fatalf("initial phase = %s,%d", name, idx)
	}
	events, _ := runToCompletion(t, e, 100*time.Microsecond, 1e9, 1)
	if len(events) != 9 {
		t.Fatalf("events = %d, want 9", len(events))
	}
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Phase]++
	}
	if counts["vmc1"] != 2 || counts["vmc2"] != 3 || counts["dmc"] != 4 {
		t.Fatalf("phase counts = %v", counts)
	}
	if name, idx := e.Phase(); name != "" || idx != -1 {
		t.Fatalf("done phase = %s,%d", name, idx)
	}
}

func TestExecWorkUnitsSummedAcrossRanks(t *testing.T) {
	gen := func(rank, iter int, shared float64, rng *simtime.RNG) Segment {
		return Segment{SleepSeconds: 0.01, WorkUnits: float64(rank + 1)}
	}
	w := &Workload{Name: "wu", Metric: "units/s", Ranks: 3,
		Phases: []Phase{{Name: "p", Iterations: 1, ProgressPerIter: 1, Gen: gen}}}
	e, _ := NewExec(w, counters.NewBank(3), 1)
	events, _ := runToCompletion(t, e, time.Millisecond, 1e9, 1)
	if events[0].WorkUnits != 6 {
		t.Fatalf("WorkUnits = %v, want 6", events[0].WorkUnits)
	}
}

func TestExecStepAfterDoneIsIdle(t *testing.T) {
	w := simpleWorkload(2, 1, Segment{ComputeCycles: 1e3, Instructions: 1e3})
	bank := counters.NewBank(2)
	e, _ := NewExec(w, bank, 1)
	runToCompletion(t, e, time.Millisecond, 1e9, 1)
	ins := bank.Total(counters.TotIns)
	if ev, ok := e.ConsumeTo(time.Hour, 1e9, 1); ok {
		t.Fatalf("post-done consume completed %+v", ev)
	}
	if got := bank.Total(counters.TotIns); got != ins {
		t.Fatalf("post-done consume retired %d instructions", got-ins)
	}
	if sp := e.Span(1e9, 1); sp.Engaged != 0 || sp.Sleeping != 2 || sp.HasBoundary {
		t.Fatalf("post-done span = %+v", sp)
	}
}

func TestExecBadOperatingPointPanics(t *testing.T) {
	w := simpleWorkload(1, 1, Segment{ComputeCycles: 1e6, Instructions: 1})
	e, _ := NewExec(w, counters.NewBank(1), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("memFactor < 1 did not panic")
		}
	}()
	e.ConsumeTo(time.Millisecond, 1e9, 0.5)
}

func TestExecBankTooSmall(t *testing.T) {
	w := simpleWorkload(4, 1, Segment{ComputeCycles: 1e6, Instructions: 1})
	if _, err := NewExec(w, counters.NewBank(2), 1); err == nil {
		t.Fatal("undersized bank accepted")
	}
}

func TestExecDeterministicAcrossRuns(t *testing.T) {
	gen := func(rank, iter int, shared float64, rng *simtime.RNG) Segment {
		return Segment{ComputeCycles: 1e6 * rng.Jitter(0.2), Instructions: 1e6}
	}
	w := &Workload{Name: "jit", Metric: "iters/s", Ranks: 4,
		Phases: []Phase{{Name: "p", Iterations: 20, ProgressPerIter: 1, Gen: gen}}}
	run := func() time.Duration {
		e, _ := NewExec(w, counters.NewBank(4), 42)
		_, total := runToCompletion(t, e, 100*time.Microsecond, 1e9, 1)
		return total
	}
	if run() != run() {
		t.Fatal("same seed produced different executions")
	}
}

func TestIdealDurationMatchesExec(t *testing.T) {
	seg := Segment{ComputeCycles: 3.3e7, MemSeconds: 0.01, Instructions: 1e6}
	w := simpleWorkload(4, 10, seg)
	ideal := w.IdealDuration(3.3e9, 1, 7).Seconds()
	e, _ := NewExec(w, counters.NewBank(4), 7)
	_, total := runToCompletion(t, e, 100*time.Microsecond, 3.3e9, 1)
	if math.Abs(total.Seconds()-ideal)/ideal > 0.02 {
		t.Fatalf("exec total %v vs ideal %v", total.Seconds(), ideal)
	}
}

// TestConsumeToComputeFinishEpsilon pins ConsumeTo's compute finish
// epsilon: a cut that leaves a compute residue of about 5e-7 cycles
// (below the 1e-6 epsilon, above 1e-7) finishes the rank, so the
// iteration completes in that call rather than one nanosecond later.
func TestConsumeToComputeFinishEpsilon(t *testing.T) {
	w := simpleWorkload(1, 2, Segment{ComputeCycles: 1e6 + 5e-7, Instructions: 1e6})
	e, _ := NewExec(w, counters.NewBank(1), 1)
	ev, ok := e.ConsumeTo(time.Millisecond, 1e9, 1)
	if !ok {
		t.Fatalf("iteration with a %.2g-cycle residue did not complete at the cut", e.ranks[0].remCycles)
	}
	if ev.Iter != 0 || ev.At != time.Millisecond {
		t.Fatalf("completion = %+v, want iteration 0 at 1ms", ev)
	}
}

func TestExecInvalidSegmentFromGenPanics(t *testing.T) {
	w := &Workload{Name: "bad", Metric: "x", Ranks: 1,
		Phases: []Phase{{Name: "p", Iterations: 1, Gen: uniform(Segment{})}}}
	defer func() {
		if recover() == nil {
			t.Fatal("empty segment from generator did not panic")
		}
	}()
	_, _ = NewExec(w, counters.NewBank(1), 1)
}
