package apps

import (
	"math"
	"testing"
	"time"

	"progresscap/internal/counters"
	"progresscap/internal/workload"
)

// measureBeta runs the paper's §IV-A procedure on a workload model:
// execution time at 3300 MHz vs 1600 MHz, solved for β via the Etinski
// relation.
func measureBeta(w *workload.Workload) float64 {
	const fmax, flow = 3.3e9, 1.6e9
	tMax := w.IdealDuration(fmax, 1, 1).Seconds()
	tLow := w.IdealDuration(flow, 1, 1).Seconds()
	return (tLow/tMax - 1) / (fmax/flow - 1)
}

// measureMPO executes a slice of the workload and reads the counters.
func measureMPO(t *testing.T, w *workload.Workload) float64 {
	t.Helper()
	bank := counters.NewBank(w.Ranks)
	e, err := workload.NewExec(w, bank, 1)
	if err != nil {
		t.Fatal(err)
	}
	tick := 100 * time.Microsecond
	now := time.Duration(0)
	for i := 0; i < 5_000_000 && !e.Done(); i++ {
		now += tick
		e.ConsumeTo(now, FMaxHz, 1)
	}
	ins := float64(bank.Total(counters.TotIns))
	if ins == 0 {
		t.Fatal("no instructions retired")
	}
	return float64(bank.Total(counters.L3TCM)) / ins
}

func TestTableVIBetaCalibration(t *testing.T) {
	cases := []struct {
		name string
		w    *workload.Workload
		want float64
	}{
		{"LAMMPS", LAMMPS(DefaultRanks, 4), 1.00},
		{"AMG", AMG(DefaultRanks, 4), 0.52},
		{"QMCPACK-DMC", QMCPACK(DefaultRanks, 1, 1, 8).SubsetPhase("dmc"), 0.84},
		{"OpenMC", OpenMC(DefaultRanks, 1, 3, 100000), 0.93},
		{"STREAM", STREAM(DefaultRanks, 4), 0.37},
	}
	for _, c := range cases {
		got := measureBeta(c.w)
		if math.Abs(got-c.want) > 0.03 {
			t.Errorf("%s: β = %.3f, want %.2f ±0.03", c.name, got, c.want)
		}
	}
}

func TestTableVIMPOCalibration(t *testing.T) {
	cases := []struct {
		name string
		w    *workload.Workload
		want float64
	}{
		{"LAMMPS", LAMMPS(DefaultRanks, 4), 0.32e-3},
		{"AMG", AMG(DefaultRanks, 3), 30.1e-3},
		{"STREAM", STREAM(DefaultRanks, 6), 50.9e-3},
	}
	for _, c := range cases {
		got := measureMPO(t, c.w)
		if math.Abs(got-c.want)/c.want > 0.25 {
			t.Errorf("%s: MPO = %.4g, want %.4g ±25%%", c.name, got, c.want)
		}
	}
}

func TestLAMMPSReportRate(t *testing.T) {
	w := LAMMPS(DefaultRanks, 100)
	dur := w.IdealDuration(FMaxHz, 1, 1).Seconds()
	rate := 100 / dur
	if rate < 17 || rate > 23 {
		t.Fatalf("LAMMPS iteration rate = %.1f/s, want ~20/s", rate)
	}
}

func TestAMGIterationRateFluctuates(t *testing.T) {
	w := AMG(DefaultRanks, 40)
	dur := w.IdealDuration(FMaxHz, 1, 1).Seconds()
	rate := 40 / dur
	if rate < 2.3 || rate > 3.2 {
		t.Fatalf("AMG rate = %.2f/s, want 2.5-3/s", rate)
	}
}

func TestQMCPACKPhaseRatesDiffer(t *testing.T) {
	w := QMCPACK(DefaultRanks, 16, 16, 16)
	if len(w.Phases) != 3 {
		t.Fatalf("phases = %d", len(w.Phases))
	}
	rate := func(p workload.Phase) float64 {
		one := &workload.Workload{Name: "x", Metric: "b/s", Ranks: w.Ranks, Phases: []workload.Phase{p}}
		return float64(p.Iterations) / one.IdealDuration(FMaxHz, 1, 1).Seconds()
	}
	r1, r2, r3 := rate(w.Phases[0]), rate(w.Phases[1]), rate(w.Phases[2])
	if !(r1 < r2 && r2 < r3) {
		t.Fatalf("phase rates not increasing: %.1f, %.1f, %.1f", r1, r2, r3)
	}
	if r3 < 13 || r3 > 19 {
		t.Fatalf("DMC rate = %.1f blocks/s, want ~16", r3)
	}
}

func TestOpenMCBatchRate(t *testing.T) {
	w := OpenMC(DefaultRanks, 0+1, 10, 100000)
	// Active batches take ~1.05 s.
	act := w.Phases[1]
	one := &workload.Workload{Name: "x", Metric: "p/s", Ranks: w.Ranks, Phases: []workload.Phase{act}}
	per := one.IdealDuration(FMaxHz, 1, 1).Seconds() / float64(act.Iterations)
	if per < 0.95 || per > 1.2 {
		t.Fatalf("active batch duration = %.2f s, want ~1.05", per)
	}
}

func TestImbalanceSampleWork(t *testing.T) {
	eq := ImbalanceSample(24, 5, true, 1.0)
	uneq := ImbalanceSample(24, 5, false, 1.0)
	// Both take ~1 s per iteration (critical path = slowest rank).
	te := eq.IdealDuration(FMaxHz, 1, 1).Seconds()
	tu := uneq.IdealDuration(FMaxHz, 1, 1).Seconds()
	if math.Abs(te-5) > 0.01 || math.Abs(tu-5) > 0.01 {
		t.Fatalf("durations = %v, %v, want 5 s each", te, tu)
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 9 {
		t.Fatalf("registry has %d applications, want 9 (Table II)", len(reg))
	}
	runnable := 0
	for _, info := range reg {
		if info.Name == "" || info.Description == "" || info.Resource == "" {
			t.Errorf("incomplete entry %+v", info)
		}
		if info.Category == 3 && info.Metric != "N/A" {
			t.Errorf("%s: Category 3 should have N/A metric", info.Name)
		}
		if info.Category != 3 && !info.Runnable() {
			t.Errorf("%s: category %v but not runnable", info.Name, info.Category)
		}
		if info.Runnable() {
			runnable++
			w := info.Build(5)
			if err := w.Validate(); err != nil {
				t.Errorf("%s: built workload invalid: %v", info.Name, err)
			}
		}
	}
	if runnable != 6 {
		t.Fatalf("runnable apps = %d, want 6", runnable)
	}
}

func TestRegistryBuildScalesWithSeconds(t *testing.T) {
	for _, info := range Registry() {
		if !info.Runnable() {
			continue
		}
		short := info.Build(5)
		long := info.Build(30)
		ds := short.IdealDuration(FMaxHz, 1, 1).Seconds()
		dl := long.IdealDuration(FMaxHz, 1, 1).Seconds()
		if dl <= ds {
			t.Errorf("%s: Build(30) not longer than Build(5): %v vs %v", info.Name, dl, ds)
		}
		if dl < 15 || dl > 60 {
			t.Errorf("%s: Build(30) duration = %v s, want roughly 30", info.Name, dl)
		}
	}
}

func TestLookup(t *testing.T) {
	info, err := Lookup("STREAM")
	if err != nil || info.Name != "STREAM" {
		t.Fatalf("Lookup(STREAM) = %+v, %v", info, err)
	}
	if _, err := Lookup("nosuch"); err == nil {
		t.Fatal("Lookup(nosuch) succeeded")
	}
}

func TestRunnableNames(t *testing.T) {
	names := RunnableNames()
	want := []string{"QMCPACK", "OpenMC", "AMG", "LAMMPS", "CANDLE", "STREAM"}
	if len(names) != len(want) {
		t.Fatalf("RunnableNames = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("RunnableNames = %v, want %v", names, want)
		}
	}
}

func TestQuestionsComplete(t *testing.T) {
	for i, q := range Questions {
		if q == "" {
			t.Fatalf("question %d empty", i+1)
		}
	}
}
