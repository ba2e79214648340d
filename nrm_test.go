package progresscap

import (
	"math"
	"testing"
)

func TestRunNRMBudgetSchedule(t *testing.T) {
	rep, err := RunNRM(NRMConfig{
		App:     "LAMMPS",
		Seconds: 30,
		Beta:    1.0,
		Schedule: []BudgetChange{
			{AtSeconds: 5, Watts: 120},
			{AtSeconds: 18, Watts: 90},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("run incomplete")
	}
	if rep.BaselineRate < 700000 || rep.BaselineRate > 900000 {
		t.Fatalf("baseline = %v", rep.BaselineRate)
	}
	// Decision log reflects the schedule: uncapped, then RAPL at 120,
	// then RAPL at 90.
	saw120, saw90 := false, false
	for _, d := range rep.Decisions {
		if d.Knob == "rapl" && d.BudgetW == 120 {
			saw120 = true
		}
		if d.Knob == "rapl" && d.BudgetW == 90 {
			saw90 = true
		}
	}
	if !saw120 || !saw90 {
		t.Fatalf("schedule not reflected: 120=%v 90=%v decisions=%+v", saw120, saw90, rep.Decisions)
	}
	// Power respects the final budget once settled.
	vals := rep.PowerW.Values
	for i := 22; i < len(vals)-1; i++ {
		if vals[i] > 90*1.06 {
			t.Fatalf("window %d: power %v above the 90 W budget", i, vals[i])
		}
	}
}

func TestRunNRMTargetMode(t *testing.T) {
	rep, err := RunNRM(NRMConfig{
		App:     "LAMMPS",
		Seconds: 25,
		Beta:    1.0,
		Schedule: []BudgetChange{
			{AtSeconds: 5, TargetRate: 550000},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Achieved progress within 30% of the target once settled.
	vals := rep.Progress.Values
	if len(vals) < 12 {
		t.Fatalf("windows = %d", len(vals))
	}
	var sum float64
	n := 0
	for _, v := range vals[8:] {
		if v > 0 {
			sum += v
			n++
		}
	}
	got := sum / float64(n)
	if got < 550000*0.7 || got > 550000*1.3 {
		t.Fatalf("achieved %v, target 550000", got)
	}
}

func TestRunNRMValidation(t *testing.T) {
	if _, err := RunNRM(NRMConfig{App: "nosuch"}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := RunNRM(NRMConfig{App: "URBAN"}); err == nil {
		t.Fatal("Category 3 app accepted")
	}
	if _, err := RunNRM(NRMConfig{App: "LAMMPS", Beta: 5}); err == nil {
		t.Fatal("invalid beta accepted")
	}
}

// TestManagedRunsRejectBadSeconds checks that the NRM and cluster runs
// refuse a negative or non-finite run size rather than returning an
// empty report.
func TestManagedRunsRejectBadSeconds(t *testing.T) {
	runs := []struct {
		name string
		run  func(secs float64) error
	}{
		{"RunNRM", func(secs float64) error {
			_, err := RunNRM(NRMConfig{App: "STREAM", Seconds: secs})
			return err
		}},
		{"RunCluster", func(secs float64) error {
			_, err := RunCluster(ClusterConfig{Nodes: []NodeSpec{{App: "STREAM"}}, BudgetW: 200, Seconds: secs})
			return err
		}},
	}
	for _, r := range runs {
		for _, secs := range []float64{-5, math.NaN(), math.Inf(1)} {
			if err := r.run(secs); err == nil {
				t.Errorf("%s accepted Seconds = %v", r.name, secs)
			}
		}
	}
}
