package progresscap

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestRunLAMMPSUncapped(t *testing.T) {
	rep, err := Run(RunConfig{App: "LAMMPS", Seconds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("run did not complete")
	}
	if rep.Metric != "atom timesteps/s" {
		t.Fatalf("Metric = %q", rep.Metric)
	}
	if rep.MeanRate < 700000 || rep.MeanRate > 900000 {
		t.Fatalf("MeanRate = %v", rep.MeanRate)
	}
	if rep.Behavior != "steady" {
		t.Fatalf("Behavior = %q", rep.Behavior)
	}
	if len(rep.Progress.Values) == 0 || len(rep.PowerW.Values) == 0 || len(rep.FreqMHz.Values) == 0 {
		t.Fatal("missing series")
	}
	if len(rep.CapW.Values) != 0 {
		t.Fatal("uncapped run has a cap series")
	}
	if rep.EnergyJ <= 0 || rep.MIPS <= 0 || rep.MPO <= 0 {
		t.Fatalf("scalars: E=%v MIPS=%v MPO=%v", rep.EnergyJ, rep.MIPS, rep.MPO)
	}
}

func TestRunWithStepCap(t *testing.T) {
	rep, err := Run(RunConfig{
		App:     "LAMMPS",
		Seconds: 24,
		Scheme:  StepCap(0, 90, 8*time.Second, 8*time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CapW.Values) == 0 {
		t.Fatal("capped run missing cap series")
	}
	// Progress must vary with the step.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range rep.Progress.Values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo > 0.8*hi {
		t.Fatalf("progress did not follow the step cap: min %v, max %v", lo, hi)
	}
}

func TestRunPinnedDVFS(t *testing.T) {
	rep, err := Run(RunConfig{App: "STREAM", Seconds: 8, PinMHz: 1600})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.FreqMHz.Values {
		if f != 1600 {
			t.Fatalf("frequency %v, want 1600", f)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{App: "nosuch"}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := Run(RunConfig{App: "HACC"}); err == nil {
		t.Fatal("Category 3 app accepted")
	}
	if _, err := Run(RunConfig{App: "LAMMPS", Seconds: 1}); err == nil {
		t.Fatal("too-short run accepted")
	}
	if _, err := Run(RunConfig{App: "LAMMPS", PinMHz: 2000, Scheme: ConstantCap(100)}); err == nil {
		t.Fatal("PinMHz + Scheme accepted")
	}
	if _, err := Run(RunConfig{App: "LAMMPS", Seconds: math.NaN()}); err == nil {
		t.Fatal("NaN Seconds accepted")
	}
	if _, err := Run(RunConfig{App: "LAMMPS", PinMHz: -5}); err == nil {
		t.Fatal("negative PinMHz accepted")
	}
}

func TestSchemeNames(t *testing.T) {
	if NoCap().Name() != "uncapped" || (Scheme{}).Name() != "uncapped" {
		t.Fatal("uncapped names wrong")
	}
	if !strings.Contains(ConstantCap(90).Name(), "constant") {
		t.Fatal("constant name wrong")
	}
	if LinearCap(0, 100, 50, 5).Name() != "linear-decrease" {
		t.Fatal("linear name wrong")
	}
	if JaggedCap(100, 50, time.Second, time.Second).Name() != "jagged-edge" {
		t.Fatal("jagged name wrong")
	}
}

func TestCharacterizeAndFitModel(t *testing.T) {
	c, err := Characterize("STREAM", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Beta-0.37) > 0.04 {
		t.Fatalf("STREAM β = %v, want ~0.37", c.Beta)
	}
	if c.BaselineRate < 14 || c.BaselineRate > 18 {
		t.Fatalf("baseline rate = %v", c.BaselineRate)
	}
	if c.BaselinePkgW < 120 || c.BaselinePkgW > 220 {
		t.Fatalf("baseline power = %v", c.BaselinePkgW)
	}

	m, err := FitModel(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Beta() != c.Beta || m.BaselineRate() != c.BaselineRate {
		t.Fatal("model not fitted from characterization")
	}
	// Predictions behave sanely.
	if m.PredictProgress(1000) != c.BaselineRate {
		t.Fatal("huge cap should not bind")
	}
	p100 := m.PredictProgress(100)
	if p100 >= c.BaselineRate || p100 <= 0 {
		t.Fatalf("PredictProgress(100) = %v", p100)
	}
	if d := m.PredictDelta(100); math.Abs(d-(c.BaselineRate-p100)) > 1e-9 {
		t.Fatalf("PredictDelta inconsistent: %v", d)
	}
	capW, err := m.CapForProgress(p100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(capW-100) > 1 {
		t.Fatalf("CapForProgress inverse = %v, want ~100", capW)
	}
}

func TestCharacterizeValidation(t *testing.T) {
	if _, err := Characterize("URBAN", 8, 1); err == nil {
		t.Fatal("Category 3 characterization accepted")
	}
	if _, err := Characterize("bogus", 8, 1); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestApplicationsList(t *testing.T) {
	list := Applications()
	if len(list) != 9 {
		t.Fatalf("Applications() returned %d entries", len(list))
	}
	byName := map[string]AppInfo{}
	for _, a := range list {
		byName[a.Name] = a
	}
	if !byName["LAMMPS"].Runnable || byName["HACC"].Runnable {
		t.Fatal("runnability flags wrong")
	}
	if byName["CANDLE"].Category != "1/2" {
		t.Fatalf("CANDLE category = %q", byName["CANDLE"].Category)
	}
	if byName["AMG"].Metric == "" || byName["STREAM"].Resource == "" {
		t.Fatal("metadata incomplete")
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	run := func() *Report {
		rep, err := Run(RunConfig{App: "AMG", Seconds: 8, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Elapsed != b.Elapsed || a.MeanRate != b.MeanRate || a.EnergyJ != b.EnergyJ {
		t.Fatal("same seed produced different reports")
	}
}

func TestQMCPACKPhasedBehavior(t *testing.T) {
	rep, err := Run(RunConfig{App: "QMCPACK", Seconds: 30})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Behavior != "phased" {
		t.Fatalf("QMCPACK behavior = %q, want phased", rep.Behavior)
	}
}
