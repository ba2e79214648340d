package rapl

import (
	"math"
	"testing"
	"time"

	"progresscap/internal/cpu"
	"progresscap/internal/msr"
	"progresscap/internal/power"
	"progresscap/internal/stats"
)

// rig bundles a controller with its hardware for tests.
type rig struct {
	dev    *msr.Device
	domain *cpu.Domain
	uncore *cpu.Uncore
	model  power.Model
	meter  *power.Meter
	ctl    *Controller
}

func newRig(t *testing.T) *rig {
	t.Helper()
	cfg := cpu.DefaultConfig()
	dev := msr.NewDevice(cfg.Cores, nil)
	domain, err := cpu.NewDomain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	uncore := cpu.NewUncore()
	model := power.DefaultModel()
	meter := power.NewMeter(model, 0.01)
	ctl, err := New(dev, domain, uncore, model, meter, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return &rig{dev: dev, domain: domain, uncore: uncore, model: model, meter: meter, ctl: ctl}
}

// runSteady drives the control loop for steps milliseconds against an
// application with the given compute activity and full-grant bandwidth
// demand. It returns the converged average package power.
func (r *rig) runSteady(steps int, activity, bwDemand float64) float64 {
	dt := time.Millisecond
	for i := 0; i < steps; i++ {
		// Bandwidth throttling inflates observed utilization.
		bwObs := stats.Clamp(bwDemand/r.uncore.BWScale(), 0, 1)
		s := power.NodeState{
			EngagedCores: r.domain.Config().Cores,
			FreqMHz:      r.domain.CurrentMHz(),
			Duty:         r.domain.Duty(),
			Activity:     activity,
			BWUtil:       bwObs,
			BWScale:      r.uncore.BWScale(),
		}
		r.ctl.Observe(s, dt)
		r.ctl.Control()
	}
	return r.meter.AvgPkgW()
}

func TestUncappedRunsAtMaxTurbo(t *testing.T) {
	r := newRig(t)
	r.runSteady(100, 1, 0.05)
	if r.domain.CurrentMHz() != 3300 || r.domain.Duty() != 1 || r.uncore.BWScale() != 1 {
		t.Fatalf("uncapped state: f=%v duty=%v bw=%v",
			r.domain.CurrentMHz(), r.domain.Duty(), r.uncore.BWScale())
	}
}

func TestCapEnforcedForComputeBound(t *testing.T) {
	r := newRig(t)
	uncapped := r.runSteady(200, 1, 0.05)
	const capW = 120
	if err := WriteLimit(r.dev, capW, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	avg := r.runSteady(3000, 1, 0.05)
	if avg > capW*1.03 {
		t.Fatalf("average power %v W exceeds cap %v W", avg, capW)
	}
	// Paper assumption: a capped application uses all the power given to
	// it (§VI). Allow a few percent of slack from P-state quantization.
	if avg < capW*0.90 {
		t.Fatalf("average power %v W far below cap %v W (uncapped was %v)", avg, capW, uncapped)
	}
	if r.domain.CurrentMHz() >= 3300 {
		t.Fatalf("frequency not reduced under cap: %v", r.domain.CurrentMHz())
	}
}

func TestCapBelowUncappedReducesFrequencyMonotonically(t *testing.T) {
	caps := []float64{170, 140, 110, 80}
	var prevFreq = math.Inf(1)
	for _, capW := range caps {
		r := newRig(t)
		if err := WriteLimit(r.dev, capW, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		r.runSteady(3000, 1, 0.05)
		f := r.domain.CurrentMHz()
		if f > prevFreq {
			t.Fatalf("frequency rose as cap tightened: cap %v → %v MHz (prev %v)", capW, f, prevFreq)
		}
		prevFreq = f
	}
}

func TestApplicationAwareBudgeting(t *testing.T) {
	// Fig 2: under identical caps RAPL runs the compute-bound code at a
	// higher frequency than the memory-bound one.
	const capW = 110
	compute := newRig(t)
	if err := WriteLimit(compute.dev, capW, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	compute.runSteady(3000, 1, 0.05)

	memory := newRig(t)
	if err := WriteLimit(memory.dev, capW, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	memory.runSteady(3000, 0.37, 1.0)

	fc, fm := compute.domain.CurrentMHz(), memory.domain.CurrentMHz()
	if fc <= fm {
		t.Fatalf("compute-bound f=%v MHz not above memory-bound f=%v MHz under identical cap", fc, fm)
	}
}

func TestStringentCapThrottlesUncore(t *testing.T) {
	r := newRig(t)
	if err := WriteLimit(r.dev, 70, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	avg := r.runSteady(5000, 0.37, 1.0)
	if r.uncore.BWScale() >= 1 {
		t.Fatalf("stringent cap did not scale uncore bandwidth (scale=%v, avg=%v W)", r.uncore.BWScale(), avg)
	}
	if avg > 70*1.05 {
		t.Fatalf("average power %v exceeds stringent cap", avg)
	}
}

func TestVeryStringentCapEngagesDutyCycle(t *testing.T) {
	// 40 W sits between the package floor (~38.5 W: core static + duty
	// floor + uncore static) and core power at the minimum P-state
	// (~33 W core + ~15 W uncore), so only duty modulation can reach it.
	r := newRig(t)
	if err := WriteLimit(r.dev, 40, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	avg := r.runSteady(5000, 1, 0.02)
	if r.domain.CurrentMHz() != r.domain.Config().MinMHz {
		t.Fatalf("expected minimum P-state, got %v", r.domain.CurrentMHz())
	}
	if r.domain.Duty() >= 1 {
		t.Fatalf("duty-cycle modulation not engaged at 40 W (duty=%v, avg=%v W)", r.domain.Duty(), avg)
	}
	if avg > 40*1.10 {
		t.Fatalf("average power %v far above 40 W cap", avg)
	}
}

func TestDisablingLimitRestoresTurbo(t *testing.T) {
	r := newRig(t)
	if err := WriteLimit(r.dev, 80, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	r.runSteady(2000, 1, 0.05)
	if r.domain.CurrentMHz() >= 3300 {
		t.Fatal("cap had no effect")
	}
	if err := WriteLimit(r.dev, 0, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	r.runSteady(100, 1, 0.05)
	if r.domain.CurrentMHz() != 3300 || r.domain.Duty() != 1 {
		t.Fatalf("uncap did not restore turbo: f=%v duty=%v", r.domain.CurrentMHz(), r.domain.Duty())
	}
}

func TestManualModeLeavesActuatorsAlone(t *testing.T) {
	r := newRig(t)
	r.ctl.SetManual(true)
	r.domain.SetTargetMHz(1500)
	if err := WriteLimit(r.dev, 60, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	r.runSteady(500, 1, 0.05)
	if r.domain.CurrentMHz() != 1500 {
		t.Fatalf("manual mode: controller changed frequency to %v", r.domain.CurrentMHz())
	}
	// Status registers still track.
	raw, err := r.dev.ReadCore(3, msr.PerfStatus)
	if err != nil {
		t.Fatal(err)
	}
	if msr.MHzFromRatio(raw) != 1500 {
		t.Fatalf("PERF_STATUS = %v MHz, want 1500", msr.MHzFromRatio(raw))
	}
}

func TestPerfStatusReflectsFrequency(t *testing.T) {
	r := newRig(t)
	if err := WriteLimit(r.dev, 100, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	r.runSteady(3000, 1, 0.05)
	raw, err := r.dev.ReadCore(0, msr.PerfStatus)
	if err != nil {
		t.Fatal(err)
	}
	if msr.MHzFromRatio(raw) != r.domain.CurrentMHz() {
		t.Fatalf("PERF_STATUS = %v, domain = %v", msr.MHzFromRatio(raw), r.domain.CurrentMHz())
	}
}

// checkPerfStatus fails unless every core's PERF_STATUS reads wantMHz.
func (r *rig) checkPerfStatus(t *testing.T, wantMHz float64) {
	t.Helper()
	for c := 0; c < r.dev.Cores(); c++ {
		raw, err := r.dev.ReadCore(c, msr.PerfStatus)
		if err != nil {
			t.Fatal(err)
		}
		if got := msr.MHzFromRatio(raw); got != wantMHz {
			t.Fatalf("core %d PERF_STATUS = %v MHz, want %v", c, got, wantMHz)
		}
	}
}

// TestPerfStatusPublishOnChange covers publishStatus's cache: the pokes
// it skips while the P-state holds must never leave a core behind, and a
// restored controller must republish.
func TestPerfStatusPublishOnChange(t *testing.T) {
	// A change after a steady stretch reaches every core.
	r := newRig(t)
	r.runSteady(100, 1, 0.05) // uncapped: parked at 3300 MHz
	if err := WriteLimit(r.dev, 90, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000 && r.domain.CurrentMHz() == 3300; i++ {
		r.runSteady(1, 1, 0.05)
	}
	if r.domain.CurrentMHz() == 3300 {
		t.Fatal("a 90 W cap never moved the P-state")
	}
	r.checkPerfStatus(t, r.domain.CurrentMHz())

	// The donor's registers lag its domain: a manual frequency change
	// its next Control has yet to publish. Before the restore, the other
	// controller had itself published that new frequency, so only a
	// cleared cache makes its first Control after the restore poke the
	// cores.
	donor := newRig(t)
	donor.ctl.SetManual(true)
	donor.domain.SetTargetMHz(2000)
	donor.ctl.Control()
	donor.domain.SetTargetMHz(1500)

	restored := newRig(t)
	restored.ctl.SetManual(true)
	restored.domain.SetTargetMHz(1500)
	restored.ctl.Control()
	restored.dev.Restore(donor.dev.Snapshot())
	restored.domain.Restore(donor.domain.Snapshot())
	restored.uncore.Restore(donor.uncore.Snapshot())
	restored.meter.Restore(donor.meter.Snapshot())
	restored.ctl.Restore(donor.ctl.Snapshot())
	restored.checkPerfStatus(t, 2000)

	donor.ctl.Control()
	restored.ctl.Control()
	donor.checkPerfStatus(t, 1500)
	restored.checkPerfStatus(t, 1500)
}

func TestEnergyCounterAdvances(t *testing.T) {
	r := newRig(t)
	_, raw0, err := ReadEnergyJ(r.dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.runSteady(1000, 1, 0.05) // 1 virtual second uncapped ≈ 180 J
	j, _, err := ReadEnergyJ(r.dev, raw0)
	if err != nil {
		t.Fatal(err)
	}
	if j < 100 || j > 260 {
		t.Fatalf("energy over 1 s = %v J, want 100-260", j)
	}
}

func TestPStateQuantization(t *testing.T) {
	// Granted frequencies always sit on the 100 MHz ladder.
	for _, capW := range []float64{60, 85, 110, 135, 160} {
		r := newRig(t)
		if err := WriteLimit(r.dev, capW, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		r.runSteady(2000, 0.8, 0.3)
		f := r.domain.CurrentMHz()
		if math.Mod(f, 100) != 0 {
			t.Fatalf("cap %v W granted off-ladder frequency %v", capW, f)
		}
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	cfg := cpu.DefaultConfig()
	dev := msr.NewDevice(cfg.Cores, nil)
	domain, _ := cpu.NewDomain(cfg)
	m := power.DefaultModel()
	meter := power.NewMeter(m, 0.01)
	if _, err := New(dev, domain, cpu.NewUncore(), m, meter, Options{}); err == nil {
		t.Fatal("zero options accepted")
	}
	bad := m
	bad.AlphaHW = 9
	if _, err := New(dev, domain, cpu.NewUncore(), bad, meter, DefaultOptions()); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestWriteLimitRoundTrip(t *testing.T) {
	r := newRig(t)
	if err := WriteLimit(r.dev, 123, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	limit, err := r.ctl.Limit()
	if err != nil {
		t.Fatal(err)
	}
	if !limit.Enabled || math.Abs(limit.Watts-123) > 0.5 {
		t.Fatalf("limit = %+v", limit)
	}
}
