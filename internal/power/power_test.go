package power

import (
	"math"
	"testing"
	"testing/quick"

	"progresscap/internal/snap"
)

func TestDefaultModelValid(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	bad := DefaultModel()
	bad.AlphaHW = 5
	if bad.Validate() == nil {
		t.Error("alpha=5 validated")
	}
	bad = DefaultModel()
	bad.CoreDynMaxW = 0
	if bad.Validate() == nil {
		t.Error("zero dynamic power validated")
	}
	bad = DefaultModel()
	bad.ActivityFloor = 1.5
	if bad.Validate() == nil {
		t.Error("activity floor >1 validated")
	}
}

func TestActivityFactorRange(t *testing.T) {
	m := DefaultModel()
	if got := m.ActivityFactor(0); got != m.ActivityFloor {
		t.Fatalf("act(0) = %v", got)
	}
	if got := m.ActivityFactor(1); got != 1 {
		t.Fatalf("act(1) = %v", got)
	}
	if got := m.ActivityFactor(-5); got != m.ActivityFloor {
		t.Fatalf("act(-5) = %v", got)
	}
	if got := m.ActivityFactor(5); got != 1 {
		t.Fatalf("act(5) = %v", got)
	}
}

func TestCorePowerMonotoneInFrequency(t *testing.T) {
	m := DefaultModel()
	prev := 0.0
	for f := 1000.0; f <= 3300; f += 100 {
		p := m.CorePowerPerCore(f, 1, 1, true)
		if p <= prev {
			t.Fatalf("core power not monotone at %v MHz: %v <= %v", f, p, prev)
		}
		prev = p
	}
}

func TestIdleCoreDrawsStaticOnly(t *testing.T) {
	m := DefaultModel()
	if got := m.CorePowerPerCore(3300, 1, 1, false); got != m.CoreStaticW {
		t.Fatalf("idle core power = %v, want %v", got, m.CoreStaticW)
	}
}

func TestCorePowerAggregation(t *testing.T) {
	m := DefaultModel()
	per := m.CorePowerPerCore(2600, 1, 0.8, true)
	total := m.CorePower(10, 14, 2600, 1, 0.8)
	want := 10*per + 14*m.CoreStaticW
	if math.Abs(total-want) > 1e-9 {
		t.Fatalf("CorePower = %v, want %v", total, want)
	}
}

func TestUncorePowerClampsUtil(t *testing.T) {
	m := DefaultModel()
	if got := m.UncorePower(2, 1); got != m.UncoreStaticW+m.UncoreDynMaxW {
		t.Fatalf("clamped high = %v", got)
	}
	if got := m.UncorePower(-1, 1); got != m.UncoreStaticW {
		t.Fatalf("clamped low = %v", got)
	}
	mid := m.UncorePower(0.5, 0.5)
	want := m.UncoreStaticW + m.UncoreDynMaxW*0.25
	if math.Abs(mid-want) > 1e-9 {
		t.Fatalf("mid = %v, want %v", mid, want)
	}
}

func TestCalibrationOperatingPoints(t *testing.T) {
	// Sanity-check the DefaultModel lands near the paper's regime:
	// a compute-bound 24-core code uncapped should draw 150-220 W package.
	m := DefaultModel()
	b := m.Power(NodeState{EngagedCores: 24, FreqMHz: 3300, Duty: 1, Activity: 1, BWUtil: 0.05, BWScale: 1})
	if b.PkgW() < 150 || b.PkgW() > 220 {
		t.Fatalf("compute-bound uncapped package power = %v W, want 150-220", b.PkgW())
	}
	// A bandwidth-saturating code should push 40+ W into the uncore.
	b2 := m.Power(NodeState{EngagedCores: 24, FreqMHz: 3300, Duty: 1, Activity: 0.37, BWUtil: 1, BWScale: 1})
	if b2.UncoreW < 40 {
		t.Fatalf("memory-bound uncore power = %v W, want >= 40", b2.UncoreW)
	}
}

func TestFreqForCoreBudgetInvertsModel(t *testing.T) {
	m := DefaultModel()
	for _, budget := range []float64{40, 80, 120, 160} {
		f, ok := m.FreqForCoreBudget(budget, 24, 0, 1, 1000, 3300)
		if !ok && budget >= 40 {
			// Even 40 W may be below the floor; only check consistency below.
			continue
		}
		got := m.CorePower(24, 0, f, 1, 1)
		if got > budget+1e-6 {
			t.Fatalf("budget %v W: freq %v gives %v W (over budget)", budget, f, got)
		}
	}
}

func TestFreqForCoreBudgetSaturatesHigh(t *testing.T) {
	m := DefaultModel()
	f, ok := m.FreqForCoreBudget(10000, 24, 0, 1, 1000, 3300)
	if !ok || f != 3300 {
		t.Fatalf("huge budget: f=%v ok=%v", f, ok)
	}
}

func TestFreqForCoreBudgetBelowFloor(t *testing.T) {
	m := DefaultModel()
	f, ok := m.FreqForCoreBudget(10, 24, 0, 1, 1000, 3300)
	if ok {
		t.Fatalf("10 W for 24 cores fit: f=%v", f)
	}
	if f != 1000 {
		t.Fatalf("below-floor frequency = %v, want min", f)
	}
}

func TestFreqForCoreBudgetNoEngagedCores(t *testing.T) {
	m := DefaultModel()
	f, ok := m.FreqForCoreBudget(50, 0, 24, 1, 1000, 3300)
	if !ok || f != 3300 {
		t.Fatalf("idle package: f=%v ok=%v", f, ok)
	}
}

// Property: FreqForCoreBudget never returns an operating point above
// budget when ok is true.
func TestFreqForCoreBudgetProperty(t *testing.T) {
	m := DefaultModel()
	prop := func(budgetRaw uint8, actRaw uint8) bool {
		budget := 20 + float64(budgetRaw) // 20..275 W
		a := float64(actRaw) / 255
		f, ok := m.FreqForCoreBudget(budget, 24, 0, a, 1000, 3300)
		if !ok {
			return f == 1000
		}
		return m.CorePower(24, 0, f, 1, a) <= budget+1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMeterEnergyIntegration(t *testing.T) {
	m := DefaultModel()
	mt := NewMeter(m, 0.01)
	s := NodeState{EngagedCores: 24, FreqMHz: 3300, Duty: 1, Activity: 1, BWUtil: 0, BWScale: 1}
	want := m.Power(s).PkgW() * 2.0
	for i := 0; i < 2000; i++ {
		mt.Observe(s, 0.001)
	}
	if math.Abs(mt.EnergyJ()-want) > 1e-6 {
		t.Fatalf("EnergyJ = %v, want %v", mt.EnergyJ(), want)
	}
	coreJ, uncoreJ := mt.ComponentEnergyJ()
	if math.Abs(coreJ+uncoreJ-mt.EnergyJ()) > 1e-6 {
		t.Fatalf("component energies %v+%v != total %v", coreJ, uncoreJ, mt.EnergyJ())
	}
}

func TestMeterEWMAConverges(t *testing.T) {
	m := DefaultModel()
	mt := NewMeter(m, 0.005)
	low := NodeState{EngagedCores: 24, FreqMHz: 1000, Duty: 1, Activity: 1, BWUtil: 0, BWScale: 1}
	high := NodeState{EngagedCores: 24, FreqMHz: 3300, Duty: 1, Activity: 1, BWUtil: 0, BWScale: 1}
	mt.Observe(low, 0.001)
	for i := 0; i < 100; i++ {
		mt.Observe(high, 0.001)
	}
	want := m.Power(high).PkgW()
	if math.Abs(mt.AvgPkgW()-want) > 0.5 {
		t.Fatalf("EWMA = %v, want ~%v after 20 time constants", mt.AvgPkgW(), want)
	}
}

func TestMeterFirstObservationSeedsAverage(t *testing.T) {
	m := DefaultModel()
	mt := NewMeter(m, 1)
	s := NodeState{EngagedCores: 1, FreqMHz: 2000, Duty: 1, Activity: 1, BWUtil: 0, BWScale: 1}
	b := mt.Observe(s, 0.001)
	if mt.AvgPkgW() != b.PkgW() {
		t.Fatalf("first observation: avg=%v, want %v", mt.AvgPkgW(), b.PkgW())
	}
}

func TestMeterPanicsOnBadInput(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewMeter(tau=0) did not panic")
			}
		}()
		NewMeter(DefaultModel(), 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Observe(dt<0) did not panic")
			}
		}()
		NewMeter(DefaultModel(), 1).Observe(NodeState{}, -1)
	}()
}

// TestMeterMemoBitIdentical: Observe keeps the frequency factor of the
// last FreqMHz and the decay of the last dt. Every reading must equal a
// fresh evaluation bit for bit through a repeated P-state, a P-state
// change, a dt change and a repeated dt, and a meter restored from a
// snapshot (whose memos start elsewhere) must continue identically.
func TestMeterMemoBitIdentical(t *testing.T) {
	m := DefaultModel()
	const tau = 0.01
	at := func(f float64) NodeState {
		return NodeState{EngagedCores: 20, IdleCores: 4, FreqMHz: f, Duty: 0.875,
			Activity: 0.63, BWUtil: 0.4, BWScale: 0.9}
	}
	script := []struct{ f, dt float64 }{
		{2100, 0.001},
		{2100, 0.001}, // repeated P-state and dt
		{1800, 0.001}, // P-state change
		{1800, 0.00025},
		{1800, 0.00025}, // dt change, then repeated
		{2300, 0.001},
		{2100, 0.00025},
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameBrk := func(a, b Breakdown) bool {
		return same(a.CoreW, b.CoreW) && same(a.UncoreW, b.UncoreW) && same(a.DRAMW, b.DRAMW)
	}

	mt := NewMeter(m, tau)
	var avg float64
	for i, step := range script {
		s := at(step.f)
		want := m.Power(s)
		// The core formula written out, so the memo path is checked
		// against the model itself, not against shared code.
		perCore := m.CoreStaticW + m.CoreDynMaxW*s.Duty*m.ActivityFactor(s.Activity)*
			math.Pow(s.FreqMHz/m.RefMHz, m.AlphaHW)
		coreW := float64(s.EngagedCores)*perCore + float64(s.IdleCores)*m.CoreStaticW
		if !same(want.CoreW, coreW) {
			t.Fatalf("step %d: Power CoreW = %v, formula %v", i, want.CoreW, coreW)
		}
		if i == 0 {
			avg = want.PkgW()
		} else {
			decay := math.Exp(-step.dt / tau)
			avg = avg*decay + want.PkgW()*(1-decay)
		}
		if got := mt.Observe(s, step.dt); !sameBrk(got, want) {
			t.Fatalf("step %d: Observe = %+v, fresh Power = %+v", i, got, want)
		}
		if !same(mt.AvgPkgW(), avg) {
			t.Fatalf("step %d: AvgPkgW = %v, fresh EWMA = %v", i, mt.AvgPkgW(), avg)
		}
	}

	restored := NewMeter(m, tau)
	if _, err := snap.Copy(restored, mt); err != nil {
		t.Fatal(err)
	}
	for i, step := range script {
		a, b := mt.Observe(at(step.f), step.dt), restored.Observe(at(step.f), step.dt)
		if !sameBrk(a, b) || !same(mt.AvgPkgW(), restored.AvgPkgW()) ||
			!same(mt.EnergyJ(), restored.EnergyJ()) {
			t.Fatalf("step %d after restore: %+v avg %v E %v, restored %+v avg %v E %v",
				i, a, mt.AvgPkgW(), mt.EnergyJ(), b, restored.AvgPkgW(), restored.EnergyJ())
		}
	}
}
