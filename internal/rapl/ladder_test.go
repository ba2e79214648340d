package rapl

import (
	"math"
	"math/rand"
	"testing"

	"progresscap/internal/cpu"
	"progresscap/internal/power"
)

// unitRatioModel is the default model with its core-budget ratio reduced
// to the budget itself: no static draw and unit dynamic power, so for one
// engaged core at full activity x = budget exactly and a probe can land on
// any float it names.
func unitRatioModel() power.Model {
	m := power.DefaultModel()
	m.CoreStaticW, m.CoreDynMaxW, m.ActivityFloor = 0, 1, 1
	return m
}

// checkGrant fails unless the ladder grants the P-state and ok flag that
// the Pow inversion grants, bit for bit.
func checkGrant(t *testing.T, l *ladder, m power.Model, cfg cpu.Config, budget float64, nEng, nIdle int, act float64) {
	t.Helper()
	gf, gok := l.grant(m, budget, nEng, nIdle, act)
	wf, wok := m.FreqForCoreBudget(budget, nEng, nIdle, act, cfg.MinMHz, cfg.MaxMHz)
	g, w := cfg.Quantize(gf), cfg.Quantize(wf)
	if math.Float64bits(g) != math.Float64bits(w) || gok != wok {
		t.Errorf("budget %v (nEng %d, nIdle %d, act %v): ladder grants %v ok=%v, Pow inversion %v ok=%v",
			budget, nEng, nIdle, act, g, gok, w, wok)
	}
}

// TestLadderGrantExact: the ladder's P-state and ok flag equal
// cfg.Quantize(FreqForCoreBudget(...)) bit for bit on every rung's
// boundary ratio and its ulp neighbours, on both sides of the guard band,
// at random ratios, and on every input FreqForCoreBudget answers without
// inverting.
func TestLadderGrantExact(t *testing.T) {
	cfg := cpu.DefaultConfig()
	m := unitRatioModel()
	l := ladderFor(m, cfg)
	if len(l.x) != 24 {
		t.Fatalf("ladder has %d rungs, want 24", len(l.x))
	}
	for i, f := range l.mhz {
		if x := m.FreqFactor(f); l.x[i] != x {
			t.Fatalf("rung %v MHz: factor %v, want %v", f, l.x[i], x)
		}
		if cfg.Quantize(f) != f {
			t.Fatalf("rung %v MHz is off the Quantize grid", f)
		}
	}
	for _, xi := range l.x {
		up, down := xi, xi
		checkGrant(t, l, m, cfg, xi, 1, 0, 1)
		for ulp := 1; ulp <= 4; ulp++ {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, 0)
			checkGrant(t, l, m, cfg, up, 1, 0, 1)
			checkGrant(t, l, m, cfg, down, 1, 0, 1)
		}
		for _, rel := range []float64{0.5e-9, 2e-9} {
			checkGrant(t, l, m, cfg, xi*(1+rel), 1, 0, 1)
			checkGrant(t, l, m, cfg, xi*(1-rel), 1, 0, 1)
		}
	}

	// Random ratios land between guard bands, where the ladder answers
	// with a rung of its own; an unquantized answer would mean the
	// comparison above only ever saw the fallback.
	rng := rand.New(rand.NewSource(1))
	xMax := l.x[len(l.x)-1]
	rungs := 0
	for i := 0; i < 20000; i++ {
		x := rng.Float64() * 2 * xMax
		checkGrant(t, l, m, cfg, x, 1, 0, 1)
		if f, _ := l.grant(m, x, 1, 0, 1); cfg.Quantize(f) == f {
			rungs++
		}
	}
	if rungs < 19990 {
		t.Errorf("%d of 20000 random ratios answered from the ladder", rungs)
	}

	// The default model's own arithmetic: static draw, idle cores and
	// partial activity.
	dm := power.DefaultModel()
	dl := ladderFor(dm, cfg)
	for i := 0; i < 20000; i++ {
		nEng := 1 + rng.Intn(cfg.Cores)
		checkGrant(t, dl, dm, cfg, rng.Float64()*200, nEng, cfg.Cores-nEng, rng.Float64())
	}

	// Inputs FreqForCoreBudget answers without Pow, and non-finite ones.
	checkGrant(t, dl, dm, cfg, 50, 0, 24, 1) // no engaged cores
	checkGrant(t, dl, dm, cfg, 10, 24, 0, 1) // dynBudget < 0
	checkGrant(t, dl, dm, cfg, 24, 24, 0, 1) // dynBudget = 0
	checkGrant(t, l, m, cfg, -1, 1, 0, 1)    // dynBudget < 0
	noDyn := m
	noDyn.ActivityFloor = 0
	checkGrant(t, l, noDyn, cfg, 5, 1, 0, 0) // denom = 0
	for _, b := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkGrant(t, l, m, cfg, b, 1, 0, 1)
		checkGrant(t, dl, dm, cfg, b, 24, 0, 0.7)
	}
}
