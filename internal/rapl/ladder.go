package rapl

import (
	"math"
	"sync"

	"progresscap/internal/cpu"
	"progresscap/internal/power"
)

// ladderGuard is the relative distance from a rung's factor within which
// the ladder defers to Model.FreqForCoreBudget: its Pow and the floor onto
// the step grid err by a few ulps near a rung, far inside the band.
const ladderGuard = 1e-9

// ladder is a P-state ladder: mhz is cpu.Config.Ladder() and x[i] =
// Model.FreqFactor(mhz[i]), the core-budget ratio at which
// FreqForCoreBudget first reaches mhz[i]. The grant is floored onto the
// ladder, so the rung below the ratio is the grant. A published ladder is
// never written, so controllers of one model and range share it.
type ladder struct{ mhz, x []float64 }

type ladderKey struct{ refMHz, alphaHW, minMHz, maxMHz, stepMHz float64 }

var ladders sync.Map // ladderKey → *ladder

// ladderFor returns the shared ladder of a model and P-state range.
func ladderFor(m power.Model, cfg cpu.Config) *ladder {
	k := ladderKey{m.RefMHz, m.AlphaHW, cfg.MinMHz, cfg.MaxMHz, cfg.StepMHz}
	if l, ok := ladders.Load(k); ok {
		return l.(*ladder)
	}
	l := &ladder{mhz: cfg.Ladder()}
	for _, f := range l.mhz {
		l.x = append(l.x, m.FreqFactor(f))
	}
	shared, _ := ladders.LoadOrStore(k, l)
	return shared.(*ladder)
}

// grant returns a frequency that quantizes to the P-state
// FreqForCoreBudget's does, with the same ok flag: a rung found by binary
// search on the core-budget ratio, or FreqForCoreBudget's own answer where
// the ratio is near a rung, non-finite, or not inverted at all.
func (l *ladder) grant(m power.Model, budget float64, nEng, nIdle int, act float64) (float64, bool) {
	x, ok := m.CoreBudgetRatio(budget, nEng, nIdle, act)
	if ok && x <= math.MaxFloat64 { // finite: not NaN or +Inf
		lo, hi := 0, len(l.x)
		for lo < hi { // x[lo-1] < x <= x[lo]
			if mid := int(uint(lo+hi) >> 1); l.x[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if (lo == len(l.x) || l.x[lo]-x > ladderGuard*l.x[lo]) &&
			(lo == 0 || x-l.x[lo-1] > ladderGuard*l.x[lo-1]) {
			if lo == 0 {
				return l.mhz[0], false
			}
			return l.mhz[lo-1], true
		}
	}
	return m.FreqForCoreBudget(budget, nEng, nIdle, act, l.mhz[0], l.mhz[len(l.mhz)-1])
}
