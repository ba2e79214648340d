// Package power models package-domain power draw for the simulated node.
//
// The model splits the package into the core component (cores, private
// caches) and the uncore component (LLC, memory controllers, interconnect)
// exactly as the paper does when reasoning about how RAPL budgets a
// package cap:
//
//	P_pkg    = P_core + P_uncore
//	P_core   = Σ_cores [ static + dynMax · duty · act(a) · (f/f_ref)^α ]
//	P_uncore = static + dynMax · bwUtil · bwScale
//
// where a is the core's compute activity (fraction of time executing
// rather than stalled on memory), act(a) = floor + (1-floor)·a models
// that stalled cores still clock and consume most of their dynamic power,
// and α is the *hardware's* frequency exponent — deliberately distinct
// from the α the analytical model fixes to 2 (§VI), which is one source
// of the model error the paper reports.
package power

import (
	"fmt"
	"math"
)

// Model holds the calibrated coefficients for one package.
type Model struct {
	// Core side.
	CoreStaticW   float64 // per-core static/leakage power
	CoreDynMaxW   float64 // per-core dynamic power at RefMHz, full activity
	AlphaHW       float64 // hardware frequency exponent for dynamic power
	RefMHz        float64 // frequency at which CoreDynMaxW is specified
	ActivityFloor float64 // act(0): dynamic power fraction of a fully stalled core

	// Uncore side.
	UncoreStaticW float64
	UncoreDynMaxW float64 // uncore dynamic power at full bandwidth utilization

	// DRAM domain — a separate RAPL domain outside the package, exposed
	// for measurement like MSR_DRAM_ENERGY_STATUS (the paper caps only
	// the package domain but notes DRAM is commonly exposed).
	DRAMStaticW float64
	DRAMDynMaxW float64 // DRAM dynamic power at full bandwidth
}

// DefaultModel returns coefficients calibrated so a 24-core package lands
// near the paper's operating points: ~180 W uncapped for a compute-bound
// code, ~60 W of uncore for a bandwidth-saturating code.
func DefaultModel() Model {
	return Model{
		CoreStaticW:   1.0,
		CoreDynMaxW:   5.8,
		AlphaHW:       2.3,
		RefMHz:        3300,
		ActivityFloor: 0.55,
		UncoreStaticW: 14,
		UncoreDynMaxW: 48,
		DRAMStaticW:   4,
		DRAMDynMaxW:   18,
	}
}

// Validate checks the coefficients are physically sensible.
func (m Model) Validate() error {
	switch {
	case m.CoreStaticW < 0 || m.CoreDynMaxW <= 0:
		return fmt.Errorf("power: core coefficients static=%v dyn=%v invalid", m.CoreStaticW, m.CoreDynMaxW)
	case m.AlphaHW < 1 || m.AlphaHW > 4:
		return fmt.Errorf("power: AlphaHW=%v outside [1,4] (paper: α varies between 1 and 4)", m.AlphaHW)
	case m.RefMHz <= 0:
		return fmt.Errorf("power: RefMHz=%v invalid", m.RefMHz)
	case m.ActivityFloor < 0 || m.ActivityFloor > 1:
		return fmt.Errorf("power: ActivityFloor=%v outside [0,1]", m.ActivityFloor)
	case m.UncoreStaticW < 0 || m.UncoreDynMaxW < 0:
		return fmt.Errorf("power: uncore coefficients invalid")
	case m.DRAMStaticW < 0 || m.DRAMDynMaxW < 0:
		return fmt.Errorf("power: DRAM coefficients invalid")
	}
	return nil
}

// ActivityFactor maps compute activity a∈[0,1] to the dynamic-power
// multiplier act(a).
func (m Model) ActivityFactor(a float64) float64 {
	if a < 0 {
		a = 0
	}
	if a > 1 {
		a = 1
	}
	return m.ActivityFloor + (1-m.ActivityFloor)*a
}

// FreqFactor returns the dynamic-power frequency scaling (f/RefMHz)^α_HW
// at frequency fMHz.
func (m Model) FreqFactor(fMHz float64) float64 {
	return math.Pow(fMHz/m.RefMHz, m.AlphaHW)
}

// CorePowerPerCore returns one engaged core's power at frequency fMHz with
// duty cycle duty and compute activity a. Idle (disengaged) cores draw
// only static power; pass engaged=false for those.
func (m Model) CorePowerPerCore(fMHz, duty, a float64, engaged bool) float64 {
	if !engaged {
		return m.CoreStaticW
	}
	return m.engagedCorePower(m.FreqFactor(fMHz), duty, a)
}

// engagedCorePower is one engaged core's power at frequency factor ff
// (see FreqFactor).
func (m Model) engagedCorePower(ff, duty, a float64) float64 {
	return m.CoreStaticW + m.CoreDynMaxW*duty*m.ActivityFactor(a)*ff
}

// CorePower returns total core-component power for n engaged cores (all at
// the same package frequency/duty, with mean activity a) plus idle static
// draw for the remaining idleCores.
func (m Model) CorePower(nEngaged int, idleCores int, fMHz, duty, a float64) float64 {
	return m.CorePowerAt(nEngaged, idleCores, m.FreqFactor(fMHz), duty, a)
}

// CorePowerAt is CorePower with the frequency given as its factor ff =
// FreqFactor(fMHz), for callers that keep the factor of a repeated
// frequency instead of re-evaluating it.
func (m Model) CorePowerAt(nEngaged int, idleCores int, ff, duty, a float64) float64 {
	p := float64(nEngaged) * m.engagedCorePower(ff, duty, a)
	p += float64(idleCores) * m.CoreStaticW
	return p
}

// UncorePower returns the uncore-component power at the given bandwidth
// utilization (demand, in [0,1]) under bandwidth grant bwScale.
func (m Model) UncorePower(bwUtil, bwScale float64) float64 {
	if bwUtil < 0 {
		bwUtil = 0
	}
	if bwUtil > 1 {
		bwUtil = 1
	}
	eff := bwUtil * bwScale
	return m.UncoreStaticW + m.UncoreDynMaxW*eff
}

// FreqForCoreBudget inverts the core power model: it returns the highest
// frequency (unquantized) at which nEngaged cores with activity a and
// duty 1 fit inside budget watts. The boolean is false when even the
// minimum conceivable dynamic power exceeds the budget (caller must then
// resort to duty-cycle modulation).
func (m Model) FreqForCoreBudget(budget float64, nEngaged, idleCores int, a, minMHz, maxMHz float64) (float64, bool) {
	if nEngaged <= 0 {
		return maxMHz, true
	}
	x, ok := m.CoreBudgetRatio(budget, nEngaged, idleCores, a)
	if !ok {
		return minMHz, false
	}
	rel := math.Pow(x, 1/m.AlphaHW)
	f := rel * m.RefMHz
	if f < minMHz {
		return minMHz, false
	}
	if f > maxMHz {
		f = maxMHz
	}
	return f, true
}

// CoreBudgetRatio returns the ratio x that FreqForCoreBudget inverts to
// RefMHz·x^(1/α_HW): dynamic budget over dynamic power at RefMHz. ok is
// false where there is no positive budget or denominator to invert,
// NaN included, so a NaN budget takes the minMHz/duty fallback.
func (m Model) CoreBudgetRatio(budget float64, nEngaged, idleCores int, a float64) (x float64, ok bool) {
	static := float64(nEngaged+idleCores) * m.CoreStaticW
	dynBudget := budget - static
	denom := float64(nEngaged) * m.CoreDynMaxW * m.ActivityFactor(a)
	if !(dynBudget > 0) || !(denom > 0) {
		return 0, false
	}
	return dynBudget / denom, true
}

// NodeState is the instantaneous operating point the meter integrates.
type NodeState struct {
	EngagedCores int
	IdleCores    int
	FreqMHz      float64
	Duty         float64
	Activity     float64 // mean compute activity of engaged cores
	BWUtil       float64 // uncore bandwidth demand
	BWScale      float64 // uncore bandwidth grant
}

// DRAMPower returns the DRAM-domain power at the given bandwidth
// utilization under grant bwScale. DRAM is outside the package domain.
func (m Model) DRAMPower(bwUtil, bwScale float64) float64 {
	if bwUtil < 0 {
		bwUtil = 0
	}
	if bwUtil > 1 {
		bwUtil = 1
	}
	return m.DRAMStaticW + m.DRAMDynMaxW*bwUtil*bwScale
}

// Breakdown is a power reading split by component. CoreW and UncoreW
// make up the package domain; DRAMW is the separate DRAM domain.
type Breakdown struct {
	CoreW   float64
	UncoreW float64
	DRAMW   float64
}

// PkgW returns total package power (DRAM excluded, as on hardware).
func (b Breakdown) PkgW() float64 { return b.CoreW + b.UncoreW }

// Power evaluates the model at a node state.
func (m Model) Power(s NodeState) Breakdown {
	return m.powerAt(s, m.FreqFactor(s.FreqMHz))
}

// powerAt is Power with the frequency factor of s.FreqMHz given.
func (m Model) powerAt(s NodeState, ff float64) Breakdown {
	return Breakdown{
		CoreW:   m.CorePowerAt(s.EngagedCores, s.IdleCores, ff, s.Duty, s.Activity),
		UncoreW: m.UncorePower(s.BWUtil, s.BWScale),
		DRAMW:   m.DRAMPower(s.BWUtil, s.BWScale),
	}
}

// Meter integrates power over time into energy and keeps an exponentially
// weighted moving average of package power, which is what the RAPL
// controller regulates against.
type Meter struct {
	// model and tauSec are construction configuration.
	model   Model   `snap:"-"`
	tauSec  float64 `snap:"-"` // EWMA time constant
	avgPkgW float64
	havePkg bool
	energyJ float64
	coreJ   float64
	uncoreJ float64
	dramJ   float64
	lastBrk Breakdown

	// Memos of the two transcendentals Observe needs, each kept for the
	// last input and keyed by that input's exact bits, so a hit returns
	// the float a fresh evaluation would. An operating point holds its
	// P-state and the engine its step length for many calls in a row.
	// They are pure functions of model, tauSec and the key, not state.
	ffKey    uint64  `snap:"-"` // math.Float64bits of the last FreqMHz
	ff       float64 `snap:"-"` // model.FreqFactor(FreqMHz)
	decayKey uint64  `snap:"-"` // math.Float64bits of the last dtSec
	decay    float64 `snap:"-"` // math.Exp(-dtSec / tauSec)
}

// NewMeter returns a meter using the model with the given averaging time
// constant (the RAPL window).
func NewMeter(model Model, tauSec float64) *Meter {
	if tauSec <= 0 {
		panic("power: meter needs positive time constant")
	}
	// Both memos start keyed by +0: FreqFactor(0), and exp(-0/τ) = 1.
	return &Meter{model: model, tauSec: tauSec, ff: model.FreqFactor(0), decay: 1}
}

// Observe integrates dtSec of operation at state s.
func (mt *Meter) Observe(s NodeState, dtSec float64) Breakdown {
	if dtSec < 0 {
		panic("power: negative observation interval")
	}
	if k := math.Float64bits(s.FreqMHz); k != mt.ffKey {
		mt.ffKey, mt.ff = k, mt.model.FreqFactor(s.FreqMHz)
	}
	b := mt.model.powerAt(s, mt.ff)
	mt.lastBrk = b
	mt.energyJ += b.PkgW() * dtSec
	mt.coreJ += b.CoreW * dtSec
	mt.uncoreJ += b.UncoreW * dtSec
	mt.dramJ += b.DRAMW * dtSec
	if !mt.havePkg {
		mt.avgPkgW = b.PkgW()
		mt.havePkg = true
	} else {
		// EWMA with per-step decay exp(-dt/tau).
		if k := math.Float64bits(dtSec); k != mt.decayKey {
			mt.decayKey, mt.decay = k, math.Exp(-dtSec/mt.tauSec)
		}
		mt.avgPkgW = mt.avgPkgW*mt.decay + b.PkgW()*(1-mt.decay)
	}
	return b
}

// AvgPkgW returns the running-average package power.
func (mt *Meter) AvgPkgW() float64 { return mt.avgPkgW }

// Last returns the most recent instantaneous breakdown.
func (mt *Meter) Last() Breakdown { return mt.lastBrk }

// EnergyJ returns cumulative package energy in joules.
func (mt *Meter) EnergyJ() float64 { return mt.energyJ }

// ComponentEnergyJ returns cumulative core and uncore energy.
func (mt *Meter) ComponentEnergyJ() (coreJ, uncoreJ float64) {
	return mt.coreJ, mt.uncoreJ
}

// DRAMEnergyJ returns cumulative DRAM-domain energy.
func (mt *Meter) DRAMEnergyJ() float64 { return mt.dramJ }
