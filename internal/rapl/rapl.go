// Package rapl emulates Intel's Running Average Power Limit for the
// package domain.
//
// The controller regulates the exponentially weighted average package
// power against the cap programmed in MSR_PKG_POWER_LIMIT, the way the
// paper's power-policy daemon drives real RAPL through libmsr. Its
// observable behaviours reproduce what the paper measures:
//
//   - Application-aware budgeting (Fig 2): the cap is split between core
//     and uncore according to the application's demand — a compute-bound
//     code gets its uncore's small demand reserved and the rest of the
//     budget as core power (high frequency); a bandwidth-bound code loses
//     a large uncore reservation first (lower frequency).
//   - P-state actuation: the core budget is converted to the highest
//     100 MHz P-state that fits, producing the quantization plateaus the
//     paper observes for AMG (Fig 4b).
//   - Non-DVFS means at stringent caps: below the minimum P-state the
//     controller engages duty-cycle modulation, and when even the core
//     floor exceeds the remaining budget it scales uncore bandwidth down.
//     These are the "additional means ... not captured by our model"
//     behind the paper's STREAM result (Fig 4d, Fig 5).
//
// The controller never inspects simulator internals directly: it observes
// the node through the power meter and demand statistics, and actuates
// only the frequency domain, duty cycle, and uncore grant — then reflects
// state back into the MSR device (PERF_STATUS, PKG_ENERGY_STATUS) for the
// policy side to read.
package rapl

import (
	"fmt"
	"math"
	"time"

	"progresscap/internal/cpu"
	"progresscap/internal/msr"
	"progresscap/internal/power"
	"progresscap/internal/stats"
)

// Options tunes the controller.
type Options struct {
	// ControlPeriod is how often the controller re-actuates. Real RAPL
	// acts on millisecond scales; 1 ms is the default.
	ControlPeriod time.Duration
	// DemandTau is the time constant of the demand EWMAs (activity,
	// bandwidth, engaged cores).
	DemandTau time.Duration
	// TrimGain is the integral gain of the feedback trim that absorbs
	// model mismatch between the controller's budget arithmetic and the
	// meter.
	TrimGain float64
	// TrimLimitW bounds the integral trim.
	TrimLimitW float64
}

// DefaultOptions returns the standard controller tuning.
func DefaultOptions() Options {
	return Options{
		ControlPeriod: time.Millisecond,
		DemandTau:     5 * time.Millisecond,
		TrimGain:      0.10,
		TrimLimitW:    25,
	}
}

// Controller is the emulated RAPL package-domain controller.
type Controller struct {
	dev        *msr.Device
	domain     *cpu.Domain
	uncore     *cpu.Uncore
	model      power.Model
	meter      *power.Meter
	opts       Options
	units      msr.Units
	energy     *msr.EnergyCounter
	dramEnergy *msr.EnergyCounter

	// Demand EWMAs.
	engaged  float64
	idle     float64
	activity float64
	bwUtil   float64
	seeded   bool

	// Fast power average for PL2 (burst) enforcement.
	fastAvgW   float64
	fastSeeded bool

	trimW  float64
	manual bool

	// published is the PERF_STATUS ratio last poked into every core, valid
	// once havePublished is set; publishStatus skips the per-core pokes
	// while the ratio is unchanged.
	published     uint64
	havePublished bool

	// Quiescence tracking: uncappedIdle records that the last Control
	// found no enabled PL1 limit (from a successful register read) and
	// parked the domain at its maximum operating point; idleSeq is the
	// PKG_POWER_LIMIT write sequence it saw. While both still hold,
	// Control calls are no-ops and the engine may skip them. See
	// Quiescent.
	uncappedIdle bool
	idleSeq      uint64

	// Deadman state (nil = disarmed): see deadman.go.
	deadman      *Deadman
	armSeq       uint64
	armAge       time.Duration
	tripped      bool
	deadmanTrips uint64
}

// fastTau is the time constant of the PL2 burst average (real PL2
// windows are on the order of milliseconds).
const fastTau = 2 * time.Millisecond

// New wires a controller to its hardware. The meter's averaging constant
// is the RAPL window; the PKG_POWER_LIMIT window field is informational
// in this emulation.
func New(dev *msr.Device, domain *cpu.Domain, uncore *cpu.Uncore, model power.Model, meter *power.Meter, opts Options) (*Controller, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if opts.ControlPeriod <= 0 || opts.DemandTau <= 0 {
		return nil, fmt.Errorf("rapl: non-positive time constants in options")
	}
	raw, err := dev.Read(msr.RaplPowerUnit)
	if err != nil {
		return nil, fmt.Errorf("rapl: reading unit register: %w", err)
	}
	u := msr.DecodeUnits(raw)
	return &Controller{
		dev:        dev,
		domain:     domain,
		uncore:     uncore,
		model:      model,
		meter:      meter,
		opts:       opts,
		units:      u,
		energy:     msr.NewEnergyCounter(u),
		dramEnergy: msr.NewEnergyCounter(u),
	}, nil
}

// ControlPeriod returns the controller's actuation period.
func (c *Controller) ControlPeriod() time.Duration { return c.opts.ControlPeriod }

// SeedEnergy positions the package energy counter at an arbitrary raw
// value and reflects it into the MSR, so a run starts mid-count the way a
// long-booted node does. Fault plans use it to force an early 32-bit
// wraparound; readers using wrap-safe deltas (EnergyReader) are
// unaffected, cumulative-from-zero readers break.
func (c *Controller) SeedEnergy(raw uint64) {
	c.energy.SeedRaw(raw)
	c.dev.Poke(msr.PkgEnergyStatus, c.energy.Raw())
}

// SetManual switches the controller into manual mode: it keeps updating
// status registers but stops actuating frequency, duty, and bandwidth.
// This is how the direct-DVFS power limiting technique (Fig 5) takes over
// the frequency domain.
func (c *Controller) SetManual(m bool) { c.manual = m }

// Observe integrates one engine tick: it feeds the power meter, advances
// the RAPL energy counter, and updates the demand EWMAs the next Control
// call budgets from.
func (c *Controller) Observe(s power.NodeState, dt time.Duration) power.Breakdown {
	c.tickDeadman(dt)
	b := c.meter.Observe(s, dt.Seconds())
	c.energy.AddJoules(b.PkgW() * dt.Seconds())
	c.dev.Poke(msr.PkgEnergyStatus, c.energy.Raw())
	c.dramEnergy.AddJoules(b.DRAMW * dt.Seconds())
	c.dev.Poke(msr.DramEnergyStatus, c.dramEnergy.Raw())

	if !c.fastSeeded {
		c.fastAvgW = b.PkgW()
		c.fastSeeded = true
	} else {
		decay := math.Exp(-dt.Seconds() / fastTau.Seconds())
		c.fastAvgW = c.fastAvgW*decay + b.PkgW()*(1-decay)
	}

	if !c.seeded {
		c.engaged = float64(s.EngagedCores)
		c.idle = float64(s.IdleCores)
		c.activity = s.Activity
		c.bwUtil = s.BWUtil
		c.seeded = true
		return b
	}
	decay := math.Exp(-dt.Seconds() / c.opts.DemandTau.Seconds())
	blend := func(old, new float64) float64 { return old*decay + new*(1-decay) }
	c.engaged = blend(c.engaged, float64(s.EngagedCores))
	c.idle = blend(c.idle, float64(s.IdleCores))
	c.activity = blend(c.activity, s.Activity)
	c.bwUtil = blend(c.bwUtil, s.BWUtil)
	return b
}

// Limit returns the currently programmed PL1 (sustained) power limit.
func (c *Controller) Limit() (msr.PowerLimit, error) {
	pl1, _, err := c.Limits()
	return pl1, err
}

// Limits returns both programmed power-limit windows.
func (c *Controller) Limits() (pl1, pl2 msr.PowerLimit, err error) {
	raw, err := c.dev.Read(msr.PkgPowerLimit)
	if err != nil {
		return msr.PowerLimit{}, msr.PowerLimit{}, err
	}
	pl1, pl2 = msr.DecodePowerLimits(raw, c.units)
	return pl1, pl2, nil
}

// Control runs one actuation step. The engine calls it every
// ControlPeriod of virtual time.
func (c *Controller) Control() {
	defer c.publishStatus()
	if c.manual {
		return
	}
	pl1, pl2, err := c.Limits()
	if err != nil {
		// An unreadable limit register means an uncapped package.
		pl1, pl2 = msr.PowerLimit{}, msr.PowerLimit{}
	}
	if !pl1.Enabled || pl1.Watts <= 0 {
		c.domain.SetTargetMHz(c.domain.Config().MaxMHz)
		c.domain.SetDuty(1)
		c.uncore.SetBWScale(1)
		c.trimW = 0
		// Quiescent only on a clean read: a transient read fault must keep
		// the controller polling at full rate, since the register may hold
		// an enforceable cap it simply could not see this period.
		c.uncappedIdle = err == nil
		c.idleSeq = c.dev.WriteSeq(msr.PkgPowerLimit)
		return
	}
	c.uncappedIdle = false
	c.enforce(pl1.Watts)

	// PL2 burst protection: if the short-window average breaches the
	// burst limit, back the P-state off immediately, overriding the PL1
	// budgeting until the burst subsides.
	if pl2.Enabled && pl2.Watts > 0 && c.fastAvgW > pl2.Watts {
		c.domain.SetTargetMHz(c.domain.CurrentMHz() - 2*c.domain.Config().StepMHz)
	}
}

// enforce implements the budgeting described in the package comment.
func (c *Controller) enforce(capW float64) {
	cfg := c.domain.Config()
	nEng := int(math.Round(c.engaged))
	nIdle := cfg.Cores - nEng
	if nIdle < 0 {
		nIdle = 0
	}
	act := stats.Clamp(c.activity, 0, 1)

	// Measured uncore draw. Using the measured (post-throttle) value
	// rather than an unobservable "demand" keeps the loop stable when
	// the memory subsystem is saturated.
	uncoreW := c.meter.Last().UncoreW
	uncoreDynMeas := math.Max(0, uncoreW-c.model.UncoreStaticW)
	curScale := c.uncore.BWScale()
	bwScale := math.Min(1, curScale*1.02) // default: gradual recovery

	// Step 1: proportional core/uncore budgeting. When the uncore is a
	// significant consumer, RAPL grants it the (1 − boundedness) share of
	// the cap — the split the paper assumes in Eq. 5 — rather than its
	// full demand. This is what makes RAPL a non-optimal limiting
	// technique for memory-bound codes (Fig 5): plain DVFS leaves the
	// memory subsystem alone at the same package power. The boundedness
	// estimate must be invariant to the controller's own actuation
	// (throttling inflates stall time and depresses raw activity), so it
	// is normalized back to full bandwidth and maximum frequency.
	const significantUncoreW = 5
	if uncoreDynMeas > significantUncoreW {
		betaHat := c.boundedness(act, cfg.MaxMHz)
		allowDyn := (1-betaHat)*capW - c.model.UncoreStaticW
		if allowDyn < uncoreDynMeas {
			if allowDyn < 0 {
				allowDyn = 0
			}
			bwScale = stats.Clamp(curScale*allowDyn/uncoreDynMeas, 0.1, 1)
		}
	}
	predictUncore := func(scale float64) float64 {
		if curScale <= 0 {
			return c.model.UncoreStaticW
		}
		return c.model.UncoreStaticW + uncoreDynMeas*scale/curScale
	}
	coreBudget := capW - predictUncore(bwScale) + c.trimW

	// Step 2: if the core floor (minimum P-state, full duty) still does
	// not fit, squeeze uncore bandwidth further to make room.
	coreFloorW := c.model.CorePower(nEng, nIdle, cfg.MinMHz, 1, act)
	if coreBudget < coreFloorW && nEng > 0 {
		uncoreDynBudget := capW - coreFloorW - c.model.UncoreStaticW
		switch {
		case uncoreDynBudget <= 0:
			bwScale = 0.1
		case uncoreDynMeas > 0.1:
			bwScale = stats.Clamp(
				math.Min(bwScale, curScale*uncoreDynBudget/uncoreDynMeas), 0.1, 1)
		}
		coreBudget = capW - predictUncore(bwScale) + c.trimW
	}

	// Step 3: P-state actuation; duty-cycle modulation below the floor.
	f, ok := c.model.FreqForCoreBudget(coreBudget, nEng, nIdle, act, cfg.MinMHz, cfg.MaxMHz)
	granted := c.domain.SetTargetMHz(f)

	// Step 4: uncore frequency coupling. Under an enabled cap the
	// hardware scales the uncore clock down alongside the core P-state,
	// costing memory bandwidth that plain core DVFS would not give up —
	// part of why RAPL underperforms DVFS for STREAM at equal power
	// (Fig 5) and why the DVFS-only model underestimates RAPL's impact on
	// memory-bound code (Fig 4d).
	coupled := 0.55 + 0.45*granted/cfg.MaxMHz
	if coupled < bwScale {
		bwScale = coupled
	}
	c.uncore.SetBWScale(bwScale)
	if ok || nEng == 0 {
		c.domain.SetDuty(1)
	} else {
		static := float64(nEng+nIdle) * c.model.CoreStaticW
		dynAtMin := float64(nEng) * c.model.CoreDynMaxW * c.model.ActivityFactor(act) *
			math.Pow(cfg.MinMHz/c.model.RefMHz, c.model.AlphaHW)
		duty := 1.0
		if dynAtMin > 0 {
			duty = (coreBudget - static) / dynAtMin
		}
		c.domain.SetDuty(stats.Clamp(duty, 1.0/16, 1))
	}

	// Step 4: integral trim against the measured running average.
	errW := capW - c.meter.AvgPkgW()
	c.trimW = stats.Clamp(c.trimW+c.opts.TrimGain*errW, -c.opts.TrimLimitW, c.opts.TrimLimitW)
}

// Quiescent reports whether skipping Control calls until the next
// PKG_POWER_LIMIT write would be observationally identical to running
// them every period. That holds in manual mode (Control only republishes
// an operating point nothing actuates) and while the package is uncapped
// with the domain already parked at maximum — the uncapped branch of
// Control is then a fixed point. An armed deadman is never quiescent: its
// TTL expiry reverts the cap via Poke, which deliberately leaves the
// write sequence untouched and so would be invisible to this check.
//
// The check reads only write-sequence metadata, never the register value,
// so it draws no fault-injection randomness and is identical between the
// macro-stepping and fixed-tick engine modes.
func (c *Controller) Quiescent() bool {
	if c.deadman != nil {
		return false
	}
	if c.manual {
		return true
	}
	return c.uncappedIdle && c.dev.WriteSeq(msr.PkgPowerLimit) == c.idleSeq
}

// boundedness converts the observed compute activity into an estimate of
// the application's compute-boundedness at the reference operating point
// (full bandwidth grant, maximum frequency). Observed activity is the
// compute share of busy time; stall share shrinks when bandwidth is
// throttled back to full grant, and compute share shrinks when frequency
// is raised back to maximum.
func (c *Controller) boundedness(act, maxMHz float64) float64 {
	stallFull := (1 - act) * c.uncore.BWScale()
	if act+stallFull <= 0 {
		return 1
	}
	actFull := act / (act + stallFull) // activity at full bandwidth, current f
	fRel := c.domain.CurrentMHz() / maxMHz
	ct := actFull * fRel // compute share rescaled to fmax
	if ct+(1-actFull) <= 0 {
		return 1
	}
	return stats.Clamp(ct/(ct+(1-actFull)), 0, 1)
}

// publishStatus reflects the operating point into read-only MSRs. Only
// the controller pokes PERF_STATUS, so a ratio equal to the last one
// published is already in every core's register.
func (c *Controller) publishStatus() {
	ratio := msr.RatioFromMHz(c.domain.CurrentMHz())
	if c.havePublished && ratio == c.published {
		return
	}
	for cpuIdx := 0; cpuIdx < c.dev.Cores(); cpuIdx++ {
		c.dev.PokeCore(cpuIdx, msr.PerfStatus, ratio)
	}
	c.published, c.havePublished = ratio, true
}

// WriteLimit is the policy-side helper: it encodes and writes the package
// power limit through the whitelisted MSR interface, exactly as the
// paper's power-policy tool does via libmsr. A zero watts value disables
// the limit (uncapped). Alongside the PL1 sustained limit it programs
// the conventional PL2 burst window at 1.2× PL1 with a quarter of the
// averaging window.
func WriteLimit(dev *msr.Device, watts float64, window time.Duration) error {
	return WriteLimits(dev, watts, window, watts*1.2, window/4)
}

// WriteLimits programs both power-limit windows explicitly. Zero pl1
// watts disables capping entirely.
func WriteLimits(dev *msr.Device, pl1W float64, pl1Window time.Duration, pl2W float64, pl2Window time.Duration) error {
	pl1 := msr.PowerLimit{
		Watts:         pl1W,
		Enabled:       pl1W > 0,
		Clamp:         pl1W > 0,
		WindowSeconds: pl1Window.Seconds(),
	}
	pl2 := msr.PowerLimit{
		Watts:         pl2W,
		Enabled:       pl1W > 0 && pl2W > 0,
		Clamp:         pl1W > 0 && pl2W > 0,
		WindowSeconds: pl2Window.Seconds(),
	}
	raw, err := dev.Read(msr.RaplPowerUnit)
	if err != nil {
		return err
	}
	return dev.Write(msr.PkgPowerLimit, msr.EncodePowerLimits(pl1, pl2, msr.DecodeUnits(raw)))
}

// WriteLimitRetry is WriteLimit hardened for transient MSR failures: an
// ErrIO is retried once before being reported. Persistent failures still
// surface so the policy layer can enter its degraded path.
func WriteLimitRetry(dev *msr.Device, watts float64, window time.Duration) error {
	_, err := WriteLimitRetryN(dev, watts, window)
	return err
}

// WriteLimitRetryN is WriteLimitRetry reporting how many retries the
// write needed (0 or 1), so policy layers can expose an EIO-retry
// counter instead of burying transient faults in logs.
func WriteLimitRetryN(dev *msr.Device, watts float64, window time.Duration) (retries int, err error) {
	err = WriteLimit(dev, watts, window)
	if err == msr.ErrIO {
		retries = 1
		err = WriteLimit(dev, watts, window)
	}
	return retries, err
}

// EnergyReader accumulates package energy from the wrapping
// PKG_ENERGY_STATUS register with degraded-signal semantics: each Advance
// computes a wraparound-safe delta from the previous raw reading, retries
// a transient ErrIO once, and on persistent failure carries the last good
// raw value forward so the next successful read recovers the missed
// energy (the counter keeps accumulating through the outage; only reads
// fail). This replaces cumulative-from-zero reads, which a mid-run seed
// (SeedEnergy) or a 32-bit wrap silently corrupts.
type EnergyReader struct {
	dev     *msr.Device
	prevRaw uint64
	primed  bool
	totalJ  float64
	// Failures counts Advance calls that exhausted the retry, i.e.
	// intervals whose energy was deferred to the next good read.
	failures uint64
}

// NewEnergyReader returns a reader primed at the register's current
// value, so the first Advance measures only energy consumed after
// construction — regardless of where the counter was seeded.
func NewEnergyReader(dev *msr.Device) *EnergyReader {
	r := &EnergyReader{dev: dev}
	if raw, err := readRetry(dev, msr.PkgEnergyStatus); err == nil {
		r.prevRaw = raw
		r.primed = true
	}
	return r
}

// Advance reads the counter and returns the joules consumed since the
// previous successful read. On persistent read failure it returns 0 and a
// nil error — the energy is not lost, it is attributed to the interval
// ending at the next good read.
func (r *EnergyReader) Advance() float64 {
	raw, err := readRetry(r.dev, msr.PkgEnergyStatus)
	if err != nil {
		r.failures++
		return 0
	}
	if !r.primed {
		r.prevRaw = raw
		r.primed = true
		return 0
	}
	unitRaw, err := readRetry(r.dev, msr.RaplPowerUnit)
	if err != nil {
		r.failures++
		return 0
	}
	dj := msr.DeltaJoules(r.prevRaw, raw, msr.DecodeUnits(unitRaw))
	r.prevRaw = raw
	r.totalJ += dj
	return dj
}

// TotalJ returns the energy accumulated across all Advance calls.
func (r *EnergyReader) TotalJ() float64 { return r.totalJ }

// Failures returns how many Advance calls failed even after retry.
func (r *EnergyReader) Failures() uint64 { return r.failures }

// readRetry reads an MSR, retrying a transient ErrIO once.
func readRetry(dev *msr.Device, addr uint32) (uint64, error) {
	v, err := dev.Read(addr)
	if err == msr.ErrIO {
		v, err = dev.Read(addr)
	}
	return v, err
}

// ReadEnergyJ returns the cumulative package energy recorded in the MSR,
// handling counter wraparound relative to a previous raw reading. It
// returns the new raw value for the next call.
func ReadEnergyJ(dev *msr.Device, prevRaw uint64) (joules float64, raw uint64, err error) {
	return readDomainEnergyJ(dev, msr.PkgEnergyStatus, prevRaw)
}

// ReadDRAMEnergyJ is ReadEnergyJ for the DRAM domain.
func ReadDRAMEnergyJ(dev *msr.Device, prevRaw uint64) (joules float64, raw uint64, err error) {
	return readDomainEnergyJ(dev, msr.DramEnergyStatus, prevRaw)
}

func readDomainEnergyJ(dev *msr.Device, addr uint32, prevRaw uint64) (float64, uint64, error) {
	unitRaw, err := dev.Read(msr.RaplPowerUnit)
	if err != nil {
		return 0, prevRaw, err
	}
	raw, err := dev.Read(addr)
	if err != nil {
		return 0, prevRaw, err
	}
	return msr.DeltaJoules(prevRaw, raw, msr.DecodeUnits(unitRaw)), raw, nil
}
