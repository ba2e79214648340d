package engine

import (
	"fmt"
	"time"

	"progresscap/internal/msr"
)

// InvariantConfig bounds the engine-level safety invariants. The checker
// is the run-time analogue of the property tests: it watches the *live*
// register file and energy accounting once per aggregation window, so a
// chaos run (daemon kills, fault injection, replayed journals) can
// assert that no sequence of failures ever drove the plant outside its
// safety envelope.
type InvariantConfig struct {
	// MinCapW / TDPW bound any *enabled* package cap: below MinCapW a
	// cap is un-runnable (the core floor alone exceeds it), above TDPW
	// it is fictional. Defaults: 20 W and 200 W.
	MinCapW float64
	TDPW    float64
	// MaxPowerW is the plausibility ceiling for a window-average package
	// power — a wrap-mishandled energy counter shows up as petawatts
	// long before anything else notices. Default 400 W.
	MaxPowerW float64
	// MaxCapWritesPerSec bounds the PKG_POWER_LIMIT actuation rate: the
	// policy plane acts on second scales, so a cap register being
	// rewritten hundreds of times a second means a control loop is
	// flapping. Default 10/s (plus a fixed slack of 2 per window).
	MaxCapWritesPerSec float64
}

func (c *InvariantConfig) fillDefaults() {
	if c.MinCapW == 0 {
		c.MinCapW = 20
	}
	if c.TDPW == 0 {
		c.TDPW = 200
	}
	if c.MaxPowerW == 0 {
		c.MaxPowerW = 400
	}
	if c.MaxCapWritesPerSec == 0 {
		c.MaxCapWritesPerSec = 10
	}
}

// InvariantViolation is one detected breach of the safety envelope.
type InvariantViolation struct {
	At     time.Duration
	Rule   string // "cap-range", "energy-monotonic", "power-plausible", "actuation-rate"
	Detail string
}

func (v InvariantViolation) String() string {
	return fmt.Sprintf("%v: %s: %s", v.At, v.Rule, v.Detail)
}

// invariantChecker holds the checker's window-to-window state.
type invariantChecker struct {
	// cfg is construction configuration.
	cfg        InvariantConfig `snap:"-"`
	lastTotalJ float64
	lastRawSet bool
	lastRaw    uint64
	lastSeq    uint64
	violations []InvariantViolation
}

// EnableInvariants installs the engine-level invariant checker. It runs
// once per aggregation window; tests enable it unconditionally and the
// experiment harness enables it behind Options.CheckInvariants. Call
// before the first Advance.
func (e *Engine) EnableInvariants(cfg InvariantConfig) {
	cfg.fillDefaults()
	e.inv = &invariantChecker{
		cfg:     cfg,
		lastSeq: e.dev.WriteSeq(msr.PkgPowerLimit),
	}
}

// InvariantViolations returns every breach detected so far (nil when the
// checker is disabled or the run stayed inside the envelope).
func (e *Engine) InvariantViolations() []InvariantViolation {
	if e.inv == nil {
		return nil
	}
	return e.inv.violations
}

// checkInvariants runs the per-window checks; flushWindow calls it after
// the window's energy accounting settles.
func (e *Engine) checkInvariants(now time.Duration, winSec, windowAvgW float64) {
	ic := e.inv
	add := func(rule, format string, args ...interface{}) {
		ic.violations = append(ic.violations, InvariantViolation{
			At: now, Rule: rule, Detail: fmt.Sprintf(format, args...),
		})
	}

	// 1. Any enabled cap must be runnable and physical: within
	// [MinCapW, TDPW]. An unreadable register (injected EIO) skips the
	// check rather than inventing a violation.
	if raw, err := e.dev.Read(msr.PkgPowerLimit); err == nil {
		unitRaw, uerr := e.dev.Read(msr.RaplPowerUnit)
		if uerr == nil {
			pl1, _ := msr.DecodePowerLimits(raw, msr.DecodeUnits(unitRaw))
			if pl1.Enabled && (pl1.Watts < ic.cfg.MinCapW || pl1.Watts > ic.cfg.TDPW) {
				add("cap-range", "enabled cap %.1f W outside [%.0f, %.0f] W",
					pl1.Watts, ic.cfg.MinCapW, ic.cfg.TDPW)
			}
		}
	}

	// 2. Wrap-corrected energy must be monotone: the meter integral
	// never decreases, and the raw 32-bit register walks forward by the
	// same wrap-corrected amount the meter accounted (within the
	// window's plausibility bound).
	totalJ := e.meter.EnergyJ()
	if totalJ < ic.lastTotalJ {
		add("energy-monotonic", "meter energy went backwards: %.3f J -> %.3f J", ic.lastTotalJ, totalJ)
	}
	ic.lastTotalJ = totalJ
	if raw, err := e.dev.Read(msr.PkgEnergyStatus); err == nil {
		unitRaw, uerr := e.dev.Read(msr.RaplPowerUnit)
		if uerr == nil {
			if ic.lastRawSet {
				dj := msr.DeltaJoules(ic.lastRaw, raw, msr.DecodeUnits(unitRaw))
				if dj > ic.cfg.MaxPowerW*winSec*2 {
					add("energy-monotonic", "register delta %.1f J implies >%.0f W over %.2fs window (wrap mis-corrected?)",
						dj, 2*ic.cfg.MaxPowerW, winSec)
				}
			}
			ic.lastRaw = raw
			ic.lastRawSet = true
		}
	}

	// 3. Window-average package power must be physical.
	if windowAvgW < 0 || windowAvgW > ic.cfg.MaxPowerW {
		add("power-plausible", "window-average package power %.1f W outside [0, %.0f] W",
			windowAvgW, ic.cfg.MaxPowerW)
	}

	// 4. Bounded actuation rate on the cap register.
	seq := e.dev.WriteSeq(msr.PkgPowerLimit)
	writes := seq - ic.lastSeq
	ic.lastSeq = seq
	if limit := ic.cfg.MaxCapWritesPerSec*winSec + 2; float64(writes) > limit {
		add("actuation-rate", "%d cap writes in a %.2fs window (limit %.0f)", writes, winSec, limit)
	}
}
