// Package cpu models the processor's frequency-control surface: the
// P-state ladder shared by all cores of a package (package-wide DVFS, as
// RAPL actuates it), dynamic duty cycle modulation (DDCM), and the uncore
// memory subsystem whose bandwidth RAPL can scale down at stringent power
// caps (uncore DVFS).
//
// The paper's testbed is a dual-socket Xeon Gold 6126; we model the node
// as a single 24-core package with a 1.0–3.3 GHz range in 100 MHz steps
// (3.3 GHz is the all-core turbo the paper treats as f_max, 1.6 GHz the
// low point used for β characterization).
package cpu

import (
	"fmt"
	"math"
)

// Config describes the frequency-control capabilities of a package.
type Config struct {
	Cores   int
	MinMHz  float64
	NomMHz  float64 // nominal (non-turbo) frequency
	MaxMHz  float64 // maximum all-core turbo
	StepMHz float64 // P-state granularity
}

// DefaultConfig models the paper's Skylake node: 24 cores, 1.0–3.3 GHz in
// 100 MHz steps, 2.6 GHz nominal.
func DefaultConfig() Config {
	return Config{Cores: 24, MinMHz: 1000, NomMHz: 2600, MaxMHz: 3300, StepMHz: 100}
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("cpu: Cores = %d, need >= 1", c.Cores)
	case c.StepMHz <= 0:
		return fmt.Errorf("cpu: StepMHz = %v, need > 0", c.StepMHz)
	case c.MinMHz <= 0 || c.MinMHz > c.NomMHz || c.NomMHz > c.MaxMHz:
		return fmt.Errorf("cpu: frequency range min=%v nom=%v max=%v is not ordered", c.MinMHz, c.NomMHz, c.MaxMHz)
	}
	return nil
}

// Ladder returns the P-state frequencies from MinMHz to MaxMHz inclusive,
// ascending, quantized by StepMHz.
func (c Config) Ladder() []float64 {
	var out []float64
	for f := c.MinMHz; f <= c.MaxMHz+1e-9; f += c.StepMHz {
		out = append(out, math.Round(f/c.StepMHz)*c.StepMHz)
	}
	return out
}

// Quantize snaps a requested frequency onto the ladder, rounding down
// (hardware grants at most the requested performance) and clamping to the
// supported range.
func (c Config) Quantize(mhz float64) float64 {
	if mhz <= c.MinMHz {
		return c.MinMHz
	}
	if mhz >= c.MaxMHz {
		return c.MaxMHz
	}
	return math.Floor(mhz/c.StepMHz) * c.StepMHz
}

// Domain is the package frequency domain: one shared P-state plus a
// package-wide duty cycle. The zero value is unusable; use NewDomain.
type Domain struct {
	// cfg is construction configuration.
	cfg     Config `snap:"-"`
	freq    float64
	duty    float64 // (0,1], 1 = no modulation
	ceiling float64 // 0 = none; else max grantable P-state (throttled part)
}

// NewDomain returns a domain running at maximum turbo with no clock
// modulation (the uncapped state the paper starts every experiment from).
func NewDomain(cfg Config) (*Domain, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Domain{cfg: cfg, freq: cfg.MaxMHz, duty: 1}, nil
}

// Config returns the domain's configuration.
func (d *Domain) Config() Config { return d.cfg }

// CurrentMHz returns the current P-state frequency.
func (d *Domain) CurrentMHz() float64 { return d.freq }

// SetTargetMHz requests a frequency; the granted, quantized value is
// returned. A throttle ceiling, if set, caps the grant regardless of the
// request — exactly as firmware overrides OS P-state requests.
func (d *Domain) SetTargetMHz(mhz float64) float64 {
	d.freq = d.cfg.Quantize(mhz)
	if d.ceiling > 0 && d.freq > d.ceiling {
		d.freq = d.ceiling
	}
	return d.freq
}

// SetCeilingMHz imposes (or, with 0, clears) a frequency ceiling below
// which every grant is clamped — a thermally throttled or degraded part
// that no longer reaches its rated P-states. The current frequency is
// clamped immediately.
func (d *Domain) SetCeilingMHz(mhz float64) {
	if mhz <= 0 {
		d.ceiling = 0
		return
	}
	c := d.cfg.Quantize(mhz)
	d.ceiling = c
	if d.freq > c {
		d.freq = c
	}
}

// CeilingMHz returns the active throttle ceiling (0 when none).
func (d *Domain) CeilingMHz() float64 { return d.ceiling }

// Duty returns the current effective duty cycle.
func (d *Domain) Duty() float64 { return d.duty }

// SetDuty sets the DDCM duty cycle, clamped to [1/16, 1].
func (d *Domain) SetDuty(duty float64) float64 {
	if duty > 1 {
		duty = 1
	}
	if duty < 1.0/16 {
		duty = 1.0 / 16
	}
	d.duty = duty
	return d.duty
}

// EffectiveMHz returns the throughput-equivalent frequency: P-state
// frequency scaled by the duty cycle. Compute time scales with
// 1/EffectiveMHz.
func (d *Domain) EffectiveMHz() float64 { return d.freq * d.duty }

// Uncore models the off-core memory subsystem. BWScale in (0,1] is the
// fraction of full memory bandwidth currently granted; RAPL lowers it at
// stringent caps when the core side alone cannot satisfy the budget.
// These are the "additional means" (§VI-B) the paper's DVFS-only model
// cannot capture.
type Uncore struct {
	bwScale float64
}

// NewUncore returns an uncore at full bandwidth.
func NewUncore() *Uncore { return &Uncore{bwScale: 1} }

// BWScale returns the granted bandwidth fraction.
func (u *Uncore) BWScale() float64 { return u.bwScale }

// SetBWScale clamps and sets the bandwidth fraction. The floor of 0.1
// models the minimum uncore operating point.
func (u *Uncore) SetBWScale(s float64) float64 {
	if s > 1 {
		s = 1
	}
	if s < 0.1 {
		s = 0.1
	}
	u.bwScale = s
	return u.bwScale
}

// MemTimeFactor returns the multiplier applied to memory-stall time under
// the current bandwidth grant (1 at full bandwidth).
func (u *Uncore) MemTimeFactor() float64 { return 1 / u.bwScale }
