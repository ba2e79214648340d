// Package policy implements the paper's *power-policy* tool (§V-B): a
// daemon that monitors power and applies a dynamic power-capping scheme
// to the package domain once every second, through the whitelisted MSR
// interface.
//
// The three schemes from the paper are provided — linearly decreasing,
// step function, and jagged edge — plus constant and uncapped schemes the
// evaluation harness uses.
package policy

import (
	"fmt"
	"math"
	"time"

	"progresscap/internal/trace"
)

// Uncapped is the watts value meaning "no limit".
const Uncapped = 0

// Scheme computes the package power cap as a function of time since the
// scheme started. A zero return (Uncapped) disables the limit.
type Scheme interface {
	Name() string
	// CapAt returns the cap in watts at elapsed time t.
	CapAt(t time.Duration) float64
}

// Constant applies a fixed cap forever.
type Constant struct {
	Watts float64
}

// Name implements Scheme.
func (c Constant) Name() string { return fmt.Sprintf("constant(%gW)", c.Watts) }

// CapAt implements Scheme.
func (c Constant) CapAt(time.Duration) float64 { return c.Watts }

// NoCap never caps.
type NoCap struct{}

// Name implements Scheme.
func (NoCap) Name() string { return "uncapped" }

// CapAt implements Scheme.
func (NoCap) CapAt(time.Duration) float64 { return Uncapped }

// Linear is the paper's linearly decreasing scheme: the node starts
// uncapped; after Delay the cap starts at StartW and decreases by
// RateWPerSec until it reaches MinW, where it stays.
type Linear struct {
	Delay       time.Duration
	StartW      float64
	MinW        float64
	RateWPerSec float64
}

// Name implements Scheme.
func (l Linear) Name() string { return "linear-decrease" }

// CapAt implements Scheme.
func (l Linear) CapAt(t time.Duration) float64 {
	if t < l.Delay {
		return Uncapped
	}
	w := l.StartW - l.RateWPerSec*(t-l.Delay).Seconds()
	if w < l.MinW {
		return l.MinW
	}
	return w
}

// Step is the paper's step-function scheme: the cap alternates between an
// uncapped (or high) level and a low level. Each level holds for
// HighFor / LowFor respectively, starting high.
type Step struct {
	HighW   float64 // Uncapped for a fully uncapped high phase
	LowW    float64
	HighFor time.Duration
	LowFor  time.Duration
}

// Name implements Scheme.
func (s Step) Name() string { return "step-function" }

// CapAt implements Scheme.
func (s Step) CapAt(t time.Duration) float64 {
	period := s.HighFor + s.LowFor
	if period <= 0 {
		return s.LowW
	}
	into := t % period
	if into < s.HighFor {
		return s.HighW
	}
	return s.LowW
}

// Jagged is the paper's jagged-edge scheme: the cap decreases linearly
// from an uncapped level to LowW and then snaps back to uncapped,
// repeating. The descent takes FallFor; the snap-back is immediate, with
// one interval uncapped at the top of each tooth.
type Jagged struct {
	StartW      float64
	LowW        float64
	FallFor     time.Duration
	UncappedFor time.Duration
}

// Name implements Scheme.
func (j Jagged) Name() string { return "jagged-edge" }

// CapAt implements Scheme.
func (j Jagged) CapAt(t time.Duration) float64 {
	period := j.UncappedFor + j.FallFor
	if period <= 0 {
		return j.LowW
	}
	into := t % period
	if into < j.UncappedFor {
		return Uncapped
	}
	frac := (into - j.UncappedFor).Seconds() / j.FallFor.Seconds()
	w := j.StartW - (j.StartW-j.LowW)*frac
	return math.Max(w, j.LowW)
}

// CapWriter is the actuation seam the daemon programs caps through.
// rapl.Writer is the implementation every run uses: the plain register
// path with one transient-EIO retry, or, with its Act set, the hardened
// rapl.Actuator for retry/backoff/failover semantics or the sysfs
// backend.
type CapWriter interface {
	// WriteCap programs the cap (watts <= 0 releases it) with the given
	// RAPL averaging window at virtual time now.
	WriteCap(now time.Duration, watts float64, window time.Duration) error
}

// Daemon applies a scheme to the package power limit at a fixed interval
// (the paper's tool acts once every second). The engine drives it with
// Apply at each policy tick of virtual time.
type Daemon struct {
	// writer is wiring; scheme (a stateless value), interval and window
	// are construction configuration.
	writer   CapWriter     `snap:"-"`
	scheme   Scheme        `snap:"-"`
	interval time.Duration `snap:"-"`
	window   time.Duration `snap:"-"`
	start    time.Duration
	started  bool
	capTrace *trace.Series
	applied  uint64
}

// NewDaemon returns a daemon applying scheme through w. interval is the
// actuation period (1 s in the paper); window the RAPL averaging window
// programmed alongside the cap.
func NewDaemon(w CapWriter, scheme Scheme, interval, window time.Duration) (*Daemon, error) {
	if w == nil {
		return nil, fmt.Errorf("policy: nil cap writer")
	}
	if scheme == nil {
		return nil, fmt.Errorf("policy: nil scheme")
	}
	if interval <= 0 || window <= 0 {
		return nil, fmt.Errorf("policy: non-positive interval/window")
	}
	return &Daemon{
		writer:   w,
		scheme:   scheme,
		interval: interval,
		window:   window,
		capTrace: trace.NewSeries("powercap."+scheme.Name(), "W"),
	}, nil
}

// Interval returns the actuation period.
func (d *Daemon) Interval() time.Duration { return d.interval }

// Scheme returns the active scheme.
func (d *Daemon) Scheme() Scheme { return d.scheme }

// CapTrace returns the series of applied caps (0 = uncapped).
func (d *Daemon) CapTrace() *trace.Series { return d.capTrace }

// Applied returns how many MSR writes the daemon has performed.
func (d *Daemon) Applied() uint64 { return d.applied }

// Apply evaluates the scheme at virtual time now and programs the power
// limit. The first call anchors the scheme's t=0.
func (d *Daemon) Apply(now time.Duration) error {
	if !d.started {
		d.start = now
		d.started = true
	}
	capW := d.scheme.CapAt(now - d.start)
	if err := d.writer.WriteCap(now, capW, d.window); err != nil {
		return fmt.Errorf("policy: applying %s at %v: %w", d.scheme.Name(), now, err)
	}
	d.applied++
	d.capTrace.Add(now, capW)
	return nil
}
