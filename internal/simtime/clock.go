// Package simtime provides the virtual time base for the node simulation.
//
// All "per second" semantics in the repository (progress aggregation, the
// 1 Hz power-policy daemon, RAPL averaging windows) are defined against a
// virtual clock so that experiments run deterministically and orders of
// magnitude faster than wall time. The package also provides a small
// event scheduler and a seeded PCG random number generator so that no
// component depends on the global math/rand state.
package simtime

import (
	"fmt"
	"time"
)

// Clock is a virtual clock. The zero value starts at time zero.
//
// Clock is not safe for concurrent use; the simulation engine owns it and
// advances it from a single goroutine.
type Clock struct {
	now time.Duration
}

// NewClock returns a clock positioned at start.
func NewClock(start time.Duration) *Clock {
	return &Clock{now: start}
}

// Now returns the current virtual time as an offset from the simulation
// epoch.
func (c *Clock) Now() time.Duration { return c.now }

// Seconds returns the current virtual time in seconds.
func (c *Clock) Seconds() float64 { return c.now.Seconds() }

// Advance moves the clock forward by d. It panics if d is negative:
// virtual time is monotone by construction, and a negative step always
// indicates a bug in the caller.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative clock advance %v", d))
	}
	c.now += d
}

// AdvanceTo moves the clock to t. It panics if t is in the past.
func (c *Clock) AdvanceTo(t time.Duration) {
	if t < c.now {
		panic(fmt.Sprintf("simtime: clock moved backwards: at %v, asked for %v", c.now, t))
	}
	c.now = t
}

// Ticker fires at a fixed period against a virtual clock. It is the
// virtual-time analogue of time.Ticker, used by the RAPL controller
// (millisecond windows) and the policy daemon (1 Hz).
type Ticker struct {
	// period is construction configuration.
	period time.Duration `snap:"-"`
	next   time.Duration
}

// NewTicker returns a ticker with the given period whose first fire time
// is start+period.
func NewTicker(start, period time.Duration) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("simtime: ticker period must be positive, got %v", period))
	}
	return &Ticker{period: period, next: start + period}
}

// Period returns the ticker period.
func (t *Ticker) Period() time.Duration { return t.period }

// Next returns the next fire time.
func (t *Ticker) Next() time.Duration { return t.next }

// FiredAt reports whether the ticker fires at or before now, and if so
// consumes exactly one fire. Callers that may skip far ahead should loop.
func (t *Ticker) FiredAt(now time.Duration) bool {
	if now < t.next {
		return false
	}
	t.next += t.period
	return true
}

// CatchUp consumes every pending fire up to and including now and returns
// how many fired. It is used when an engine advances in coarse steps.
func (t *Ticker) CatchUp(now time.Duration) int {
	n := 0
	for t.FiredAt(now) {
		n++
	}
	return n
}
