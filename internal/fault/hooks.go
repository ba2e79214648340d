package fault

import (
	"time"

	"progresscap/internal/counters"
	"progresscap/internal/msr"
	"progresscap/internal/simtime"
)

// MSR perturbs model-specific-register accesses through msr.Device's
// fault hook.
type MSR struct {
	// plan is construction configuration.
	plan MSRPlan `snap:"-"`
	rng  *simtime.RNG

	staleServed uint64
	readEIO     uint64
	writeEIO    uint64
}

func newMSR(plan MSRPlan, rng *simtime.RNG) *MSR {
	return &MSR{plan: plan, rng: rng}
}

// Enabled reports whether the injector can perturb anything.
func (f *MSR) Enabled() bool { return f.plan.Enabled() }

// EnergyWrapRaw returns the raw seed for RAPL energy counters (0 when the
// plan does not request an early wraparound).
func (f *MSR) EnergyWrapRaw() uint64 { return f.plan.EnergyWrapRaw }

// Hook returns the msr.FaultHook implementing the plan, or nil when the
// plan injects no access faults — installing nil keeps the device on its
// zero-overhead fast path.
func (f *MSR) Hook() msr.FaultHook {
	if f.plan.StaleReadRate <= 0 && f.plan.ReadEIORate <= 0 && f.plan.WriteEIORate <= 0 {
		return nil
	}
	return func(op msr.FaultOp, addr uint32) msr.FaultClass {
		if op == msr.OpWrite {
			if f.plan.WriteEIORate > 0 && f.rng.Float64() < f.plan.WriteEIORate {
				f.writeEIO++
				return msr.FaultEIO
			}
			return msr.FaultNone
		}
		if f.plan.ReadEIORate > 0 && f.rng.Float64() < f.plan.ReadEIORate {
			f.readEIO++
			return msr.FaultEIO
		}
		if f.plan.StaleReadRate > 0 && f.rng.Float64() < f.plan.StaleReadRate {
			f.staleServed++
			return msr.FaultStale
		}
		return msr.FaultNone
	}
}

// Stats returns the injector's fault counts.
func (f *MSR) Stats() (stale, readEIO, writeEIO uint64) {
	return f.staleServed, f.readEIO, f.writeEIO
}

// Counters perturbs hardware-event-counter observations through
// counters.Bank's read hook.
type Counters struct {
	// plan is construction configuration.
	plan CounterPlan `snap:"-"`
	rng  *simtime.RNG

	glitches uint64
	spike    bool
}

func newCounters(plan CounterPlan, rng *simtime.RNG) *Counters {
	if plan.GlitchScale <= 0 {
		plan.GlitchScale = 1024
	}
	return &Counters{plan: plan, rng: rng}
}

// Enabled reports whether the injector can perturb anything.
func (f *Counters) Enabled() bool { return f.plan.Enabled() }

// Hook returns the counters.ReadHook implementing the plan, or nil when
// the plan injects nothing.
func (f *Counters) Hook() counters.ReadHook {
	if !f.plan.Enabled() {
		return nil
	}
	return func(core int, e counters.Event, v uint64) uint64 {
		v += f.plan.OverflowOffset
		if f.plan.GlitchRate > 0 && f.rng.Float64() < f.plan.GlitchRate {
			f.glitches++
			f.spike = !f.spike
			if f.spike {
				return v * uint64(f.plan.GlitchScale)
			}
			return v / 2
		}
		return v
	}
}

// Glitches returns how many observations were glitched.
func (f *Counters) Glitches() uint64 { return f.glitches }

// Node answers whole-node fault queries for the cluster manager.
type Node struct {
	plan NodePlan
}

// Crashed reports whether the node is dead at virtual time now: from
// CrashAt until RecoverAt (forever, when RecoverAt is zero).
func (n *Node) Crashed(now time.Duration) bool {
	if n.plan.CrashAt <= 0 || now < n.plan.CrashAt {
		return false
	}
	return n.plan.RecoverAt <= 0 || now < n.plan.RecoverAt
}

// FreqCeilingFrac returns the fraction of maximum frequency available at
// virtual time now: 1 before any slowdown, SlowFactor after SlowAt.
func (n *Node) FreqCeilingFrac(now time.Duration) float64 {
	if n.plan.SlowAt > 0 && now >= n.plan.SlowAt && n.plan.SlowFactor > 0 {
		return n.plan.SlowFactor
	}
	return 1
}
