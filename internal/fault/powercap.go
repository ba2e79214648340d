package fault

// Powercap-backend faults: the failure modes of the Linux
// /sys/class/powercap/intel-rapl sysfs tree, which real deployments
// drive instead of (or alongside) msr-safe. Unlike raw register access,
// sysfs file I/O fails in more ways than a transient EIO: reads and
// writes return EAGAIN under contention, writes can be silently
// truncated (a short write latches a prefix of the digits), energy_uj
// can serve a stale snapshot, permissions flip when udev rules or
// systemd-tmpfiles rewrite the tree, and a whole zone can disappear
// (ENOENT) across a driver rebind. The hardened actuation layer
// (internal/rapl.Actuator) must ride through every one of these.

import (
	"fmt"
	"time"

	"progresscap/internal/powercap"
	"progresscap/internal/simtime"
)

// PowercapPlan injects powercap-sysfs access faults. It only perturbs
// runs actuating through the sysfs backend; on the register path it is
// inert, which is why spec validation requires backend "sysfs" whenever
// a plan is present.
type PowercapPlan struct {
	// ReadAgainRate / WriteAgainRate are per-access probabilities of a
	// transient EAGAIN.
	ReadAgainRate  float64
	WriteAgainRate float64
	// ReadEIORate / WriteEIORate are per-access probabilities of a
	// transient EIO.
	ReadEIORate  float64
	WriteEIORate float64
	// TruncateRate is the per-write probability of a short write: only a
	// prefix of the digits is latched, silently programming a far smaller
	// limit. Only read-back verification catches it.
	TruncateRate float64
	// StaleEnergyRate is the per-read probability that energy_uj serves
	// the previous successful read's value instead of the current one.
	StaleEnergyRate float64
	// PermWindows are windows of virtual time during which every access
	// fails with EACCES (a udev/tmpfiles permission flip).
	PermWindows []Window
	// GoneWindows are windows during which the zone's files do not exist
	// (ENOENT — a transient driver unbind/rebind).
	GoneWindows []Window
}

// Enabled reports whether the plan can perturb anything.
func (p PowercapPlan) Enabled() bool {
	return p.ReadAgainRate > 0 || p.WriteAgainRate > 0 ||
		p.ReadEIORate > 0 || p.WriteEIORate > 0 ||
		p.TruncateRate > 0 || p.StaleEnergyRate > 0 ||
		len(p.PermWindows) > 0 || len(p.GoneWindows) > 0
}

// Validate checks rates and windows.
func (p PowercapPlan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"Powercap.ReadAgainRate", p.ReadAgainRate},
		{"Powercap.WriteAgainRate", p.WriteAgainRate},
		{"Powercap.ReadEIORate", p.ReadEIORate},
		{"Powercap.WriteEIORate", p.WriteEIORate},
		{"Powercap.TruncateRate", p.TruncateRate},
		{"Powercap.StaleEnergyRate", p.StaleEnergyRate},
	} {
		if err := rate01(r.name, r.v); err != nil {
			return err
		}
	}
	for i, w := range p.PermWindows {
		if err := w.Validate(); err != nil {
			return fmt.Errorf("fault: powercap perm window %d: %w", i, err)
		}
	}
	for i, w := range p.GoneWindows {
		if err := w.Validate(); err != nil {
			return fmt.Errorf("fault: powercap gone window %d: %w", i, err)
		}
	}
	return nil
}

// Powercap perturbs sysfs zone accesses through powercap.Zone's fault
// hook. Window faults (permission flips, disappearance) are checked
// before rate faults and draw no randomness, so a plan with only
// windows is exactly reproducible access-count-independently.
type Powercap struct {
	// plan is construction configuration.
	plan PowercapPlan `snap:"-"`
	rng  *simtime.RNG

	again     uint64
	eio       uint64
	truncated uint64
	stale     uint64
	denied    uint64
	gone      uint64
}

func newPowercap(plan PowercapPlan, rng *simtime.RNG) *Powercap {
	return &Powercap{plan: plan, rng: rng}
}

// Enabled reports whether the injector can perturb anything.
func (f *Powercap) Enabled() bool { return f.plan.Enabled() }

// Hook returns the powercap.FaultHook implementing the plan, or nil when
// the plan injects nothing — installing nil keeps the zone on its
// zero-overhead fast path.
func (f *Powercap) Hook() powercap.FaultHook {
	if !f.plan.Enabled() {
		return nil
	}
	return func(op powercap.FaultOp, file string, now time.Duration) powercap.FaultClass {
		for _, w := range f.plan.GoneWindows {
			if w.Contains(now) {
				f.gone++
				return powercap.FaultGone
			}
		}
		for _, w := range f.plan.PermWindows {
			if w.Contains(now) {
				f.denied++
				return powercap.FaultPerm
			}
		}
		if op == powercap.OpWrite {
			if f.plan.WriteAgainRate > 0 && f.rng.Float64() < f.plan.WriteAgainRate {
				f.again++
				return powercap.FaultAgain
			}
			if f.plan.WriteEIORate > 0 && f.rng.Float64() < f.plan.WriteEIORate {
				f.eio++
				return powercap.FaultEIO
			}
			if f.plan.TruncateRate > 0 && file == powercap.FilePowerLimitUW &&
				f.rng.Float64() < f.plan.TruncateRate {
				f.truncated++
				return powercap.FaultTruncate
			}
			return powercap.FaultNone
		}
		if f.plan.ReadAgainRate > 0 && f.rng.Float64() < f.plan.ReadAgainRate {
			f.again++
			return powercap.FaultAgain
		}
		if f.plan.ReadEIORate > 0 && f.rng.Float64() < f.plan.ReadEIORate {
			f.eio++
			return powercap.FaultEIO
		}
		if f.plan.StaleEnergyRate > 0 && file == powercap.FileEnergyUJ &&
			f.rng.Float64() < f.plan.StaleEnergyRate {
			f.stale++
			return powercap.FaultStale
		}
		return powercap.FaultNone
	}
}

// Stats returns the injector's fault counts.
func (f *Powercap) Stats() (again, eio, truncated, stale, denied, gone uint64) {
	return f.again, f.eio, f.truncated, f.stale, f.denied, f.gone
}
