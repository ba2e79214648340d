package fault

// Plan validation. Hand-built plans and the spec generator share one
// Validate pass, so a schedule with a negative crash time or an empty
// partition window is rejected before it can silently inject nothing
// (or, worse, inject at time zero and corrupt a baseline).

import (
	"fmt"
	"time"
)

// Validate rejects an empty or inverted window. Windows are half-open
// [From, To), so To must be strictly after From, and virtual time starts
// at zero.
func (w Window) Validate() error {
	if w.From < 0 {
		return fmt.Errorf("fault: window start %v is negative", w.From)
	}
	if w.To <= w.From {
		return fmt.Errorf("fault: window [%v, %v) is empty or inverted", w.From, w.To)
	}
	return nil
}

func rate01(name string, r float64) error {
	if r < 0 || r > 1 {
		return fmt.Errorf("fault: %s %g outside [0, 1]", name, r)
	}
	return nil
}

// Validate checks rates, delays, and blackout windows.
func (p PubSubPlan) Validate() error {
	if err := rate01("PubSub.DropRate", p.DropRate); err != nil {
		return err
	}
	if err := rate01("PubSub.DelayRate", p.DelayRate); err != nil {
		return err
	}
	if err := rate01("PubSub.DupRate", p.DupRate); err != nil {
		return err
	}
	if p.MaxDelay < 0 {
		return fmt.Errorf("fault: PubSub.MaxDelay %v is negative", p.MaxDelay)
	}
	for i, b := range p.Blackouts {
		if err := b.Validate(); err != nil {
			return fmt.Errorf("fault: blackout %d: %w", i, err)
		}
	}
	return nil
}

// Validate checks the MSR fault rates.
func (p MSRPlan) Validate() error {
	if err := rate01("MSR.StaleReadRate", p.StaleReadRate); err != nil {
		return err
	}
	if err := rate01("MSR.ReadEIORate", p.ReadEIORate); err != nil {
		return err
	}
	return rate01("MSR.WriteEIORate", p.WriteEIORate)
}

// Validate checks the counter fault rates and scales.
func (p CounterPlan) Validate() error {
	if err := rate01("Counters.GlitchRate", p.GlitchRate); err != nil {
		return err
	}
	if p.GlitchScale < 0 {
		return fmt.Errorf("fault: Counters.GlitchScale %g is negative", p.GlitchScale)
	}
	return nil
}

// Validate rejects non-positive fault times and out-of-order
// crash/recover schedules. Zero means "disabled" for every field, so a
// negative time is always a construction bug, and a fault scheduled at
// exactly time zero is indistinguishable from a disabled one.
func (p NodePlan) Validate() error {
	for _, f := range []struct {
		name string
		at   time.Duration
	}{{"CrashAt", p.CrashAt}, {"RecoverAt", p.RecoverAt}, {"SlowAt", p.SlowAt}} {
		if f.at < 0 {
			return fmt.Errorf("fault: node %s %v is negative", f.name, f.at)
		}
	}
	if p.RecoverAt > 0 {
		if p.CrashAt <= 0 {
			return fmt.Errorf("fault: node RecoverAt %v without a crash", p.RecoverAt)
		}
		if p.RecoverAt <= p.CrashAt {
			return fmt.Errorf("fault: node RecoverAt %v not after CrashAt %v", p.RecoverAt, p.CrashAt)
		}
	}
	if p.SlowAt > 0 && (p.SlowFactor <= 0 || p.SlowFactor > 1) {
		return fmt.Errorf("fault: node SlowFactor %g outside (0, 1]", p.SlowFactor)
	}
	return nil
}

// Validate rejects non-positive fault times and a resume that is not
// after its pause.
func (p ManagerPlan) Validate() error {
	for _, f := range []struct {
		name string
		at   time.Duration
	}{{"KillAt", p.KillAt}, {"PauseAt", p.PauseAt}, {"ResumeAt", p.ResumeAt}} {
		if f.at < 0 {
			return fmt.Errorf("fault: manager %s %v is negative", f.name, f.at)
		}
	}
	if p.ResumeAt > 0 {
		if p.PauseAt <= 0 {
			return fmt.Errorf("fault: manager ResumeAt %v without a pause", p.ResumeAt)
		}
		if p.ResumeAt <= p.PauseAt {
			return fmt.Errorf("fault: manager ResumeAt %v not after PauseAt %v", p.ResumeAt, p.PauseAt)
		}
	}
	return nil
}

// Validate checks the window and requires both sides to be non-empty:
// a partition with an empty side cuts nothing and is always a typo.
func (p Partition) Validate() error {
	if err := p.Window.Validate(); err != nil {
		return err
	}
	if len(p.A) == 0 || len(p.B) == 0 {
		return fmt.Errorf("fault: partition [%v, %v) has an empty side", p.From, p.To)
	}
	for _, a := range p.A {
		if member(p.B, a) {
			return fmt.Errorf("fault: partition actor %q on both sides", a)
		}
	}
	return nil
}

// Validate checks every fault class of the plan. The zero Plan is valid
// (it injects nothing).
func (p Plan) Validate() error {
	if err := p.PubSub.Validate(); err != nil {
		return err
	}
	if err := p.MSR.Validate(); err != nil {
		return err
	}
	if err := p.Counters.Validate(); err != nil {
		return err
	}
	if p.Powercap != nil {
		if err := p.Powercap.Validate(); err != nil {
			return err
		}
	}
	for name, np := range p.Nodes {
		if err := np.Validate(); err != nil {
			return fmt.Errorf("fault: node %q: %w", name, err)
		}
	}
	for name, mp := range p.Managers {
		if err := mp.Validate(); err != nil {
			return fmt.Errorf("fault: manager %q: %w", name, err)
		}
	}
	for i, part := range p.Partitions {
		if err := part.Validate(); err != nil {
			return fmt.Errorf("fault: partition %d: %w", i, err)
		}
	}
	return nil
}
