package nrm

import (
	"fmt"

	"progresscap/internal/engine"
	"progresscap/internal/journal"
	"progresscap/internal/model"
	"progresscap/internal/rapl"
)

// Counters aggregates the NRM's reliability telemetry: every retried or
// restarted thing the daemon survived. A snapshot rides along in each
// Decision so the decision log doubles as the counter stream.
type Counters struct {
	// EnergyReadFailures counts energy-accounting intervals whose MSR
	// reads failed even after retry (the energy defers to the next good
	// read, so this is lag, not loss).
	EnergyReadFailures uint64
	// TrustTransitions counts degraded-signal state machine edges.
	TrustTransitions int
	// SupervisorRestarts is how many times a supervisor restarted this
	// daemon's unit; the harness records it via RecordSupervisorRestarts
	// after each restart, since the daemon cannot observe its own death.
	SupervisorRestarts int
	// Recoveries counts journal-replay restorations (1 after Restore).
	Recoveries int
	// Actuation is the hardened actuator's retry/failover/park counter
	// snapshot, populated only when Config.Actuator is set.
	Actuation rapl.ActuatorCounters
}

// Counters returns the current reliability-counter snapshot.
func (n *NRM) Counters() Counters {
	c := n.counters
	c.EnergyReadFailures = n.energy.Failures()
	if a := n.cfg.Actuator; a != nil {
		c.Actuation = a.Counters()
	}
	return c
}

// RecordSupervisorRestarts stores the supervising layer's restart count
// so it surfaces in the decision log alongside the daemon-side counters.
func (n *NRM) RecordSupervisorRestarts(restarts int) {
	n.counters.SupervisorRestarts = restarts
}

// journalDecision write-ahead-logs one epoch's decision. It also
// surfaces any journal failure buffered by a transition append (which
// has no error path of its own): a daemon that cannot journal must not
// keep actuating, or a crash would replay state older than the plant's.
func (n *NRM) journalDecision(dec Decision) error {
	if n.jErr != nil {
		return fmt.Errorf("nrm: journal failed: %w", n.jErr)
	}
	if n.cfg.Journal == nil {
		return nil
	}
	return n.cfg.Journal.Append(journal.Record{
		Kind:    journal.KindCapDecision,
		Epoch:   n.epoch,
		At:      dec.At,
		BudgetW: dec.BudgetW,
		Knob:    int(dec.Knob),
		Setting: dec.Setting,
		Mode:    int(dec.Mode),
	})
}

// Restore builds an NRM that resumes from journal-recovered state
// instead of re-calibrating: the pre-crash epoch index, budget, β-fit,
// trust mode, and degraded backoff are restored, and the last journaled
// enforcement is re-actuated immediately — the plant may still hold the
// pre-crash cap (RAPL stays latched across a daemon death), and if a
// deadman reverted it in the meantime this re-arm restores it.
//
// Two deliberate conservatisms:
//
//   - A crash during calibration (no journaled fit) restores the epoch
//     index but re-runs calibration from live samples; Restore's clock
//     baseline keeps the power estimate honest.
//   - A crash during probation resumes as Degraded — probation progress
//     is not journaled, so the daemon re-earns trust from the start of a
//     probation window rather than guessing how much it had served.
func Restore(cfg Config, eng *engine.Engine, st journal.State) (*NRM, error) {
	n, err := New(cfg, eng)
	if err != nil {
		return nil, err
	}
	n.epoch = st.Epoch
	n.budgetW = st.BudgetW
	if st.Backoff > 0 {
		n.backoff = st.Backoff
	}
	if !st.Fitted {
		// No journaled fit means calibration never completed; resuming at
		// a post-calibration epoch with no baseline would crash-loop the
		// daemon inside fit(). Re-calibrate from scratch instead.
		n.epoch = 0
	}
	if st.Fitted {
		p, err := model.FromBaseline(st.Beta, st.BaseRate, st.BasePowW)
		if err != nil {
			return nil, fmt.Errorf("nrm: restoring fit: %w", err)
		}
		n.params = p
		n.fitted = true
		n.baseRate = st.BaseRate
		n.basePowW = st.BasePowW
	}
	if Mode(st.Mode) != ModeNormal {
		n.mode = ModeDegraded
	}
	n.counters.Recoveries++
	if st.Decisions > 0 {
		// Re-arm the pre-crash enforcement before the first epoch. No new
		// journal record: the decision being re-actuated IS the journal's
		// final record, and re-actuating a journaled decision is the
		// idempotent case recovery is designed around.
		dec := Decision{
			At:      eng.Clock().Now(),
			BudgetW: st.BudgetW,
			Knob:    Knob(st.Knob),
			Setting: st.Setting,
			Mode:    n.mode,
		}
		if err := n.actuate(dec); err != nil {
			return nil, fmt.Errorf("nrm: re-arming recovered cap: %w", err)
		}
	}
	return n, nil
}
