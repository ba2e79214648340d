// Package cluster implements the job level of the Argo power-management
// hierarchy the paper is motivated by (§II): a job receives a power
// budget from the system, distributes it across its compute nodes
// "according to application characteristics and node variability", and
// each node's resource manager enforces its share through RAPL while the
// job manager watches online progress — the capability the paper argues
// progress monitoring enables.
//
// One job skeleton (job.go) advances every node engine in one-second
// epochs under one of two control planes. The direct Manager (this
// file) reads per-node feedback (measured power, online performance, a
// running baseline estimate), asks its division policy for new per-node
// caps under the current job budget, and programs them through each
// node's whitelisted MSR interface — exactly the interposition point a
// real NRM uses. The LeasedCluster (leased.go) replaces the direct
// writes with time-bounded leases from a replicated manager pair.
package cluster

import (
	"fmt"
	"time"

	"progresscap/internal/fault"
	"progresscap/internal/rapl"
	"progresscap/internal/stats"
)

// Epoch is the job manager's control period.
const Epoch = time.Second

// DefaultQuarantineCapW is the default power cap held on a fenced node.
// It must be a small *positive* value: 0 means "uncapped" in RAPL
// semantics, and an unresponsive node left uncapped could silently burn
// its full TDP out of the job's allocation.
const DefaultQuarantineCapW = 40

// Config carries the leased cluster's safety knob (the direct Manager
// always quarantines at DefaultQuarantineCapW). The zero value is
// replaced by defaults in Validate.
type Config struct {
	// QuarantineCapW is the power cap held on a fenced node. Must be
	// positive (0 is "uncapped" in RAPL semantics) and below the node
	// TDP — quarantine exists to bound a silent node's draw, so a cap at
	// or above TDP would be a no-op disguised as a safety measure.
	QuarantineCapW float64
}

// Validate fills defaults and rejects unsafe values.
func (c *Config) Validate() error {
	if c.QuarantineCapW == 0 {
		c.QuarantineCapW = DefaultQuarantineCapW
	}
	if c.QuarantineCapW < 0 {
		return fmt.Errorf("cluster: QuarantineCapW %.1f W must be positive (0 means uncapped in RAPL)", c.QuarantineCapW)
	}
	if c.QuarantineCapW >= rapl.FirmwareDefaultCapW {
		return fmt.Errorf("cluster: QuarantineCapW %.1f W must be below the node TDP (%d W)",
			c.QuarantineCapW, rapl.FirmwareDefaultCapW)
	}
	return nil
}

// NodeStatus is the per-epoch feedback a policy divides on.
type NodeStatus struct {
	Name     string
	CapW     float64 // cap currently programmed (0 = uncapped)
	PowerW   float64 // package power over the last epoch
	Rate     float64 // online performance over the last epoch
	Baseline float64 // running estimate of the uncapped rate
	Done     bool
	// Failed marks a node the manager's watchdog has fenced: its progress
	// stream went silent for three epochs. Policies must not allocate
	// budget to it; the manager holds it at a quarantine cap instead.
	Failed bool
}

// allocatable reports whether a node should receive a budget share.
func (s NodeStatus) allocatable() bool { return !s.Done && !s.Failed }

// Normalized returns the node's progress as a fraction of its baseline
// estimate (1 when no baseline is known yet).
func (s NodeStatus) Normalized() float64 {
	if s.Baseline <= 0 {
		return 1
	}
	return s.Rate / s.Baseline
}

// Policy divides a job budget across nodes. Implementations return one
// cap per status entry (0 = leave the node uncapped); the manager clamps
// the sum to the budget.
type Policy interface {
	Name() string
	Divide(budgetW float64, nodes []NodeStatus) []float64
}

// EqualSplit gives every unfinished node the same share — the obvious
// progress-agnostic baseline policy.
type EqualSplit struct{}

// Name implements Policy.
func (EqualSplit) Name() string { return "equal-split" }

// Divide implements Policy.
func (EqualSplit) Divide(budgetW float64, nodes []NodeStatus) []float64 {
	caps := make([]float64, len(nodes))
	alive := 0
	for _, n := range nodes {
		if n.allocatable() {
			alive++
		}
	}
	if alive == 0 {
		return caps
	}
	share := budgetW / float64(alive)
	for i, n := range nodes {
		if n.allocatable() {
			caps[i] = share
		}
	}
	return caps
}

// ProgressAware shifts power toward nodes whose normalized online
// performance lags, equalizing progress across the job the way the
// paper's envisioned NRM policies (and critical-path systems like POW /
// Conductor) do. It needs the progress metric the paper defines — a
// power- or time-based policy cannot see which node is behind on
// *science*.
type ProgressAware struct {
	// Gain scales how aggressively power follows the progress gap;
	// 0 defaults to 1.
	Gain float64
}

// Name implements Policy.
func (ProgressAware) Name() string { return "progress-aware" }

// Divide implements Policy.
func (p ProgressAware) Divide(budgetW float64, nodes []NodeStatus) []float64 {
	gain := p.Gain
	if gain == 0 {
		gain = 1
	}
	caps := make([]float64, len(nodes))
	var weights []float64
	var alive []int
	for i, n := range nodes {
		if !n.allocatable() {
			continue
		}
		// Need grows as normalized progress falls below the job mean.
		need := 1 + gain*(1-stats.Clamp(n.Normalized(), 0, 2))
		weights = append(weights, stats.Clamp(need, 0.25, 4))
		alive = append(alive, i)
	}
	if len(alive) == 0 {
		return caps
	}
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	for k, i := range alive {
		caps[i] = budgetW * weights[k] / wsum
	}
	return caps
}

// Throughput maximizes the job's *mean* progress by steering power
// toward nodes that convert watts into normalized progress most
// efficiently — the right policy for embarrassingly parallel jobs with
// no synchronization, and the foil to ProgressAware for synchronous
// ones (it starves inefficient silicon instead of compensating for it).
type Throughput struct{}

// Name implements Policy.
func (Throughput) Name() string { return "throughput" }

// Divide implements Policy.
func (Throughput) Divide(budgetW float64, nodes []NodeStatus) []float64 {
	caps := make([]float64, len(nodes))
	var weights []float64
	var alive []int
	for i, n := range nodes {
		if !n.allocatable() {
			continue
		}
		// Efficiency: normalized progress per watt drawn; unknown power
		// (first epochs) counts as average.
		eff := 1.0
		if n.PowerW > 0 {
			eff = n.Normalized() / n.PowerW * 100
		}
		weights = append(weights, stats.Clamp(eff, 0.25, 4))
		alive = append(alive, i)
	}
	if len(alive) == 0 {
		return caps
	}
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	for k, i := range alive {
		caps[i] = budgetW * weights[k] / wsum
	}
	return caps
}

// BudgetFunc is the job's power budget over time, in watts.
type BudgetFunc func(elapsed time.Duration) float64

// ConstantBudget returns a fixed job budget.
func ConstantBudget(w float64) BudgetFunc {
	return func(time.Duration) float64 { return w }
}

// DecayingBudget decreases linearly from startW to endW over the given
// duration, then holds — the paper's "gradually decreasing power
// budgets" scenario.
func DecayingBudget(startW, endW float64, over time.Duration) BudgetFunc {
	return func(t time.Duration) float64 {
		if t >= over {
			return endW
		}
		frac := float64(t) / float64(over)
		return startW + (endW-startW)*frac
	}
}

// Manager is the direct control plane: it drives a set of nodes under a
// job budget by writing every node's cap itself each epoch.
type Manager struct {
	job
	policy Policy
	views  []nodeView
	caps   []float64 // cap programmed this epoch (0 = uncapped)
	seen   []int     // monitor samples seen at the last feedback
}

// uncappedEpochs is how many initial epochs run without caps to
// estimate per-node baselines.
const uncappedEpochs = 2

// NewManager assembles a direct job manager.
func NewManager(policy Policy, budget BudgetFunc, nodes ...*Node) (*Manager, error) {
	if policy == nil {
		return nil, fmt.Errorf("cluster: nil policy")
	}
	j, err := newJob(budget, "cluster.", nodes)
	if err != nil {
		return nil, err
	}
	m := &Manager{job: j, policy: policy, views: make([]nodeView, len(nodes)),
		caps: make([]float64, len(nodes)), seen: make([]int, len(nodes))}
	m.plane = m
	return m, nil
}

// SetFaults installs a fault injector whose per-node plans (crash,
// slowdown) the manager consults while stepping. Call before the first
// Step.
func (m *Manager) SetFaults(inj *fault.Injector) { m.faults = inj }

// FailedNodes lists the nodes currently fenced by the watchdog.
func (m *Manager) FailedNodes() []string {
	var out []string
	for i, n := range m.nodes {
		if m.views[i].fence.fenced {
			out = append(out, n.name)
		}
	}
	return out
}

// SetBudgetOverride replaces the job's budget function with a fixed
// value from the next epoch on (a system controller retargeting the
// job). A negative value restores the original function.
func (m *Manager) SetBudgetOverride(watts float64) { m.budgetOverride = watts }

// Statuses snapshots the nodes' current feedback.
func (m *Manager) Statuses() []NodeStatus {
	out := make([]NodeStatus, len(m.nodes))
	for i, n := range m.nodes {
		out[i] = m.views[i].status(n.name)
		out[i].CapW = m.caps[i]
		out[i].PowerW = n.lastPow
		out[i].Done = n.eng.Done()
	}
	return out
}

// control decides and programs the epoch's caps. The first
// uncappedEpochs run uncapped to calibrate the baselines; after that the
// policy divides the budget left once every fenced node's quarantine
// cap is reserved.
func (m *Manager) control(budgetW float64, now time.Duration) error {
	if now >= uncappedEpochs*Epoch {
		statuses := m.Statuses()
		divisible := budgetW
		for _, s := range statuses {
			if s.Failed && !s.Done {
				divisible -= DefaultQuarantineCapW
			}
		}
		if divisible < 0 {
			divisible = 0
		}
		caps := m.policy.Divide(divisible, statuses)
		if len(caps) != len(m.nodes) {
			return fmt.Errorf("cluster: policy %s returned %d caps for %d nodes",
				m.policy.Name(), len(caps), len(m.nodes))
		}
		clampCaps(caps, divisible)
		for i, s := range statuses {
			if s.Failed && !s.Done {
				caps[i] = DefaultQuarantineCapW
			}
		}
		m.caps = caps
	}
	for i, n := range m.nodes {
		if err := n.writeCap(m.caps[i]); err != nil {
			return fmt.Errorf("cluster: programming %s: %w", n.name, err)
		}
		n.capTrace.Add(now+Epoch, m.caps[i])
	}
	return nil
}

// reboot leaves a direct node's register as it was: the manager
// reprograms every node each epoch anyway.
func (m *Manager) reboot(*Node) error { return nil }

// feedback reads every node's monitor, runs the watchdog on "sample
// count moved", and counts the healthy nodes' progress — a fenced
// node's frozen last rate must not drag the job minimum to zero forever.
func (m *Manager) feedback(_ float64, _ time.Duration, norms []float64) ([]float64, error) {
	for i, n := range m.nodes {
		v := &m.views[i]
		v.observe(n.observedRate())
		count := len(n.eng.Monitor().Samples())
		v.fence.observe(count > m.seen[i], n.eng.Done())
		m.seen[i] = count
		if n.eng.Done() || v.fence.fenced {
			continue
		}
		norms = append(norms, NodeStatus{Rate: v.rate, Baseline: v.baseline}.Normalized())
	}
	return norms, nil
}

// clampCaps scales the caps down proportionally if they exceed the
// budget (a policy bug must never over-commit the job's allocation).
func clampCaps(caps []float64, budgetW float64) {
	var sum float64
	for _, c := range caps {
		sum += c
	}
	if sum <= budgetW || sum == 0 {
		return
	}
	scale := budgetW / sum
	for i := range caps {
		caps[i] *= scale
	}
}
