package soak

// The cluster soak path: build a LeasedCluster from the spec, step it
// epoch by epoch, and check the distributed-safety oracles against the
// simulated hardware and the shared manager journal after every epoch.

import (
	"fmt"
	"time"

	"progresscap/internal/cluster"
	"progresscap/internal/engine"
	"progresscap/internal/fault"
	"progresscap/internal/lease"
	"progresscap/internal/spec"
)

// maxViolationsPerOracle bounds how many findings one oracle may emit
// for one scenario: the first occurrence is the repro, the rest is noise
// that would bloat shrink-loop reports.
const maxViolationsPerOracle = 3

// runCluster executes a cluster scenario and checks the budget, revert,
// journal, invariant, and progress oracles.
func (h *Harness) runCluster(sc spec.Scenario, rep *Report) error {
	quarantine := sc.Fleet.QuarantineCapW
	if quarantine == 0 {
		quarantine = cluster.DefaultQuarantineCapW
	}

	// Engine-level fault classes (transport, MSR, counters) are injected
	// per node with a derived seed, so one node's fault stream never
	// shifts another's; the cluster-level injector keeps the node,
	// partition, and manager schedules.
	engineFaults := fault.Plan{
		Seed:     sc.Faults.Seed,
		PubSub:   sc.Faults.PubSub,
		MSR:      sc.Faults.MSR,
		Counters: sc.Faults.Counters,
	}

	var nodes []*cluster.Node
	for i, name := range sc.NodeNames() {
		cfg := engine.DefaultConfig()
		cfg.Seed = sc.Seed + uint64(i)
		cfg.Tick = time.Millisecond
		w := sc.Workloads[i%len(sc.Workloads)]
		wl, err := w.Build()
		if err != nil {
			return err
		}
		eng, err := engine.New(cfg, wl)
		if err != nil {
			return err
		}
		eng.EnableInvariants(engine.InvariantConfig{})
		if engineFaults.Enabled() {
			derived := engineFaults
			derived.Seed = engineFaults.Seed + uint64(i)
			eng.SetFaults(fault.NewInjector(derived))
		}
		nodes = append(nodes, cluster.NewNode(name, eng))
	}

	inj := fault.NewInjector(sc.Faults)
	lc, err := cluster.NewLeasedCluster(cluster.LeasedConfig{
		Cluster: cluster.Config{QuarantineCapW: quarantine},
		Policy:  cluster.EqualSplit{},
		// The deliberate bug: the manager divides BugW more than the spec
		// budget. The oracles below hold the cluster to the spec.
		Budget:         cluster.ConstantBudget(sc.Fleet.BudgetW + h.BugW),
		LeaseTTL:       time.Duration(sc.Fleet.LeaseTTLEpochs) * cluster.Epoch,
		FailoverEpochs: sc.Fleet.FailoverEpochs,
		Faults:         inj,
	}, nodes...)
	if err != nil {
		return err
	}
	lc.SetNodeWorkers(h.NodeWorkers)

	counts := map[string]int{}
	report := func(oracle, format string, args ...any) {
		if counts[oracle]++; counts[oracle] <= maxViolationsPerOracle {
			rep.Violations = append(rep.Violations, Violation{Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
		}
	}

	// lastRenewal / accepted track when each node last accepted a grant,
	// for the revert oracle; acceptedLeases collects every accepted lease
	// for the journal oracle.
	lastRenewal := map[string]time.Duration{}
	accepted := map[string]uint64{}
	var acceptedLeases []lease.Lease

	for e := 0; e < sc.Epochs(); e++ {
		done, err := lc.Step()
		if err != nil {
			return fmt.Errorf("soak: epoch %d: %w", e, err)
		}
		now := lc.Elapsed()
		for _, n := range lc.Nodes() {
			c := n.Holder().Counters()
			if c.Accepted > accepted[n.Name()] {
				accepted[n.Name()] = c.Accepted
				if l, ok := n.Holder().Lease(); ok {
					lastRenewal[n.Name()] = l.GrantedAt
					acceptedLeases = append(acceptedLeases, l)
				}
			}
		}

		// budget: enforced register caps never exceed the spec budget.
		enforced, err := lc.EnforcedCapW(now)
		if err != nil {
			return err
		}
		if enforced > sc.Fleet.BudgetW+budgetSlackW {
			report("budget", "enforced %.3f W > budget %g W at %v", enforced, sc.Fleet.BudgetW, now)
		}

		// revert: a node un-renewed for TTL + one epoch of slack is back
		// at the safe cap. Crashed nodes are skipped: their engines do not
		// advance, so their deadman cannot tick until they recover.
		for _, n := range lc.Nodes() {
			granted, saw := lastRenewal[n.Name()]
			if !saw || now < granted+lc.LeaseTTL()+cluster.Epoch {
				continue
			}
			if n.Engine().Done() {
				continue
			}
			if np := inj.Node(n.Name()); np != nil && np.Crashed(now) {
				continue
			}
			capW, err := n.RegisterCapW()
			if err != nil {
				return err
			}
			if capW != lc.SafeCapW() {
				report("revert", "node %s at %.1f W at %v, lease granted %v, TTL %v — no revert",
					n.Name(), capW, now, granted, lc.LeaseTTL())
			}
		}
		if done {
			break
		}
	}

	h.runner().RecordShards(lc.ShardStats())

	res, err := lc.Finish()
	if err != nil {
		return err
	}

	// journal: every lease any node ever accepted appears in a replay of
	// the shared WAL — grants are journaled before they are sent, so an
	// enforced-but-unjournaled cap means the write-ahead contract broke.
	grants, _, _, err := lc.ReplayGrants()
	if err != nil {
		report("journal", "WAL replay failed: %v", err)
	} else {
		journaled := make(map[[2]uint64]lease.Lease, len(grants))
		for _, g := range grants {
			journaled[[2]uint64{g.Epoch, g.Seq}] = g
		}
		for _, l := range acceptedLeases {
			g, ok := journaled[[2]uint64{l.Epoch, l.Seq}]
			if !ok || g.Node != l.Node || g.CapW != l.CapW {
				report("journal", "accepted lease %+v not in WAL replay", l)
			}
		}
		if uint64(len(grants)) != res.Lease.GrantsIssued {
			report("journal", "WAL replays %d grants, ledger charged %d", len(grants), res.Lease.GrantsIssued)
		}
	}

	// invariants: no engine-level invariant (cap bounds, power
	// plausibility, energy monotonicity) fired on any node.
	for _, n := range lc.Nodes() {
		if v := n.Engine().InvariantViolations(); len(v) > 0 {
			report("invariants", "node %s: %d violations, first: %s", n.Name(), len(v), v[0])
		}
	}

	// progress: per-window rates are never negative on any node.
	for _, n := range res.Nodes {
		r := n.Result()
		if r == nil {
			continue
		}
		for _, s := range r.Samples {
			if s.Rate < 0 {
				report("progress", "node %s: negative rate %g at %v", n.Name(), s.Rate, s.At)
				break
			}
		}
	}
	return nil
}
