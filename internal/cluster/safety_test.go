package cluster

// The distributed-safety property test: across randomized (but seeded,
// deterministic) schedules of manager kills, pauses, partitions, and
// heals, the cluster-wide budget invariant
//
//	Σ(enforced node caps) = Σ(live lease caps) + quarantine slack ≤ job budget
//
// must hold at every epoch, and a node cut off from every manager must
// revert to the safe cap within one lease TTL of its last renewal.

import (
	"testing"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/engine"
	"progresscap/internal/fault"
	"progresscap/internal/simtime"
)

// randomChaosPlan draws one fault schedule: each manager may be killed
// or paused/resumed, and each node may be partitioned away from one or
// both managers for a window.
func randomChaosPlan(rng *simtime.RNG, nodes []string, horizon time.Duration) fault.Plan {
	plan := fault.Plan{Seed: rng.Uint64() | 1, Managers: map[string]fault.ManagerPlan{}}
	sec := func(lo, hi int) time.Duration {
		return time.Duration(lo+rng.Intn(hi-lo+1)) * time.Second
	}
	for _, mgr := range []string{PrimaryManager, StandbyManager} {
		switch rng.Intn(4) {
		case 0: // healthy
		case 1:
			plan.Managers[mgr] = fault.ManagerPlan{KillAt: sec(3, 12)}
		case 2:
			at := sec(3, 10)
			plan.Managers[mgr] = fault.ManagerPlan{PauseAt: at, ResumeAt: at + sec(3, 8)}
		case 3: // pause that tears a send mid-epoch, the stale-flush hazard
			at := sec(3, 10) + 500*time.Millisecond
			plan.Managers[mgr] = fault.ManagerPlan{PauseAt: at, ResumeAt: at + sec(3, 8)}
		}
	}
	for _, n := range nodes {
		if rng.Intn(3) == 0 {
			continue // this node stays connected
		}
		from := sec(2, int(horizon/time.Second)-8)
		p := fault.Partition{
			Window:     fault.Window{From: from, To: from + sec(4, 9)},
			A:          []string{n},
			Asymmetric: rng.Intn(3) == 0,
		}
		if rng.Intn(2) == 0 {
			p.B = []string{PrimaryManager, StandbyManager}
		} else {
			p.B = []string{PrimaryManager}
		}
		plan.Partitions = append(plan.Partitions, p)
	}
	return plan
}

func TestLeasedBudgetSafetyProperty(t *testing.T) {
	const (
		schedules = 8
		epochs    = 26
		budgetW   = 300.0
	)
	nodeNames := []string{"n0", "n1", "n2"}
	horizon := time.Duration(epochs) * Epoch
	root := simtime.NewRNG(0xC0FFEE)

	for s := 0; s < schedules; s++ {
		s := s
		t.Run("", func(t *testing.T) {
			rng := root.Split(uint64(s + 1))
			plan := randomChaosPlan(rng, nodeNames, horizon)

			var nodes []*Node
			for i, name := range nodeNames {
				cfg := engine.DefaultConfig()
				cfg.Seed = uint64(s*10 + i + 1)
				cfg.Tick = time.Millisecond
				e, err := engine.New(cfg, apps.LAMMPS(apps.DefaultRanks, 5000))
				if err != nil {
					t.Fatal(err)
				}
				nodes = append(nodes, NewNode(name, e))
			}
			lc, err := NewLeasedCluster(LeasedConfig{
				Policy: EqualSplit{},
				Budget: ConstantBudget(budgetW),
				Faults: fault.NewInjector(plan),
			}, nodes...)
			if err != nil {
				t.Fatal(err)
			}

			// lastRenewal tracks when each node last accepted a grant, to
			// check the revert-within-TTL bound directly against hardware.
			lastRenewal := map[string]time.Duration{}
			lastAccepted := map[string]uint64{}
			for e := 0; e < epochs; e++ {
				if _, err := lc.Step(); err != nil {
					t.Fatalf("schedule %d epoch %d: %v", s, e, err)
				}
				now := lc.elapsed
				for _, n := range lc.nodes {
					c := n.holder.Counters()
					if c.Accepted > lastAccepted[n.name] {
						lastAccepted[n.name] = c.Accepted
						if l, ok := n.holder.Lease(); ok {
							lastRenewal[n.name] = l.GrantedAt
						}
					}
				}

				// Invariant 1: enforced caps never exceed the budget.
				enforced, err := lc.EnforcedCapW(now)
				if err != nil {
					t.Fatal(err)
				}
				if enforced > budgetW {
					t.Fatalf("schedule %d: enforced %.3f W > budget %.0f W at %v (plan %+v)",
						s, enforced, budgetW, now, plan)
				}

				// Invariant 2: a node un-renewed for a full TTL is back at
				// the safe cap (plus one epoch of slack for the deadman to
				// tick during the advance).
				for _, n := range lc.nodes {
					granted, saw := lastRenewal[n.name]
					if !saw || now < granted+lc.cfg.LeaseTTL+Epoch {
						continue
					}
					capW, err := n.RegisterCapW()
					if err != nil {
						t.Fatal(err)
					}
					if capW != lc.cfg.Cluster.QuarantineCapW {
						t.Fatalf("schedule %d: node %s at %.1f W at %v, lease granted %v TTL %v — no revert",
							s, n.name, capW, now, granted, lc.cfg.LeaseTTL)
					}
				}
			}
			res, err := lc.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if res.Lease.PeakOvershootW > 0 {
				t.Fatalf("schedule %d: peak overshoot %.3f W", s, res.Lease.PeakOvershootW)
			}
		})
	}
}
