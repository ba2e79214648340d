package cluster

import (
	"testing"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/engine"
	"progresscap/internal/fault"
)

const (
	leasedBudgetW  = 300.0
	leasedSafeCapW = DefaultQuarantineCapW
)

// newLeasedTestNode builds a leased node on a coarse 1 ms tick (the
// control period): ~10x faster than the default plant, precise enough
// for epoch-level assertions.
func newLeasedTestNode(t *testing.T, name string, seed uint64) *Node {
	t.Helper()
	cfg := engine.DefaultConfig()
	cfg.Seed = seed
	cfg.Tick = time.Millisecond
	e, err := engine.New(cfg, apps.LAMMPS(apps.DefaultRanks, 5000))
	if err != nil {
		t.Fatal(err)
	}
	return NewNode(name, e)
}

func newLeasedTestCluster(t *testing.T, plan fault.Plan) *LeasedCluster {
	t.Helper()
	cfg := LeasedConfig{
		Policy: EqualSplit{},
		Budget: ConstantBudget(leasedBudgetW),
		Faults: fault.NewInjector(plan),
	}
	lc, err := NewLeasedCluster(cfg,
		newLeasedTestNode(t, "n0", 1),
		newLeasedTestNode(t, "n1", 2),
		newLeasedTestNode(t, "n2", 3),
	)
	if err != nil {
		t.Fatal(err)
	}
	return lc
}

func stepEpochs(t *testing.T, lc *LeasedCluster, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := lc.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

func assertInvariant(t *testing.T, res *Result) {
	t.Helper()
	if res.Lease.PeakOvershootW > 0 {
		t.Errorf("enforced caps exceeded the budget by %.3f W", res.Lease.PeakOvershootW)
	}
	for i := 0; i < res.Lease.EnforcedTrace.Len(); i++ {
		p := res.Lease.EnforcedTrace.At(i)
		if p.V > leasedBudgetW {
			t.Fatalf("enforced %.3f W > budget %.0f W at %v", p.V, leasedBudgetW, p.T)
		}
	}
}

func TestLeasedClusterHealthyRun(t *testing.T) {
	lc := newLeasedTestCluster(t, fault.Plan{})
	stepEpochs(t, lc, 10)

	// Healthy steady state: every node holds a live lease well above the
	// safe cap, renewed each epoch.
	for _, n := range lc.nodes {
		if cap := n.holder.CapAt(lc.elapsed); cap <= leasedSafeCapW {
			t.Errorf("node %s cap %.1f W not above safe cap in a healthy run", n.name, cap)
		}
	}
	res, err := lc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	assertInvariant(t, res)
	if res.Lease.Failovers != 0 || res.Lease.FencedGrants != 0 || res.Lease.ExpiredReverts != 0 {
		t.Errorf("healthy run saw failovers=%d fenced=%d reverts=%d",
			res.Lease.Failovers, res.Lease.FencedGrants, res.Lease.ExpiredReverts)
	}
	if res.Lease.GrantsIssued == 0 || res.Lease.UndeliveredGrants != 0 {
		t.Errorf("grants issued=%d undelivered=%d", res.Lease.GrantsIssued, res.Lease.UndeliveredGrants)
	}
	// Acks ride the control lane of the manager inbox.
	ctl, tel, ok := lc.ManagerInboxStats(PrimaryManager)
	if !ok || ctl.Delivered == 0 || tel.Delivered == 0 {
		t.Errorf("inbox lanes idle: control %+v telemetry %+v", ctl, tel)
	}
}

func TestLeasedClusterFailover(t *testing.T) {
	lc := newLeasedTestCluster(t, fault.Plan{
		Managers: map[string]fault.ManagerPlan{
			PrimaryManager: {KillAt: 5 * time.Second},
		},
	})
	stepEpochs(t, lc, 16)

	// After the standby's takeover, leases must be flowing again: every
	// node above the safe cap at the end.
	for _, n := range lc.nodes {
		if cap := n.holder.CapAt(lc.elapsed); cap <= leasedSafeCapW {
			t.Errorf("node %s cap %.1f W not restored after failover", n.name, cap)
		}
	}
	res, err := lc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	assertInvariant(t, res)
	if res.Lease.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", res.Lease.Failovers)
	}
	// The gap between the primary's death and the standby's first grants
	// is at most FailoverEpochs+1 epochs < LeaseTTL, so leases never
	// lapse and the deadmen stay quiet.
	if res.Lease.ExpiredReverts != 0 {
		t.Errorf("deadman tripped %d times across a fast failover", res.Lease.ExpiredReverts)
	}
}

func TestLeasedClusterPartitionRevertsWithinTTL(t *testing.T) {
	// n1 is cut off from both managers for 8 s. Its lease must lapse and
	// the RAPL deadman must revert it to the safe cap within one TTL of
	// the last renewal; after the heal and probation it is re-admitted.
	lc := newLeasedTestCluster(t, fault.Plan{
		Partitions: []fault.Partition{{
			Window: fault.Window{From: 6 * time.Second, To: 14 * time.Second},
			A:      []string{"n1"},
			B:      []string{PrimaryManager, StandbyManager},
		}},
	})

	// Run to just past partition start + TTL (renewal at 5 s is the last
	// delivered; the lease lapses by 8 s).
	stepEpochs(t, lc, 9)
	n1 := lc.nodes[lc.index["n1"]]
	capW, err := n1.RegisterCapW()
	if err != nil {
		t.Fatal(err)
	}
	if capW != leasedSafeCapW {
		t.Fatalf("partitioned node register = %.1f W at t=%v, want safe cap %.0f W within one TTL",
			capW, lc.elapsed, float64(leasedSafeCapW))
	}
	if trips := n1.eng.Controller().DeadmanTrips(); trips == 0 {
		t.Error("deadman never tripped on the partitioned node")
	}

	// Heal at 14 s; probation (3 epochs of telemetry) must re-admit n1.
	stepEpochs(t, lc, 24-9)
	if cap := n1.holder.CapAt(lc.elapsed); cap <= leasedSafeCapW {
		t.Errorf("healed node still at %.1f W, never re-admitted", cap)
	}
	res, err := lc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	assertInvariant(t, res)
	if res.Lease.UndeliveredGrants == 0 {
		t.Error("partition ate no grants — schedule did not bite")
	}
	if res.Lease.Failovers != 0 {
		t.Errorf("node partition triggered %d manager failovers", res.Lease.Failovers)
	}
}

// TestLeasedClusterPartitionFenceTimeline pins the replica watchdog's
// timeline on the partition scenario, epoch by epoch from n1's lease
// holder: the last grant n1 accepts before the 6 s cut, its re-admission
// after the 14 s heal (three epochs of probation telemetry), and the
// first grant above the safe cap once the other nodes' older, larger
// leases have been renewed down to their shares.
func TestLeasedClusterPartitionFenceTimeline(t *testing.T) {
	lc := newLeasedTestCluster(t, fault.Plan{
		Partitions: []fault.Partition{{
			Window: fault.Window{From: 6 * time.Second, To: 14 * time.Second},
			A:      []string{"n1"},
			B:      []string{PrimaryManager, StandbyManager},
		}},
	})
	n1 := lc.Nodes()[1]
	lastBeforeCut, readmitted, aboveSafe := time.Duration(-1), time.Duration(-1), time.Duration(-1)
	var accepted uint64
	for e := 0; e < 24; e++ {
		now := lc.Elapsed() // grants of this epoch are stamped at its start
		stepEpochs(t, lc, 1)
		c := n1.Holder().Counters()
		if c.Accepted == accepted {
			continue
		}
		accepted = c.Accepted
		switch {
		case now < 6*time.Second:
			lastBeforeCut = now
		case readmitted < 0:
			readmitted = now
		}
		if now >= 14*time.Second && aboveSafe < 0 && n1.Holder().CapAt(lc.Elapsed()) > leasedSafeCapW {
			aboveSafe = now
		}
	}
	if lastBeforeCut != 5*time.Second {
		t.Errorf("last grant accepted before the cut at %v, want 5s", lastBeforeCut)
	}
	if readmitted != 16*time.Second {
		t.Errorf("first grant accepted after the heal at %v, want 16s", readmitted)
	}
	if aboveSafe != 18*time.Second {
		t.Errorf("first grant above the safe cap after the heal at %v, want 18s", aboveSafe)
	}
}

func TestLeasedClusterDeposedPrimaryIsFenced(t *testing.T) {
	// The primary journals its epoch-4 grant batch, then pauses before
	// sending it (TearsSend). The standby takes over; when the old
	// primary resumes at 12 s it flushes the stale batch — every node
	// must reject it by epoch fencing, and the old primary must demote.
	lc := newLeasedTestCluster(t, fault.Plan{
		Managers: map[string]fault.ManagerPlan{
			PrimaryManager: {PauseAt: 4500 * time.Millisecond, ResumeAt: 12 * time.Second},
		},
	})
	stepEpochs(t, lc, 18)

	res, err := lc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	assertInvariant(t, res)
	if res.Lease.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", res.Lease.Failovers)
	}
	if res.Lease.FencedGrants == 0 && res.Lease.ExpiredOnArrival == 0 {
		t.Error("deposed primary's stale flush was not rejected anywhere")
	}
	// Exactly one primary at the end — the resumed one stays demoted.
	primaries := 0
	for _, m := range lc.managers {
		if m.primary {
			primaries++
		}
	}
	if primaries != 1 || lc.managers[0].primary {
		t.Errorf("primary set wrong after depose: m0=%v m1=%v",
			lc.managers[0].primary, lc.managers[1].primary)
	}
}

func TestLeasedClusterBothManagersDeadDecaysToSafeCap(t *testing.T) {
	// With nobody to renew, every lease lapses and the hardware deadman
	// reverts every node — the budget is bounded by safe caps alone.
	lc := newLeasedTestCluster(t, fault.Plan{
		Managers: map[string]fault.ManagerPlan{
			PrimaryManager: {KillAt: 4 * time.Second},
			StandbyManager: {KillAt: 4 * time.Second},
		},
	})
	stepEpochs(t, lc, 12)
	enforced, err := lc.EnforcedCapW(lc.elapsed)
	if err != nil {
		t.Fatal(err)
	}
	want := leasedSafeCapW * float64(len(lc.nodes))
	if enforced != want {
		t.Fatalf("enforced %.1f W with both managers dead, want the %.0f W safe-cap floor", enforced, want)
	}
	res, err := lc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	assertInvariant(t, res)
	if res.Lease.ExpiredReverts == 0 {
		t.Error("no deadman trips despite total manager loss")
	}
}
