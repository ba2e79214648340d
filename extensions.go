package progresscap

// Public API for the two extensions the paper's discussion calls for:
// weighted multi-component progress for Category 3 applications (§VI-3)
// and job-level power management above the node (§II's Argo hierarchy).

import (
	"fmt"
	"math"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/cluster"
	"progresscap/internal/engine"
	"progresscap/internal/experiments"
)

// ComponentReport describes one component stream of a composite run.
type ComponentReport struct {
	Name     string
	Metric   string
	Baseline float64 // uncapped rate used for normalization
	Progress Series  // raw per-second rate in the component's own units
}

// CompositeReport is the outcome of RunURBAN: per-component progress plus
// the weighted, baseline-normalized composite metric (1.0 = every
// component at its uncapped rate).
type CompositeReport struct {
	Elapsed    float64
	Completed  bool
	Components []ComponentReport
	Composite  Series
	PowerW     Series
	CapW       Series
	EnergyJ    float64
}

// RunURBAN runs the paper's Category 3 example — Nek5000 coupled with
// EnergyPlus on one node at different timescales — and monitors it with
// the weighted multi-component progress metric (Nek5000 weighted 2:1).
// A calibration pass measures per-component baselines first.
func RunURBAN(seconds float64, scheme Scheme, seed uint64) (*CompositeReport, error) {
	if seconds == 0 {
		seconds = 30
	}
	if !(seconds >= 5) || math.IsInf(seconds, 1) {
		return nil, fmt.Errorf("progresscap: URBAN needs a finite Seconds >= 5 (EnergyPlus steps take ~0.6 s)")
	}
	cfg := engine.DefaultConfig()
	cfg.Seed = seed // the engine reads 0 as 1
	metric, base, err := experiments.URBANMetric(cfg, seconds)
	if err != nil {
		return nil, err
	}
	res, err := experiments.RunURBAN(cfg, scheme.impl, seconds)
	if err != nil {
		return nil, err
	}
	comp, err := metric.Series(res)
	if err != nil {
		return nil, err
	}

	rep := &CompositeReport{
		Elapsed:   res.Elapsed.Seconds(),
		Completed: res.Completed,
		Composite: toSeries(comp, "normalized"),
		PowerW:    toSeries(res.PowerTrace, "W"),
		EnergyJ:   res.EnergyJ,
	}
	if res.CapTrace != nil {
		rep.CapW = toSeries(res.CapTrace, "W")
	}
	for _, j := range res.Jobs {
		rep.Components = append(rep.Components, ComponentReport{
			Name:     j.Workload,
			Metric:   j.Metric,
			Baseline: base[j.Workload],
			Progress: toSeries(j.RateTrace, j.Metric),
		})
	}
	return rep, nil
}

// NodeSpec describes one compute node of a cluster run.
type NodeSpec struct {
	Name string
	// App is a runnable registry name (see Applications).
	App string
	// PowerScale multiplies the node's dynamic core power — >1 models
	// less efficient silicon (node variability). 0 means 1.
	PowerScale float64
	Seed       uint64
}

// ClusterConfig describes a job-level power-management run.
type ClusterConfig struct {
	Nodes []NodeSpec
	// Policy is "equal-split" (default), "progress-aware", or
	// "throughput".
	Policy string
	// BudgetW is the job's power budget. If BudgetEndW is nonzero the
	// budget decays linearly from BudgetW to BudgetEndW over
	// BudgetDecay (the §II shrinking-budget scenario).
	BudgetW     float64
	BudgetEndW  float64
	BudgetDecay time.Duration
	// Seconds sizes each node's workload; the job runs to completion or
	// 6× this bound.
	Seconds float64
}

// ClusterReport is the outcome of RunCluster.
type ClusterReport struct {
	Elapsed   float64
	Completed bool
	// MinProgress / MeanProgress are per-epoch normalized job progress
	// (minimum and mean across nodes).
	MinProgress  Series
	MeanProgress Series
	BudgetW      Series
	// NodeCaps maps node name to the caps the manager programmed.
	NodeCaps     map[string]Series
	TotalEnergyJ float64
	// MeanMinProgress is the headline policy-comparison number.
	MeanMinProgress float64
}

// RunCluster distributes a job power budget across simulated nodes using
// online progress feedback — the Argo-style policy layer above the node.
func RunCluster(cfg ClusterConfig) (*ClusterReport, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("progresscap: cluster needs at least one node")
	}
	if cfg.BudgetW <= 0 {
		return nil, fmt.Errorf("progresscap: cluster needs a positive BudgetW")
	}
	if cfg.Seconds == 0 {
		cfg.Seconds = 30
	}
	if err := checkSeconds(cfg.Seconds); err != nil {
		return nil, err
	}
	var pol cluster.Policy
	switch cfg.Policy {
	case "", "equal-split":
		pol = cluster.EqualSplit{}
	case "progress-aware":
		pol = cluster.ProgressAware{Gain: 3}
	case "throughput":
		pol = cluster.Throughput{}
	default:
		return nil, fmt.Errorf("progresscap: unknown cluster policy %q", cfg.Policy)
	}
	budget := cluster.ConstantBudget(cfg.BudgetW)
	if cfg.BudgetEndW > 0 {
		decay := cfg.BudgetDecay
		if decay == 0 {
			decay = time.Duration(cfg.Seconds) * time.Second
		}
		budget = cluster.DecayingBudget(cfg.BudgetW, cfg.BudgetEndW, decay)
	}

	var nodes []*cluster.Node
	for i, spec := range cfg.Nodes {
		info, err := apps.Lookup(spec.App)
		if err != nil {
			return nil, err
		}
		if !info.Runnable() {
			return nil, fmt.Errorf("progresscap: node %q: %s has no workload model", spec.Name, spec.App)
		}
		ecfg := engine.DefaultConfig()
		ecfg.Seed = spec.Seed
		if ecfg.Seed == 0 {
			ecfg.Seed = uint64(i + 1)
		}
		if spec.PowerScale != 0 {
			ecfg.Power.CoreDynMaxW *= spec.PowerScale
		}
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("node%d", i)
		}
		e, err := engine.New(ecfg, info.Build(cfg.Seconds))
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, cluster.NewNode(name, e))
	}

	m, err := cluster.NewManager(pol, budget, nodes...)
	if err != nil {
		return nil, err
	}
	res, err := m.Run(time.Duration(cfg.Seconds*6) * time.Second)
	if err != nil {
		return nil, err
	}
	rep := &ClusterReport{
		Elapsed:         res.Elapsed.Seconds(),
		Completed:       res.Completed,
		MinProgress:     toSeries(res.MinProgress, "normalized"),
		MeanProgress:    toSeries(res.MeanProgress, "normalized"),
		BudgetW:         toSeries(res.BudgetTrace, "W"),
		NodeCaps:        map[string]Series{},
		TotalEnergyJ:    res.TotalEnergyJ,
		MeanMinProgress: res.MeanMinProgress(),
	}
	for _, n := range res.Nodes {
		rep.NodeCaps[n.Name()] = toSeries(n.CapTrace(), "W")
	}
	return rep, nil
}
