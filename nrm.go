package progresscap

// Public API for the node resource manager (§II): budget enforcement and
// progress targets driven by the online progress signal.

import (
	"fmt"
	"sort"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/engine"
	"progresscap/internal/nrm"
)

// BudgetChange retargets the NRM at a point in the run.
type BudgetChange struct {
	AtSeconds float64
	// Watts is the new node power budget (0 = uncapped).
	Watts float64
	// TargetRate, when nonzero, switches the NRM to progress-target mode
	// instead (Watts is then ignored).
	TargetRate float64
}

// NRMConfig describes a managed run.
type NRMConfig struct {
	// App is a runnable registry name.
	App string
	// Seconds sizes the workload (default 30).
	Seconds float64
	// Beta is the characterized compute-boundedness (0 lets the NRM
	// assume compute-bound until it learns otherwise).
	Beta float64
	// DVFSTable optionally calibrates pinned frequencies → package power
	// so the NRM can choose DVFS over RAPL where it preserves more
	// measured progress.
	DVFSTable map[float64]float64 // MHz -> W
	// Schedule lists budget/target changes in time order.
	Schedule []BudgetChange
	Seed     uint64
}

// NRMDecision is one epoch's enforcement choice.
type NRMDecision struct {
	AtSeconds float64
	BudgetW   float64
	Knob      string // "none", "rapl", "dvfs"
	Setting   float64
}

// NRMReport is the outcome of RunNRM.
type NRMReport struct {
	Elapsed      float64
	Completed    bool
	BaselineRate float64
	PhaseChanges int
	Decisions    []NRMDecision
	Progress     Series
	PowerW       Series
	EnergyJ      float64
}

// RunNRM runs an application under the node resource manager, applying
// the budget/target schedule. The NRM calibrates an uncapped baseline,
// fits the paper's model, and on each change compares RAPL against DVFS
// by measurement before committing.
func RunNRM(cfg NRMConfig) (*NRMReport, error) {
	if cfg.Seconds == 0 {
		cfg.Seconds = 30
	}
	if err := checkSeconds(cfg.Seconds); err != nil {
		return nil, err
	}
	info, err := apps.Lookup(cfg.App)
	if err != nil {
		return nil, err
	}
	if !info.Runnable() {
		return nil, fmt.Errorf("progresscap: %s has no workload model", cfg.App)
	}
	ecfg := engine.DefaultConfig()
	ecfg.Seed = cfg.Seed // the engine reads 0 as 1
	eng, err := engine.New(ecfg, info.Build(cfg.Seconds))
	if err != nil {
		return nil, err
	}
	var table []nrm.DVFSPoint
	for mhz, w := range cfg.DVFSTable {
		table = append(table, nrm.DVFSPoint{MHz: mhz, PowerW: w})
	}
	sort.Slice(table, func(i, j int) bool { return table[i].MHz < table[j].MHz })
	mgr, err := nrm.New(nrm.Config{Beta: cfg.Beta, DVFSTable: table}, eng)
	if err != nil {
		return nil, err
	}

	schedule := append([]BudgetChange(nil), cfg.Schedule...)
	sort.SliceStable(schedule, func(i, j int) bool { return schedule[i].AtSeconds < schedule[j].AtSeconds })

	deadline := time.Duration(cfg.Seconds*6) * time.Second
	next := 0
	for eng.Clock().Now() < deadline {
		nowSec := eng.Clock().Now().Seconds()
		for next < len(schedule) && schedule[next].AtSeconds <= nowSec {
			ch := schedule[next]
			if ch.TargetRate > 0 {
				mgr.SetTargetProgress(ch.TargetRate)
			} else {
				mgr.SetBudget(ch.Watts)
			}
			next++
		}
		done, err := mgr.Step()
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	res, err := eng.Finish()
	if err != nil {
		return nil, err
	}

	rep := &NRMReport{
		Elapsed:      res.Elapsed.Seconds(),
		Completed:    res.Completed,
		BaselineRate: mgr.BaselineRate(),
		PhaseChanges: mgr.PhaseChanges(),
		Progress:     toSeries(res.RateTrace, info.Metric),
		PowerW:       toSeries(res.PowerTrace, "W"),
		EnergyJ:      res.EnergyJ,
	}
	for _, d := range mgr.Decisions() {
		rep.Decisions = append(rep.Decisions, NRMDecision{
			AtSeconds: d.At.Seconds(),
			BudgetW:   d.BudgetW,
			Knob:      d.Knob.String(),
			Setting:   d.Setting,
		})
	}
	return rep, nil
}
