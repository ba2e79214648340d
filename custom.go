package progresscap

// Custom application models: downstream users study their own codes by
// describing phases the way §IV-B instruments real applications —
// iteration period, compute-boundedness, counter rates — without
// touching the internal workload machinery.

import (
	"fmt"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/simtime"
	"progresscap/internal/workload"
)

// CustomPhase describes one phase of a custom application.
type CustomPhase struct {
	// Name identifies the phase in progress reports.
	Name string
	// Iterations is the fixed iteration count of the phase.
	Iterations int
	// Period is the iteration duration at the node's maximum frequency
	// (uncapped, full bandwidth).
	Period time.Duration
	// Beta is the phase's compute-boundedness in (0, 1]: the fraction of
	// Period spent executing rather than stalled on memory.
	Beta float64
	// ProgressPerIter is the metric units one iteration contributes
	// (default 1).
	ProgressPerIter float64
	// IPC is instructions per cycle over the compute part (default 1.5).
	IPC float64
	// MPO is L3 misses per instruction (default 1e-3).
	MPO float64
	// BWShare is each rank's memory-bandwidth demand while stalled, in
	// [0, 1] (default 1/Ranks, i.e. the team can just saturate the
	// memory subsystem when fully stalled).
	BWShare float64
	// Jitter is the relative iteration-cost variation shared by all
	// ranks, in [0, 1) (default 0).
	Jitter float64
	// RankImbalance adds an independent per-rank cost variation,
	// in [0, 1) (default 0) — it converts directly into barrier spin.
	RankImbalance float64
}

// CustomApp is a user-defined application model.
type CustomApp struct {
	Name   string
	Metric string
	// Ranks is the on-node parallelism (default 24, one per core).
	Ranks  int
	Phases []CustomPhase
}

// build converts the description into the internal workload model.
// workload.Validate checks what the workload itself requires (a name,
// ranks, phases with iterations); build checks the phase parameters.
func (a CustomApp) build() (*workload.Workload, error) {
	metric := a.Metric
	if metric == "" {
		metric = "iterations/s"
	}
	ranks := a.Ranks
	if ranks == 0 {
		ranks = 24
	}
	w := &workload.Workload{Name: a.Name, Metric: metric, Ranks: ranks}
	for i, p := range a.Phases {
		if p.Period <= 0 {
			return nil, fmt.Errorf("progresscap: %s phase %d: Period = %v", a.Name, i, p.Period)
		}
		if p.Period < 5*time.Millisecond {
			return nil, fmt.Errorf("progresscap: %s phase %d: Period %v below the 5 ms simulation floor", a.Name, i, p.Period)
		}
		if p.Beta <= 0 || p.Beta > 1 {
			return nil, fmt.Errorf("progresscap: %s phase %d: Beta = %v outside (0,1]", a.Name, i, p.Beta)
		}
		if p.Jitter < 0 || p.Jitter >= 1 || p.RankImbalance < 0 || p.RankImbalance >= 1 {
			return nil, fmt.Errorf("progresscap: %s phase %d: jitter settings out of range", a.Name, i)
		}
		if p.BWShare < 0 || p.BWShare > 1 {
			return nil, fmt.Errorf("progresscap: %s phase %d: BWShare = %v", a.Name, i, p.BWShare)
		}

		name := p.Name
		if name == "" {
			name = fmt.Sprintf("phase%d", i)
		}
		progressPer := orDefault(p.ProgressPerIter, 1)
		ipc := orDefault(p.IPC, 1.5)
		mpo := orDefault(p.MPO, 1e-3)
		bwShare := orDefault(p.BWShare, 1/float64(ranks))
		w.Phases = append(w.Phases, workload.Phase{
			Name:            name,
			Iterations:      p.Iterations,
			ProgressPerIter: progressPer,
			SharedJitter:    p.Jitter,
			Gen: func(rank, iter int, shared float64, rng *simtime.RNG) workload.Segment {
				d := p.Period.Seconds() * shared
				if p.RankImbalance > 0 {
					d *= rng.Jitter(p.RankImbalance)
				}
				return apps.Seg(d, p.Beta, ipc, mpo, bwShare, progressPer/float64(ranks))
			},
		})
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("progresscap: custom app: %w", err)
	}
	return w, nil
}

// orDefault returns v, or def when v is the zero value.
func orDefault(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// RunCustom runs a user-defined application model under the same node
// and policy machinery as the built-in applications.
func RunCustom(app CustomApp, cfg RunConfig) (*Report, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	w, err := app.build()
	if err != nil {
		return nil, err
	}
	cfg.App = app.Name
	return runWorkload(w, cfg)
}

// CharacterizeCustom measures β, MPO, and the uncapped baseline for a
// custom application model (the §IV-A procedure).
func CharacterizeCustom(app CustomApp, seed uint64) (Characterization, error) {
	if seed == 0 {
		seed = 1
	}
	w, err := app.build()
	if err != nil {
		return Characterization{}, err
	}
	ideal := w.IdealDuration(3.3e9, 1, seed).Seconds()
	return characterize(app.Name, func() *workload.Workload { return w }, seed, 1, ideal*3+5)
}
