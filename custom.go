package progresscap

// Custom application models: downstream users study their own codes by
// describing phases the way §IV-B instruments real applications —
// iteration period, compute-boundedness, counter rates — without
// touching the internal workload machinery.

import (
	"fmt"
	"time"

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
func (a CustomApp) build() (*workload.Workload, error) {
	if a.Name == "" {
		return nil, fmt.Errorf("progresscap: custom app needs a Name")
	}
	metric := a.Metric
	if metric == "" {
		metric = "iterations/s"
	}
	ranks := a.Ranks
	if ranks == 0 {
		ranks = 24
	}
	if ranks < 1 {
		return nil, fmt.Errorf("progresscap: custom app %s: Ranks = %d", a.Name, a.Ranks)
	}
	if len(a.Phases) == 0 {
		return nil, fmt.Errorf("progresscap: custom app %s has no phases", a.Name)
	}
	w := &workload.Workload{Name: a.Name, Metric: metric, Ranks: ranks}
	for i, p := range a.Phases {
		if p.Iterations <= 0 {
			return nil, fmt.Errorf("progresscap: %s phase %d: Iterations = %d", a.Name, i, p.Iterations)
		}
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
		progressPer := p.ProgressPerIter
		if progressPer == 0 {
			progressPer = 1
		}
		ipc := p.IPC
		if ipc == 0 {
			ipc = 1.5
		}
		mpo := p.MPO
		if mpo == 0 {
			mpo = 1e-3
		}
		bwShare := p.BWShare
		if bwShare == 0 {
			bwShare = 1 / float64(ranks)
		}
		durSec := p.Period.Seconds()
		beta := p.Beta
		rankAmp := p.RankImbalance
		w.Phases = append(w.Phases, workload.Phase{
			Name:            name,
			Iterations:      p.Iterations,
			ProgressPerIter: progressPer,
			SharedJitter:    p.Jitter,
			Gen: func(rank, iter int, shared float64, rng *simtime.RNG) workload.Segment {
				d := durSec * shared
				if rankAmp > 0 {
					d *= rng.Jitter(rankAmp)
				}
				ct := d * beta
				cycles := ct * 3.3e9
				inst := cycles * ipc
				return workload.Segment{
					ComputeCycles: cycles,
					MemSeconds:    d * (1 - beta),
					Instructions:  inst,
					L3Misses:      inst * mpo,
					BWShare:       bwShare,
					WorkUnits:     progressPer / float64(ranks),
				}
			},
		})
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// RunCustom runs a user-defined application model under the same node
// and policy machinery as the built-in applications.
func RunCustom(app CustomApp, cfg RunConfig) (*Report, error) {
	if cfg.Seconds == 0 {
		cfg.Seconds = 20
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.PinMHz != 0 && cfg.Scheme.impl != nil {
		return nil, fmt.Errorf("progresscap: PinMHz and Scheme are mutually exclusive")
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
	fast, err := pinRun(w, 3300, seed, ideal*3+5)
	if err != nil {
		return Characterization{}, err
	}
	slow, err := pinRun(w, 1600, seed, ideal*8+5)
	if err != nil {
		return Characterization{}, err
	}
	if !fast.Completed || !slow.Completed {
		return Characterization{}, fmt.Errorf("progresscap: custom characterization runs did not complete")
	}
	c := Characterization{
		App:  app.Name,
		Beta: betaFromTimes(fast.Elapsed.Seconds(), slow.Elapsed.Seconds()),
		MPO:  fast.Counters.MPO(),
	}
	rates := fast.Rates()
	if len(rates) > 2 {
		rates = rates[1 : len(rates)-1]
	}
	c.BaselineRate = meanOf(rates)
	power := fast.PowerTrace.Values()
	if len(power) > 2 {
		power = power[1 : len(power)-1]
	}
	c.BaselinePkgW = meanOf(power)
	return c, nil
}

func betaFromTimes(tFast, tSlow float64) float64 {
	return (tSlow/tFast - 1) / (3300.0/1600.0 - 1)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
