// Package apps provides workload models of the applications the paper
// instruments (§IV-B), calibrated so that the characterization metrics it
// reports (Table VI: β and MPO; Table V: progress metrics and reporting
// rates) come out of the simulation:
//
//	app        β     MPO(×10⁻³)  metric                    reports
//	LAMMPS     1.00  0.32        atom timesteps/s          ~20/s
//	AMG        0.52  30.1        GMRES iterations/s        ~2.5-3/s
//	QMCPACK    0.84  3.91        blocks/s (DMC)            ~16/s
//	OpenMC     0.93  0.20        particles/s               ~1/s
//	STREAM     0.37  50.9        iterations/s              ~16/s
//
// Because a segment's time is T(f) = C/f + M, an application's measured β
// equals its compute-time fraction at f_max by construction, so each
// builder fixes that fraction to the paper's value.
package apps

import (
	"progresscap/internal/simtime"
	"progresscap/internal/workload"
)

// FMaxHz is the frequency the calibration times below are specified at
// (the node's maximum all-core turbo).
const FMaxHz = 3.3e9

// DefaultRanks is the paper's single-node parallelism: 24 processes or
// threads, one per physical core.
const DefaultRanks = 24

// Seg builds a segment from an iteration-time budget: total duration at
// FMaxHz split into compute and memory by beta, with instruction and miss
// counts derived from ipc and mpo. Custom application models build their
// segments with it too.
func Seg(durSec, beta, ipc, mpo, bwShare, workUnits float64) workload.Segment {
	ct := durSec * beta
	cycles := ct * FMaxHz
	inst := cycles * ipc
	return workload.Segment{
		ComputeCycles: cycles,
		MemSeconds:    durSec * (1 - beta),
		Instructions:  inst,
		L3Misses:      inst * mpo,
		BWShare:       bwShare,
		WorkUnits:     workUnits,
	}
}

// LAMMPS models the Lennard-Jones benchmark: 24 MPI ranks, 40,000 atoms,
// a timestep loop of ~50 ms iterations (≈20 progress reports/s), fully
// compute-bound (β = 1.00, MPO = 0.32×10⁻³).
func LAMMPS(ranks, steps int) *workload.Workload {
	const (
		iterSec = 0.050
		beta    = 0.998 // rounds to the paper's 1.00
		ipc     = 2.0
		mpo     = 0.32e-3
		atoms   = 40000
	)
	return &workload.Workload{
		Name:   "lammps",
		Metric: "atom timesteps/s",
		Ranks:  ranks,
		Phases: []workload.Phase{{
			Name:            "verlet",
			Iterations:      steps,
			ProgressPerIter: atoms,
			SharedJitter:    0.01,
			Gen: func(rank, iter int, shared float64, rng *simtime.RNG) workload.Segment {
				return Seg(iterSec*shared, beta, ipc, mpo, 0.002, atoms/float64(ranks))
			},
		}},
	}
}

// AMG models the GMRES solve (HYPRE solver 3 with diagonal scaling):
// 24 MPI ranks, ~0.36 s iterations whose cost fluctuates so the online
// rate wobbles between ~2.5 and ~3 iterations/s, memory-heavy
// (β = 0.52, MPO = 30.1×10⁻³).
func AMG(ranks, iters int) *workload.Workload {
	const (
		iterSec = 0.364
		beta    = 0.52
		ipc     = 1.2
		mpo     = 30.1e-3
	)
	return &workload.Workload{
		Name:   "amg",
		Metric: "GMRES iterations/s",
		Ranks:  ranks,
		Phases: []workload.Phase{{
			Name:            "gmres",
			Iterations:      iters,
			ProgressPerIter: 1,
			SharedJitter:    0.10,
			Gen: func(rank, iter int, shared float64, rng *simtime.RNG) workload.Segment {
				// Iteration-to-iteration cost variation dominates
				// (Fig 1 center); a little rank imbalance on top.
				rkJitter := rng.Jitter(0.01)
				return Seg(iterSec*shared*rkJitter, beta, ipc, mpo, 0.05, 1.0/float64(ranks))
			},
		}},
	}
}

// QMCPACK models the performance-NiO benchmark: 24 OpenMP threads and
// three phases — VMC1, VMC2, and the DMC that dominates the run —
// computing blocks at visibly different rates (Fig 1 right). The DMC has
// β = 0.84 and MPO = 3.91×10⁻³.
func QMCPACK(threads, vmc1, vmc2, dmc int) *workload.Workload {
	const (
		ipc = 1.8
		mpo = 3.91e-3
	)
	phase := func(name string, blocks int, iterSec, beta float64) workload.Phase {
		return workload.Phase{
			Name:            name,
			Iterations:      blocks,
			ProgressPerIter: 1, // one block
			SharedJitter:    0.02,
			Gen: func(rank, iter int, shared float64, rng *simtime.RNG) workload.Segment {
				return Seg(iterSec*shared, beta, ipc, mpo, 0.02, 1.0/float64(threads))
			},
		}
	}
	return &workload.Workload{
		Name:   "qmcpack",
		Metric: "blocks/s",
		Ranks:  threads,
		Phases: []workload.Phase{
			phase("vmc1", vmc1, 1.0/8, 0.88),  // ~8 blocks/s
			phase("vmc2", vmc2, 1.0/12, 0.88), // ~12 blocks/s
			phase("dmc", dmc, 1.0/16, 0.84),   // ~16 blocks/s
		},
	}
}

// OpenMC models the neutron-transport benchmark: inactive then active
// batches over 24 OpenMP threads, ~1 s per active batch so the 1 Hz
// aggregation window aliases against batch completions (the paper's
// occasional zero reports). β = 0.93, MPO = 0.20×10⁻³.
func OpenMC(threads, inactive, active, particles int) *workload.Workload {
	const (
		ipc = 1.5
		mpo = 0.20e-3
	)
	phase := func(name string, batches int, iterSec float64) workload.Phase {
		return workload.Phase{
			Name:            name,
			Iterations:      batches,
			ProgressPerIter: float64(particles),
			SharedJitter:    0.03,
			Gen: func(rank, iter int, shared float64, rng *simtime.RNG) workload.Segment {
				return Seg(iterSec*shared, 0.93, ipc, mpo, 0.01,
					float64(particles)/float64(threads))
			},
		}
	}
	return &workload.Workload{
		Name:   "openmc",
		Metric: "particles/s",
		Ranks:  threads,
		Phases: []workload.Phase{
			phase("inactive", inactive, 0.80),
			phase("active", active, 1.05),
		},
	}
}

// STREAM models the memory-bandwidth benchmark: 24 OpenMP threads
// sweeping copy/scale/add/triad each iteration (~16 iterations/s),
// saturating memory bandwidth (β = 0.37, MPO = 50.9×10⁻³).
func STREAM(threads, iters int) *workload.Workload {
	const (
		iterSec = 0.0625
		beta    = 0.37
		ipc     = 0.8
		mpo     = 50.9e-3
	)
	return &workload.Workload{
		Name:   "stream",
		Metric: "iterations/s",
		Ranks:  threads,
		Phases: []workload.Phase{{
			Name:            "copy-scale-add-triad",
			Iterations:      iters,
			ProgressPerIter: 1,
			SharedJitter:    0.01,
			Gen: func(rank, iter int, shared float64, rng *simtime.RNG) workload.Segment {
				// Per-thread bandwidth share is high enough that the
				// aggregate demand saturates the memory subsystem.
				return Seg(iterSec*shared, beta, ipc, mpo, 0.104, 1.0/float64(threads))
			},
		}},
	}
}

// CANDLE models the deep-learning benchmark's training phase: epochs
// completed per second is the online metric; the epoch count is bounded
// by accuracy rather than known in advance, which is why the paper puts
// it between Categories 1 and 2.
func CANDLE(threads, epochs int) *workload.Workload {
	const (
		epochSec = 1.25
		beta     = 0.85
		ipc      = 1.6
		mpo      = 2.0e-3
	)
	return &workload.Workload{
		Name:   "candle",
		Metric: "epochs/s",
		Ranks:  threads,
		Phases: []workload.Phase{{
			Name:            "training",
			Iterations:      epochs,
			ProgressPerIter: 1,
			SharedJitter:    0.04,
			Gen: func(rank, iter int, shared float64, rng *simtime.RNG) workload.Segment {
				return Seg(epochSec*shared, beta, ipc, mpo, 0.02, 1.0/float64(threads))
			},
		}},
	}
}

// ImbalanceSample is the paper's Listing 1: each rank "works" by sleeping
// — one work unit per microsecond slept — then hits a barrier. With equal
// work every rank sleeps WorkSeconds; with unequal work rank r sleeps
// (r+1)/ranks × WorkSeconds and busy-waits the rest, inflating MIPS
// without changing iterations/s (Table I).
func ImbalanceSample(ranks, iters int, equal bool, workSeconds float64) *workload.Workload {
	name := "imbalance-unequal"
	if equal {
		name = "imbalance-equal"
	}
	return &workload.Workload{
		Name:   name,
		Metric: "iterations/s",
		Ranks:  ranks,
		Phases: []workload.Phase{{
			Name:            "main",
			Iterations:      iters,
			ProgressPerIter: 1,
			Gen: func(rank, iter int, shared float64, rng *simtime.RNG) workload.Segment {
				sleep := workSeconds
				if !equal {
					sleep = float64(rank+1) / float64(ranks) * workSeconds
				}
				return workload.Segment{
					SleepSeconds: sleep,
					WorkUnits:    sleep * 1e6, // one unit per µs in sleep()
				}
			},
		}},
	}
}
