package apps

import (
	"progresscap/internal/simtime"
	"progresscap/internal/workload"
)

// This file models the paper's Category 3 example: the URBAN project,
// where the Nek5000 CFD library runs coupled with EnergyPlus (building
// energy simulation) "at timescales that are orders of magnitude apart"
// (§III-A). The paper excludes URBAN from its runtime study because no
// single online metric is reliable; its future work proposes "studying
// individual components separately and modeling progress as a weighted
// combination of the progress of individual components" (§VI-3). The
// component models below feed that extension (internal/composite).

// Nek5000 models the spectral-element CFD solver component: timestep
// based, but with heavy step-to-step variation (pressure-solver
// iteration counts swing with the flow), which is why timesteps/second
// is not a reliable online metric on its own.
func Nek5000(ranks, steps int) *workload.Workload {
	const (
		meanIterSec = 0.125 // ~8 steps/s nominal
		beta        = 0.75
		ipc         = 1.6
		mpo         = 8.0e-3
	)
	return &workload.Workload{
		Name:   "nek5000",
		Metric: "timesteps/s",
		Ranks:  ranks,
		Phases: []workload.Phase{{
			Name:            "solve",
			Iterations:      steps,
			ProgressPerIter: 1,
			SharedJitter:    0.45, // the defining feature: wildly nonuniform steps
			Gen: func(rank, iter int, shared float64, rng *simtime.RNG) workload.Segment {
				return Seg(meanIterSec*shared, beta, ipc, mpo, 0.03, 1.0/float64(ranks))
			},
		}},
	}
}

// EnergyPlus models the building-energy simulation component: long zone
// timesteps at a timescale orders of magnitude slower than the CFD
// solver's, moderately memory-bound.
func EnergyPlus(ranks, zoneSteps int) *workload.Workload {
	const (
		stepSec = 0.6
		beta    = 0.60
		ipc     = 1.1
		mpo     = 15.0e-3
	)
	return &workload.Workload{
		Name:   "energyplus",
		Metric: "zone timesteps/s",
		Ranks:  ranks,
		Phases: []workload.Phase{{
			Name:            "annual",
			Iterations:      zoneSteps,
			ProgressPerIter: 1,
			SharedJitter:    0.08,
			Gen: func(rank, iter int, shared float64, rng *simtime.RNG) workload.Segment {
				return Seg(stepSec*shared, beta, ipc, mpo, 0.04, 1.0/float64(ranks))
			},
		}},
	}
}

// URBANComponents returns the coupled URBAN workload pair sized to run
// for roughly the given virtual seconds: Nek5000 on 16 cores and
// EnergyPlus on 8 (they run concurrently on one node via the engine's
// multi-workload support).
func URBANComponents(seconds float64) (nek, eplus *workload.Workload) {
	steps := int(seconds * 8)
	if steps < 4 {
		steps = 4
	}
	zones := int(seconds / 0.6)
	if zones < 4 {
		zones = 4
	}
	return Nek5000(16, steps), EnergyPlus(8, zones)
}
