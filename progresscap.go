// Package progresscap is a library for studying the impact of dynamic
// power capping on HPC application progress, reproducing Ramesh et al.,
// "Understanding the Impact of Dynamic Power Capping on Application
// Progress" (IPDPS 2019) as a self-contained simulation.
//
// The library bundles:
//
//   - a simulated 24-core Skylake-class node with DVFS, duty-cycle
//     modulation, an emulated RAPL controller behind an MSR interface,
//     and PAPI-style hardware counters;
//   - workload models of the paper's applications (LAMMPS, AMG, QMCPACK,
//     OpenMC, STREAM, CANDLE, and the Listing-1 imbalance sample),
//     calibrated to the paper's β and MPO characterization;
//   - online progress instrumentation: per-iteration reports over a
//     lossy pub/sub transport, aggregated into per-second online
//     performance;
//   - the paper's dynamic capping schemes (linear decrease, step
//     function, jagged edge) applied by a 1 Hz power-policy daemon; and
//   - the paper's analytical model (Eqs. 1–7) of progress under a cap.
//
// # Quick start
//
//	report, err := progresscap.Run(progresscap.RunConfig{
//		App:     "LAMMPS",
//		Seconds: 30,
//		Scheme:  progresscap.StepCap(0, 90, 10*time.Second, 10*time.Second),
//	})
//
// Run executes the workload on the simulated node under the scheme and
// returns per-second online performance together with power, frequency,
// and cap traces. Characterize measures β and an uncapped baseline;
// FitModel turns that into the paper's predictive model.
package progresscap

import (
	"fmt"
	"math"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/experiments"
	"progresscap/internal/model"
	"progresscap/internal/policy"
	"progresscap/internal/progress"
	"progresscap/internal/workload"
)

// Scheme selects a dynamic power-capping policy for a run. The zero
// value means uncapped. Construct schemes with NoCap, ConstantCap,
// LinearCap, StepCap, or JaggedCap.
type Scheme struct {
	impl policy.Scheme
}

// NoCap returns the uncapped scheme.
func NoCap() Scheme { return Scheme{impl: policy.NoCap{}} }

// ConstantCap holds the package cap at watts for the whole run.
func ConstantCap(watts float64) Scheme {
	return Scheme{impl: policy.Constant{Watts: watts}}
}

// LinearCap starts uncapped for delay, then decreases the cap from
// startW by rateWPerSec until minW (the paper's linearly decreasing
// scheme).
func LinearCap(delay time.Duration, startW, minW, rateWPerSec float64) Scheme {
	return Scheme{impl: policy.Linear{Delay: delay, StartW: startW, MinW: minW, RateWPerSec: rateWPerSec}}
}

// StepCap alternates between highW (0 = uncapped) for highFor and lowW
// for lowFor (the paper's step-function scheme).
func StepCap(highW, lowW float64, highFor, lowFor time.Duration) Scheme {
	return Scheme{impl: policy.Step{HighW: highW, LowW: lowW, HighFor: highFor, LowFor: lowFor}}
}

// JaggedCap decreases linearly from startW to lowW over fallFor, then
// snaps back to uncapped for uncappedFor (the paper's jagged-edge
// scheme).
func JaggedCap(startW, lowW float64, fallFor, uncappedFor time.Duration) Scheme {
	return Scheme{impl: policy.Jagged{StartW: startW, LowW: lowW, FallFor: fallFor, UncappedFor: uncappedFor}}
}

// Name returns the scheme's name ("uncapped" for the zero value).
func (s Scheme) Name() string {
	if s.impl == nil {
		return policy.NoCap{}.Name()
	}
	return s.impl.Name()
}

// RunConfig describes one simulated run.
type RunConfig struct {
	// App is a registry name: "LAMMPS", "AMG", "QMCPACK", "OpenMC",
	// "STREAM", or "CANDLE" (see Applications).
	App string
	// Seconds sizes the workload to roughly this much virtual time
	// uncapped; capping extends it. Default 20.
	Seconds float64
	// Scheme is the dynamic capping policy; zero value = uncapped.
	Scheme Scheme
	// PinMHz, when nonzero, disables RAPL and pins the package at this
	// frequency (the plain-DVFS power-limiting technique). Mutually
	// exclusive with Scheme.
	PinMHz float64
	// Seed makes the run reproducible. Default 1.
	Seed uint64
}

// Series is a time series of one per-second observable.
type Series struct {
	Times  []float64 // seconds since run start
	Values []float64
	Unit   string
}

// Report is the outcome of a run.
type Report struct {
	App       string
	Metric    string  // the application's online-performance metric
	Elapsed   float64 // virtual seconds
	Completed bool

	// Progress is the per-second online performance (metric units/s).
	Progress Series
	// PowerW, FreqMHz, and CapW are per-second node telemetry; CapW is
	// empty for uncapped runs (0 values mean "no cap in force").
	PowerW  Series
	FreqMHz Series
	CapW    Series

	MeanRate    float64 // mean per-second online performance
	EnergyJ     float64 // package-domain energy
	DRAMEnergyJ float64 // DRAM-domain energy
	MIPS        float64
	MPO         float64
	// Behavior classifies the progress series: "steady", "fluctuating",
	// or "phased" (the paper's Fig 1 taxonomy).
	Behavior string
	// Imbalance is the mean barrier-spin share of rank busy time
	// (0 = perfectly balanced).
	Imbalance float64
}

func toSeries(tr interface {
	Times() []float64
	Values() []float64
}, unit string) Series {
	return Series{Times: tr.Times(), Values: tr.Values(), Unit: unit}
}

// normalize fills RunConfig's defaults and rejects settings no run can
// honour; Run and RunCustom share it.
func (cfg *RunConfig) normalize() error {
	if cfg.Seconds == 0 {
		cfg.Seconds = 20
	}
	if err := checkSeconds(cfg.Seconds); err != nil {
		return err
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.PinMHz != 0 && cfg.Scheme.impl != nil {
		return fmt.Errorf("progresscap: PinMHz and Scheme are mutually exclusive")
	}
	if cfg.PinMHz < 0 || math.IsNaN(cfg.PinMHz) {
		return fmt.Errorf("progresscap: PinMHz = %v is not a frequency", cfg.PinMHz)
	}
	return nil
}

// checkSeconds rejects a run size that is negative or not finite.
func checkSeconds(s float64) error {
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return fmt.Errorf("progresscap: Seconds = %v is not a usable run size", s)
	}
	return nil
}

// Run executes one workload on the simulated node.
func Run(cfg RunConfig) (*Report, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.Seconds < 2 {
		return nil, fmt.Errorf("progresscap: Seconds = %v too short (need >= 2)", cfg.Seconds)
	}
	info, err := apps.Lookup(cfg.App)
	if err != nil {
		return nil, err
	}
	if !info.Runnable() {
		return nil, fmt.Errorf("progresscap: %s is a Category %s application with no reliable online metric; it cannot be run", info.Name, info.Category)
	}
	return runWorkload(info.Build(cfg.Seconds), cfg)
}

// runWorkload executes w as a single-node RunSpec on a serial Runner.
func runWorkload(w *workload.Workload, cfg RunConfig) (*Report, error) {
	res, err := experiments.NewRunner(1).Do(experiments.RunSpec{
		Make:    func() *workload.Workload { return w },
		Scheme:  cfg.Scheme.impl,
		DVFSMHz: cfg.PinMHz,
		Seed:    cfg.Seed,
		// Capping can stretch the run well past its uncapped sizing. The
		// ceiling, 6× that sizing, is whole seconds like RunNRM's and
		// RunURBAN's, which convert through time.Duration(Seconds*6).
		MaxSeconds: math.Trunc(cfg.Seconds * 6),
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		App:         cfg.App,
		Metric:      w.Metric,
		Elapsed:     res.Elapsed.Seconds(),
		Completed:   res.Completed,
		Progress:    toSeries(res.RateTrace, w.Metric),
		PowerW:      toSeries(res.PowerTrace, "W"),
		FreqMHz:     toSeries(res.FreqTrace, "MHz"),
		MeanRate:    res.MeanRate(),
		EnergyJ:     res.EnergyJ,
		DRAMEnergyJ: res.DRAMEnergyJ,
		MIPS:        res.Counters.MIPS(),
		MPO:         res.Counters.MPO(),
		Behavior:    progress.Classify(res.Rates()).String(),
		Imbalance:   res.Jobs[0].Imbalance(),
	}
	if res.CapTrace != nil {
		rep.CapW = toSeries(res.CapTrace, "W")
	}
	return rep, nil
}

// Characterization is the §IV-A measurement of one application.
type Characterization struct {
	App  string
	Beta float64 // compute-boundedness
	MPO  float64 // L3 misses per instruction
	// BaselineRate and BaselinePkgW are the uncapped progress rate and
	// package power (the model's r(P_coremax) inputs).
	BaselineRate float64
	BaselinePkgW float64
}

// Characterize measures β (execution time at 3300 vs 1600 MHz), MPO, and
// the uncapped baseline for an application.
func Characterize(app string, seconds float64, seed uint64) (Characterization, error) {
	return CharacterizeParallel(app, seconds, seed, 1)
}

// CharacterizeParallel is Characterize on a scheduler that runs up to
// parallel simulations at once, so the 3300 and 1600 MHz measurement runs
// overlap when parallel > 1. The result is identical at any parallelism;
// only wall time changes.
func CharacterizeParallel(app string, seconds float64, seed uint64, parallel int) (Characterization, error) {
	if seconds == 0 {
		seconds = 20
	}
	if err := checkSeconds(seconds); err != nil {
		return Characterization{}, err
	}
	info, err := apps.Lookup(app)
	if err != nil {
		return Characterization{}, err
	}
	if !info.Runnable() {
		return Characterization{}, fmt.Errorf("progresscap: cannot characterize Category %s application %s", info.Category, info.Name)
	}
	mk := func() *workload.Workload { return info.Build(seconds) }
	return characterize(app, mk, seed, parallel, seconds*4)
}

// characterize runs the §IV-A procedure through the experiments Runner;
// maxSeconds bounds the 3300 MHz run.
func characterize(app string, mk func() *workload.Workload, seed uint64, parallel int, maxSeconds float64) (Characterization, error) {
	c, err := experiments.Options{Parallel: parallel, Seed: seed}.Characterize(mk, maxSeconds)
	if err != nil {
		return Characterization{}, fmt.Errorf("progresscap: characterizing %s: %w", app, err)
	}
	return Characterization{
		App:          app,
		Beta:         c.Beta,
		MPO:          c.MPO,
		BaselineRate: c.BaselineRate,
		BaselinePkgW: c.BaselinePkgW,
	}, nil
}

// Model is the paper's analytical model (Eqs. 1–7) fitted to one
// application.
type Model struct {
	p model.Params
}

// FitModel builds the model from a characterization, using the paper's
// estimates: α = 2 and P_coremax = β × uncapped package power.
func FitModel(c Characterization) (Model, error) {
	p, err := model.FromBaseline(c.Beta, c.BaselineRate, c.BaselinePkgW)
	if err != nil {
		return Model{}, err
	}
	return Model{p: p}, nil
}

// Beta returns the fitted compute-boundedness.
func (m Model) Beta() float64 { return m.p.Beta }

// BaselineRate returns r(P_coremax).
func (m Model) BaselineRate() float64 { return m.p.RMax }

// PredictProgress returns the expected online performance under a
// package power cap (Eqs. 5 + 4).
func (m Model) PredictProgress(pkgCapW float64) float64 {
	return m.p.PredictProgress(pkgCapW)
}

// PredictDelta returns the expected drop in online performance when the
// package cap is applied from the uncapped state (Eqs. 5 + 7).
func (m Model) PredictDelta(pkgCapW float64) float64 {
	return m.p.PredictDelta(pkgCapW)
}

// CapForProgress returns the package cap expected to sustain the target
// online performance — the paper's "decide on the exact power budget
// given an expectation of online performance".
func (m Model) CapForProgress(targetRate float64) (float64, error) {
	return m.p.PackageCapForProgress(targetRate)
}

// AppInfo describes one application from the paper's study set.
type AppInfo struct {
	Name        string
	Description string
	Category    string // "1", "2", "3" (or "1/2" for CANDLE)
	Metric      string
	Resource    string // limiting system resource
	Runnable    bool   // has a workload model (Categories 1 and 2)
}

// Applications lists the paper's application set (Tables II and V).
func Applications() []AppInfo {
	var out []AppInfo
	for _, info := range apps.Registry() {
		out = append(out, AppInfo{
			Name:        info.Name,
			Description: info.Description,
			Category:    info.CategoryLabel(),
			Metric:      info.Metric,
			Resource:    info.Resource,
			Runnable:    info.Runnable(),
		})
	}
	return out
}
