// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated node. Each entry point returns an Artifact
// holding the rendered rows/series; cmd/experiments prints them and
// bench_test.go exposes one benchmark per artifact.
//
// Index (see DESIGN.md for the full mapping):
//
//	Table1    — MIPS vs online-performance definitions (Listing 1)
//	Tables2to4— application descriptions and interview summary
//	Table5    — categorization and online-performance metrics
//	Table6    — β and MPO characterization
//	Figure1   — online-performance character (steady/fluctuating/phased)
//	Figure2   — RAPL application-aware frequency under identical caps
//	Figure3   — progress follows the dynamic capping function
//	Figure4   — measured vs model-predicted change in progress
//	Figure5   — STREAM: RAPL vs direct-DVFS power limiting
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"progresscap/internal/engine"
	"progresscap/internal/policy"
	"progresscap/internal/trace"
	"progresscap/internal/workload"
)

// Options scales the experiment harness. The zero value is filled with
// defaults tuned so the full suite runs in a couple of minutes of wall
// time; increase RunSeconds/Reps for tighter statistics.
type Options struct {
	// RunSeconds is the virtual duration of one measurement run.
	//
	// Sentinel: 0 means "use the default" (12); there is no way to request
	// a zero-length run. Negative values are rejected with an error rather
	// than silently running a zero-length sweep.
	RunSeconds float64
	// Reps is the number of repetitions averaged per power cap in
	// Figure 4 (the paper uses five).
	//
	// Sentinel: 0 means "use the default" (3). Negative values are
	// rejected with an error.
	Reps int
	// Seed is the base RNG seed; repetition k uses Seed+k.
	//
	// Sentinel: 0 means "use the default" (1) — seed 0 is not a usable
	// seed, matching engine.Config.Seed.
	Seed uint64
	// CheckInvariants arms the engine-level safety invariant checker
	// (cap range, monotonic energy, bounded actuation rate) on every run
	// the harness performs; any violation fails the artifact. Tests and
	// the chaos harness enable it unconditionally; cmd/experiments
	// exposes it as -invariants.
	CheckInvariants bool
	// Parallel bounds how many simulations run concurrently.
	//
	// Sentinel: 0 (or negative) means GOMAXPROCS. 1 reproduces the old
	// fully serial harness. Results are byte-identical at any setting;
	// only wall time changes.
	Parallel int
	// FixedTick forces every engine the harness builds to run in the
	// fixed-tick oracle mode instead of event-driven macro-stepping (see
	// engine.Config.FixedTick). Output is byte-identical either way —
	// the differential test asserts exactly that — so this exists for
	// validation, not for users.
	FixedTick bool
	// NodeWorkers bounds how many node-engine shards a cluster-level
	// generator advances concurrently within each epoch (see
	// cluster.Manager.SetNodeWorkers).
	//
	// Sentinel: 0 means GOMAXPROCS; 1 reproduces the serial advance
	// loop. Like Parallel, results are byte-identical at any setting —
	// which is why it is NOT part of any run fingerprint or memo key
	// (TestFingerprintIgnoresExecutionKnobs pins that).
	NodeWorkers int
	// Backend selects the actuation path for single-node scheme runs:
	// "" or "msr" keeps the legacy register daemon (byte-identical to
	// pre-backend artifacts), "sysfs" routes every cap through the
	// hardened actuator over the emulated powercap tree. Unlike the
	// execution knobs above it IS semantic — sysfs quantizes caps
	// differently — so it flows into the run fingerprint. Pinned-DVFS
	// runs carry no cap daemon and ignore it.
	Backend string
	// Forking enables checkpoint/fork prefix reuse across sweep cells:
	// runs that share a simulation prefix (same workload, seed, flags,
	// and cap decisions up to some second) resume from a pooled engine
	// checkpoint instead of re-simulating it (see fork.go). Like
	// Parallel and NodeWorkers this is an execution knob — results are
	// byte-identical either way, which the fork-vs-scratch oracle test
	// pins — so it is NOT part of any run fingerprint or memo key.
	Forking bool

	// runner schedules and memoizes runs. All generators reached through
	// one Options value (All, or cmd/experiments via WithRunner) share it,
	// so cross-artifact baselines simulate once. Lazily created by
	// fillDefaults when unset.
	runner *Runner
}

// DefaultOptions returns the standard harness scale: 12-second runs,
// 3 repetitions, GOMAXPROCS-wide scheduling.
func DefaultOptions() Options {
	return Options{RunSeconds: 12, Reps: 3, Seed: 1}
}

// WithRunner returns a copy of o routing every run through r, letting a
// caller share one memoizing scheduler across several artifact
// generations (cmd/experiments does this for the whole suite).
func (o Options) WithRunner(r *Runner) Options {
	o.runner = r
	return o
}

// fillDefaults validates o and replaces sentinel zeros with defaults.
// Every generator calls it on its own copy, so a shared runner must be
// injected (via All or WithRunner) before the copies diverge.
func (o *Options) fillDefaults() error {
	if o.RunSeconds < 0 {
		return fmt.Errorf("experiments: negative RunSeconds %v", o.RunSeconds)
	}
	if math.IsNaN(o.RunSeconds) || math.IsInf(o.RunSeconds, 0) {
		return fmt.Errorf("experiments: non-finite RunSeconds %v", o.RunSeconds)
	}
	if o.Reps < 0 {
		return fmt.Errorf("experiments: negative Reps %d", o.Reps)
	}
	if o.RunSeconds == 0 {
		o.RunSeconds = 12
	}
	if o.Reps == 0 {
		o.Reps = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	switch o.Backend {
	case "", "sysfs":
	case "msr":
		o.Backend = "" // canonical spelling of the default path
	default:
		return fmt.Errorf("experiments: unknown actuation backend %q (want msr or sysfs)", o.Backend)
	}
	if o.runner == nil {
		o.runner = NewRunner(o.Parallel)
	}
	return nil
}

// NamedPlot pairs a file-name-friendly identifier with an SVG plot.
type NamedPlot struct {
	Name string
	Plot *trace.Plot
}

// Artifact is one regenerated table or figure.
type Artifact struct {
	ID     string
	Title  string
	Tables []*trace.Table
	// Notes carries free-form lines (classifications, correlations,
	// sparklines) rendered after the tables.
	Notes []string
	// Figures holds SVG renderings of the artifact's series, written by
	// cmd/experiments -svg.
	Figures []NamedPlot
}

// addFigure appends a plot, ignoring nil (a figure is never mandatory).
func (a *Artifact) addFigure(name string, p *trace.Plot) {
	if p != nil {
		a.Figures = append(a.Figures, NamedPlot{Name: name, Plot: p})
	}
}

// Render returns the artifact as printable text.
func (a *Artifact) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", a.ID, a.Title)
	for _, t := range a.Tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	for _, n := range a.Notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// capSpec describes one run under a scheme (nil = uncapped).
func (o Options) capSpec(mk func() *workload.Workload, scheme policy.Scheme, seed uint64, maxSeconds float64) RunSpec {
	return RunSpec{Make: mk, Scheme: scheme, Seed: seed, MaxSeconds: maxSeconds, Invariants: o.CheckInvariants, FixedTick: o.FixedTick, Backend: o.Backend, Forking: o.Forking}
}

// dvfsSpec describes one run pinned at a frequency with RAPL manual.
func (o Options) dvfsSpec(mk func() *workload.Workload, mhz float64, seed uint64, maxSeconds float64) RunSpec {
	return RunSpec{Make: mk, DVFSMHz: mhz, Seed: seed, MaxSeconds: maxSeconds, Invariants: o.CheckInvariants, FixedTick: o.FixedTick, Forking: o.Forking}
}

// engineConfig returns the node configuration every harness-built engine
// starts from: the package default plus the Options' engine-mode knobs.
// Extension generators that construct engines directly (rather than going
// through the Runner) must use this so -- and only so -- FixedTick reaches
// them too.
func (o Options) engineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.FixedTick = o.FixedTick
	return cfg
}

// run executes one workload under a scheme (nil = uncapped) and returns
// the result. All experiment runs flow through the Options' Runner so
// they use the same node configuration (and the same invariant checking,
// when enabled) and identical runs are memoized. The caller may reuse w
// afterwards: execution happens on this goroutine.
func (o Options) run(w *workload.Workload, scheme policy.Scheme, seed uint64, maxSeconds float64) (*engine.Result, error) {
	return o.rn().Do(o.capSpec(func() *workload.Workload { return w }, scheme, seed, maxSeconds))
}

// runDVFS executes one workload pinned at a frequency with RAPL manual.
func (o Options) runDVFS(w *workload.Workload, mhz float64, seed uint64, maxSeconds float64) (*engine.Result, error) {
	return o.rn().Do(o.dvfsSpec(func() *workload.Workload { return w }, mhz, seed, maxSeconds))
}

// rn returns the Options' runner, creating a serial fallback for callers
// that bypassed fillDefaults (defensive; generators all call it).
func (o Options) rn() *Runner {
	if o.runner != nil {
		return o.runner
	}
	return NewRunner(1)
}

// invariantErr folds a run's invariant violations into an error.
func invariantErr(e *engine.Engine) error {
	if v := e.InvariantViolations(); len(v) > 0 {
		return fmt.Errorf("experiments: %d invariant violations, first: %s", len(v), v[0])
	}
	return nil
}

// steadyRates drops the warm-up and final windows of a run and returns
// the remaining per-window rates (the controller needs a window or two
// to settle after a cap change).
func steadyRates(res *engine.Result, skip int) []float64 {
	rates := res.Rates()
	if len(rates) <= skip+1 {
		return rates
	}
	return rates[skip : len(rates)-1]
}

// meanSteadyPower averages the per-window package power, skipping
// warm-up and the final partial window.
func meanSteadyPower(res *engine.Result, skip int) float64 {
	vals := res.PowerTrace.Values()
	if len(vals) <= skip+1 {
		skip = 0
	}
	var sum float64
	n := 0
	for i := skip; i < len(vals)-1; i++ {
		sum += vals[i]
		n++
	}
	if n == 0 {
		if len(vals) == 0 {
			return 0
		}
		return vals[len(vals)-1]
	}
	return sum / float64(n)
}

// Generator names one artifact and the function that produces it.
type Generator struct {
	ID string
	Fn func(Options) (*Artifact, error)
}

// Artifacts is the registry of every artifact, in paper order: the
// paper's tables and figures, then the extensions. cmd/experiments and
// the whole-suite oracles iterate it, so an artifact added here is
// rendered, determinism-checked and macro≡fixed-tick-checked at once.
var Artifacts = []Generator{
	{"table1", Table1},
	{"tables2to4", func(Options) (*Artifact, error) { return Tables2to4(), nil }},
	{"table5", func(Options) (*Artifact, error) { return Table5(), nil }},
	{"table6", Table6},
	{"fig1", Figure1},
	{"fig2", Figure2},
	{"fig3", Figure3},
	{"fig4", Figure4},
	{"fig5", Figure5},
	{"ext-alpha", ExtAlphaFit},
	{"ext-techniques", ExtTechniques},
	{"ext-composite", ExtComposite},
	{"ext-cluster", ExtCluster},
	{"ext-energy", ExtEnergy},
	{"ext-method", ExtMethod},
	{"ext-faults", ExtFaults},
	{"ext-crashes", ExtCrashes},
	{"ext-partitions", ExtPartitions},
	{"ext-fleet", ExtFleet},
	{"ext-backends", ExtBackends},
}

// All regenerates every registered artifact. The generators run
// concurrently on one shared scheduler, so independent simulations
// overlap (bounded by opts.Parallel) and baselines shared between
// artifacts — Table 6 and Figure 4 characterize the same applications —
// simulate once. Output is byte-identical to a serial run: each artifact
// is assembled in its own deterministic order, and the returned slice is
// always in registry order.
func All(opts Options) ([]*Artifact, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	arts := make([]*Artifact, len(Artifacts))
	errs := make([]error, len(Artifacts))
	var wg sync.WaitGroup
	for i, g := range Artifacts {
		wg.Add(1)
		go func(i int, g Generator) {
			defer wg.Done()
			arts[i], errs[i] = g.Fn(opts)
		}(i, g)
	}
	wg.Wait()
	// Preserve the serial contract: on failure, return the artifacts that
	// precede the first failing generator, plus its error.
	for i, err := range errs {
		if err != nil {
			return arts[:i], fmt.Errorf("experiments: %s: %w", Artifacts[i].ID, err)
		}
	}
	return arts, nil
}
