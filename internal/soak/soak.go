// Package soak executes generated or hand-written scenario specs
// (internal/spec) under a battery of invariant oracles, and shrinks any
// failing scenario to a locally minimal reproduction.
//
// The oracles encode the properties the rest of the repo proves piecemeal
// in targeted tests, checked here on every randomized scenario:
//
//   - budget: Σ(enforced register caps) ≤ the spec budget at every epoch
//     (cluster scenarios; read from the simulated hardware, not the ledger).
//   - revert: a node un-renewed for a full lease TTL is back at the safe
//     cap within one epoch of slack (the deadman guarantee).
//   - journal: every lease a node accepted appears in a replay of the
//     shared manager WAL — grants are journaled before they are sent.
//   - invariants: the per-engine invariant checker (cap bounds, power
//     plausibility, energy monotonicity) reports nothing.
//   - macro: event-horizon macro-stepping and the fixed-tick oracle
//     produce bit-identical results (single-node scenarios).
//   - progress: observed progress rates are never negative.
//
// A Harness carries an optional BugW — a deliberate budget-accounting
// bug (the manager believes it has BugW more watts than the spec says)
// used by tests and the -bug flag to prove the soak finds and shrinks
// real violations end to end.
package soak

import (
	"fmt"
	"os"
	"strconv"

	"progresscap/internal/experiments"
	"progresscap/internal/spec"
	"progresscap/internal/workload"
)

// budgetSlackW absorbs float summation noise in the budget oracle; any
// real violation is whole watts, not nanowatts.
const budgetSlackW = 1e-9

// BugEnv is the environment variable enabling the deliberate
// budget-accounting bug (a float, watts). It exists so the same bug
// reaches both cmd/soak and a cmd/experiments -spec replay without
// either growing a public flag that ships a bug.
const BugEnv = "SOAK_BUG"

// BugWFromEnv reads the deliberate-bug wattage from the environment
// (0 when unset or unparsable).
func BugWFromEnv() float64 {
	v := os.Getenv(BugEnv)
	if v == "" {
		return 0
	}
	w, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0
	}
	return w
}

// Violation is one oracle failure.
type Violation struct {
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
}

func (v Violation) String() string { return v.Oracle + ": " + v.Detail }

// Report is the outcome of soaking one scenario.
type Report struct {
	Hash       string        `json:"hash"`
	Scenario   spec.Scenario `json:"scenario"`
	Violations []Violation   `json:"violations,omitempty"`
}

// Failed reports whether any oracle fired.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Harness executes scenarios. The zero value is usable; Runner is
// created on demand when single-node scenarios need one.
type Harness struct {
	// Runner executes single-node scenarios, sharing its memo table and
	// (if enabled) disk cache with everything else the process runs.
	Runner *experiments.Runner
	// BugW > 0 arms the deliberate budget bug: cluster managers divide
	// BudgetW+BugW while the oracles hold the spec to BudgetW.
	BugW float64
	// NodeWorkers bounds intra-epoch node-shard parallelism on cluster
	// scenarios (0 = GOMAXPROCS, 1 = serial). Oracle outcomes are
	// byte-identical at any setting — worker count never enters a
	// scenario hash.
	NodeWorkers int
}

// New returns a harness over the given runner with the deliberate bug
// armed from the environment (see BugEnv).
func New(r *experiments.Runner) *Harness {
	return &Harness{Runner: r, BugW: BugWFromEnv()}
}

func (h *Harness) runner() *experiments.Runner {
	if h.Runner == nil {
		h.Runner = experiments.NewRunner(0)
	}
	return h.Runner
}

// RunScenario validates and executes one scenario under the full oracle
// battery. Oracle failures land in the report; only infrastructure
// errors (an unbuildable scenario, an engine construction failure)
// return a non-nil error.
func (h *Harness) RunScenario(sc spec.Scenario) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	hash, err := sc.Hash()
	if err != nil {
		return nil, err
	}
	rep := &Report{Hash: hash, Scenario: sc}
	if sc.Cluster() {
		err = h.runCluster(sc, rep)
	} else {
		err = h.runSingle(sc, rep)
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// runSingle executes a single-node scenario through the experiment
// Runner (so identical scenarios — across soak runs, suites, and CI —
// share one simulation) and checks the single-node oracles.
func (h *Harness) runSingle(sc spec.Scenario, rep *Report) error {
	scheme, err := sc.Operating.Scheme.Build()
	if err != nil {
		return err
	}
	w := sc.Workloads[0]
	rs := experiments.RunSpec{
		Make:       mustBuild(w),
		Scheme:     scheme,
		DVFSMHz:    sc.Operating.DVFSMHz,
		Seed:       sc.Seed,
		MaxSeconds: sc.HorizonSec,
		Invariants: true,
		Faults:     sc.Faults,
		Backend:    sc.Operating.Backend,
	}
	res, err := h.runner().Do(rs)
	if err != nil {
		// The Runner folds engine invariant violations into the run error;
		// they are findings, not infrastructure failures.
		rep.Violations = append(rep.Violations, Violation{Oracle: "invariants", Detail: err.Error()})
		return nil
	}

	// progress: observed rates are never negative, in the primary sample
	// stream and in every per-job stream.
	for _, s := range res.Samples {
		if s.Rate < 0 {
			rep.Violations = append(rep.Violations, Violation{
				Oracle: "progress",
				Detail: fmt.Sprintf("negative rate %g at %v", s.Rate, s.At),
			})
			break
		}
	}
	for _, j := range res.Jobs {
		for _, s := range j.Samples {
			if s.Rate < 0 {
				rep.Violations = append(rep.Violations, Violation{
					Oracle: "progress",
					Detail: fmt.Sprintf("job %s: negative rate %g at %v", j.Workload, s.Rate, s.At),
				})
				break
			}
		}
	}

	// macro: the event-horizon run must be bit-identical to the fixed-tick
	// oracle run of the same scenario.
	fixed := rs
	fixed.FixedTick = true
	fres, err := h.runner().Do(fixed)
	if err != nil {
		rep.Violations = append(rep.Violations, Violation{Oracle: "invariants", Detail: "fixed-tick: " + err.Error()})
		return nil
	}
	if res.Signature() != fres.Signature() {
		rep.Violations = append(rep.Violations, Violation{
			Oracle: "macro",
			Detail: "macro-step result diverges from the fixed-tick oracle",
		})
	}
	return nil
}

// mustBuild adapts WorkloadSpec.Build to the Runner's Make contract;
// the scenario was validated, so Build cannot fail here.
func mustBuild(w spec.WorkloadSpec) func() *workload.Workload {
	return func() *workload.Workload {
		wl, err := w.Build()
		if err != nil {
			panic(fmt.Sprintf("soak: validated workload failed to build: %v", err))
		}
		return wl
	}
}
