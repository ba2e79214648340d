package experiments

import (
	"fmt"

	"progresscap/internal/apps"
	"progresscap/internal/model"
	"progresscap/internal/stats"
	"progresscap/internal/trace"
	"progresscap/internal/workload"
)

// Table1 reproduces Table I: the MIPS hardware metric is uncorrelated
// with online performance. The Listing 1 sample runs with 24 ranks and
// five one-second iterations, balanced and imbalanced.
func Table1(opts Options) (*Artifact, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	tbl := trace.NewTable("",
		"No. of MPI Processes", "do_work Routine",
		"Def 1 (iterations/second)", "Def 2 (work units/second)", "MIPS", "Spin share")

	variants := []bool{true, false}
	mkSample := func(equal bool) func() *workload.Workload {
		return func() *workload.Workload { return apps.ImbalanceSample(24, 5, equal, 1.0) }
	}
	for _, equal := range variants {
		opts.rn().Prefetch(opts.capSpec(mkSample(equal), nil, opts.Seed, 30))
	}
	for _, equal := range variants {
		res, err := opts.rn().Do(opts.capSpec(mkSample(equal), nil, opts.Seed, 30))
		if err != nil {
			return nil, err
		}
		if !res.Completed {
			return nil, fmt.Errorf("table1: sample did not complete")
		}
		routine := "do_unequal_work"
		if equal {
			routine = "do_equal_work"
		}
		sec := res.Elapsed.Seconds()
		tbl.AddRow(
			"24",
			routine,
			fmt.Sprintf("%.3f", 5/sec),
			fmt.Sprintf("%.0f", res.WorkUnits/sec),
			fmt.Sprintf("%.1f", res.Counters.MIPS()),
			fmt.Sprintf("%.2f", res.Jobs[0].Imbalance()),
		)
	}
	return &Artifact{
		ID:     "table1",
		Title:  "Correlation between MIPS and online performance",
		Tables: []*trace.Table{tbl},
		Notes: []string{
			"Both variants complete ~1 iteration/second (Definition 1) because the slowest",
			"rank is always on the critical path; the imbalanced variant halves the useful",
			"work (Definition 2) while barrier busy-waiting inflates MIPS by orders of",
			"magnitude — MIPS is not a progress metric.",
		},
	}, nil
}

// Tables2to4 renders the application descriptions (Table II), the
// interview questions (Table III), and the summary of responses
// (Table IV) from the registry.
func Tables2to4() *Artifact {
	desc := trace.NewTable("Table II: Description of applications", "Application", "Description")
	for _, info := range apps.Registry() {
		desc.AddRow(info.Name, info.Description)
	}

	qs := trace.NewTable("Table III: Questions posed to application specialists", "Question Number", "Question")
	for i, q := range apps.Questions {
		qs.AddRow(fmt.Sprintf("%d", i+1), q)
	}

	answers := trace.NewTable("Table IV: Summary of responses",
		"Application", "1", "2", "3", "4", "5", "6", "7", "8")
	for _, info := range apps.Registry() {
		row := []string{info.Name}
		row = append(row, info.Answers[:]...)
		row = append(row, info.Resource)
		answers.AddRow(row...)
	}

	return &Artifact{
		ID:     "tables2to4",
		Title:  "Application set, interview questions, and responses",
		Tables: []*trace.Table{desc, qs, answers},
	}
}

// Table5 renders the categorization and online-performance metric per
// application (Table V).
func Table5() *Artifact {
	tbl := trace.NewTable("", "Application", "Category", "Online performance Metric")
	for _, info := range apps.Registry() {
		tbl.AddRow(info.Name, info.CategoryLabel(), info.Metric)
	}
	return &Artifact{
		ID:     "table5",
		Title:  "Categorizing applications and defining online performance",
		Tables: []*trace.Table{tbl},
	}
}

// characterizable returns the five Table VI rows: name, workload
// factory, and the paper's published β / MPO values.
func characterizable(opts Options) []charCase {
	return characterizableScaled(opts, opts.RunSeconds)
}

type charCase struct {
	name      string
	mk        func() *workload.Workload
	paperBeta float64
	paperMPO  float64
}

// characterizableScaled sizes OpenMC separately: its ~1 s batches need
// longer measurement runs than the sub-second-iteration applications.
func characterizableScaled(opts Options, openmcSecs float64) []charCase {
	secs := opts.RunSeconds
	return []charCase{
		{"QMCPACK (DMC)", func() *workload.Workload {
			return apps.QMCPACK(apps.DefaultRanks, 1, 1, int(secs*16)).SubsetPhase("dmc")
		}, 0.84, 3.91e-3},
		{"OpenMC (Active)", func() *workload.Workload {
			return apps.OpenMC(apps.DefaultRanks, 1, int(openmcSecs), 100000).SubsetPhase("active")
		}, 0.93, 0.20e-3},
		{"AMG", func() *workload.Workload { return apps.AMG(apps.DefaultRanks, int(secs*2.75)) }, 0.52, 30.1e-3},
		{"LAMMPS", func() *workload.Workload { return apps.LAMMPS(apps.DefaultRanks, int(secs*20)) }, 1.00, 0.32e-3},
		{"STREAM", func() *workload.Workload { return apps.STREAM(apps.DefaultRanks, int(secs*16)) }, 0.37, 50.9e-3},
	}
}

// charSpecs returns the two runs of the §IV-A characterization procedure:
// the application at 3300 MHz and at 1600 MHz from o.Seed (the slow run
// gets 2.5× the budget because it must still complete). Characterization
// runs never arm the invariant checker, regardless of
// Options.CheckInvariants.
func (o Options) charSpecs(mk func() *workload.Workload, maxSeconds float64) (fast, slow RunSpec) {
	co := o
	co.CheckInvariants = false
	return co.dvfsSpec(mk, 3300, o.Seed, maxSeconds), co.dvfsSpec(mk, 1600, o.Seed, maxSeconds*2.5)
}

// Characterization is the §IV-A measurement of one application: β from
// the execution times at 3300 and 1600 MHz (Eq. 1 inverted), and the MPO
// and the uncapped progress rate and package power of the 3300 MHz run —
// the model's r(P_coremax) inputs.
type Characterization struct {
	Beta         float64
	MPO          float64
	BaselineRate float64
	BaselinePkgW float64
}

// Characterize runs (or collects the memoized results of) the two
// characterization runs from o.Seed on the Options' Runner, overlapping
// them when it runs more than one simulation at once. maxSeconds bounds
// the fast run; a run that does not complete is an error. The baseline
// rate and power average the fast run's windows, dropping the first and
// last when there are more than two.
func (o Options) Characterize(mk func() *workload.Workload, maxSeconds float64) (Characterization, error) {
	if err := o.fillDefaults(); err != nil {
		return Characterization{}, err
	}
	fastSpec, slowSpec := o.charSpecs(mk, maxSeconds)
	o.rn().Prefetch(slowSpec)
	fast, err := o.rn().Do(fastSpec)
	if err != nil {
		return Characterization{}, err
	}
	slow, err := o.rn().Do(slowSpec)
	if err != nil {
		return Characterization{}, err
	}
	if !fast.Completed || !slow.Completed {
		return Characterization{}, fmt.Errorf("characterization runs did not complete (%v, %v)", fast.Elapsed, slow.Elapsed)
	}
	power := fast.PowerTrace.Values()
	if len(power) > 2 {
		power = power[1 : len(power)-1]
	}
	return Characterization{
		Beta:         model.BetaFromTimes(fast.Elapsed.Seconds(), slow.Elapsed.Seconds(), 3300, 1600),
		MPO:          fast.Counters.MPO(),
		BaselineRate: stats.Mean(steadyRates(fast, 1)),
		BaselinePkgW: stats.Mean(power),
	}, nil
}

// Table6 reproduces Table VI: β and MPO for the five characterizable
// applications, measured with the paper's procedure.
func Table6(opts Options) (*Artifact, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	cases := characterizable(opts)
	// Fan the ten characterization runs out before collecting any: the
	// slow OpenMC pair no longer serializes behind the other four apps.
	for _, c := range cases {
		fast, slow := opts.charSpecs(c.mk, opts.RunSeconds*4)
		opts.rn().Prefetch(fast)
		opts.rn().Prefetch(slow)
	}
	tbl := trace.NewTable("", "Application", "β Metric", "MPO Metric (×10⁻³)", "Paper β", "Paper MPO (×10⁻³)")
	for _, c := range cases {
		ch, err := opts.Characterize(c.mk, opts.RunSeconds*4)
		if err != nil {
			return nil, fmt.Errorf("table6: %s: %w", c.name, err)
		}
		tbl.AddRow(
			c.name,
			fmt.Sprintf("%.2f", ch.Beta),
			fmt.Sprintf("%.2f", ch.MPO*1e3),
			fmt.Sprintf("%.2f", c.paperBeta),
			fmt.Sprintf("%.2f", c.paperMPO*1e3),
		)
	}
	return &Artifact{
		ID:     "table6",
		Title:  "β and MPO metrics for selected applications",
		Tables: []*trace.Table{tbl},
		Notes: []string{
			"β measured from execution times at 3300 MHz and 1600 MHz (§IV-A);",
			"MPO = PAPI_L3_TCM / PAPI_TOT_INS over the 3300 MHz run.",
		},
	}, nil
}
