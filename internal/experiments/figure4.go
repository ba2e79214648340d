package experiments

import (
	"fmt"

	"progresscap/internal/model"
	"progresscap/internal/policy"
	"progresscap/internal/stats"
	"progresscap/internal/trace"
	"progresscap/internal/workload"
)

// Fig4Point is one (cap, measured, predicted) triple of the Figure 4
// sweeps.
type Fig4Point struct {
	PkgCapW       float64
	CoreCapW      float64 // model-estimated effective core cap (Eq. 5)
	MeasuredDrop  float64 // Δprogress measured, averaged over repetitions
	PredictedDrop float64 // Δprogress from Eq. 7 with α = 2
	ErrPct        float64 // |measured−predicted| / measured × 100
}

// Fig4App is one sub-figure (4a..4e).
type Fig4App struct {
	Name     string
	Beta     float64
	Baseline float64 // uncapped progress rate r(P_coremax)
	Points   []Fig4Point
}

// Figure4Data runs the full measured-vs-predicted sweep and returns the
// structured results (Figure4 renders them). For each application:
//
//  1. β is characterized with the §IV-A DVFS procedure.
//  2. An uncapped baseline gives r(P_coremax) and the uncapped package
//     power; P_coremax is estimated as β × P_pkg (Eq. 5 at the top).
//  3. Each package cap runs Reps times with fresh seeds; the measured
//     change in progress is the uncapped rate minus the steady capped
//     rate, averaged over repetitions — the paper measures the same
//     quantity from the stable half of its step-function schedule.
//  4. The model predicts the change via Eqs. 5+7 with α = 2.
func Figure4Data(opts Options) ([]Fig4App, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	caps := []float64{160, 140, 120, 100, 80, 65}

	type appCase struct {
		name string
		mk   func() *workload.Workload
		secs float64 // per-run virtual duration
	}
	secs := opts.RunSeconds
	// OpenMC completes roughly one batch per second, so its per-window
	// rate is quantized to whole batches; it needs longer measurement
	// runs than the sub-second-iteration applications.
	openmcSecs := secs
	if openmcSecs < 30 {
		openmcSecs = 30
	}
	mk := characterizableScaled(opts, openmcSecs)
	cases := []appCase{
		{"LAMMPS", mk[3].mk, secs},
		{"AMG", mk[2].mk, secs},
		{"QMCPACK (DMC)", mk[0].mk, secs},
		{"STREAM", mk[4].mk, secs},
		{"OpenMC (active)", mk[1].mk, openmcSecs},
	}

	// Fan the whole sweep out up front: 10 characterization runs (8 shared
	// with Table 6 at default scale) plus caps × Reps capped runs per app.
	for _, c := range cases {
		fast, slow := opts.charSpecs(c.mk, c.secs*4)
		opts.rn().Prefetch(fast)
		opts.rn().Prefetch(slow)
		for _, capW := range caps {
			for rep := 0; rep < opts.Reps; rep++ {
				opts.rn().Prefetch(opts.capSpec(c.mk, policy.Constant{Watts: capW}, opts.Seed+uint64(rep)*101, c.secs))
			}
		}
	}

	var out []Fig4App
	for _, c := range cases {
		ch, err := opts.Characterize(c.mk, c.secs*4)
		if err != nil {
			return nil, fmt.Errorf("figure4: characterizing %s: %w", c.name, err)
		}
		params, err := model.FromBaseline(ch.Beta, ch.BaselineRate, ch.BaselinePkgW)
		if err != nil {
			return nil, fmt.Errorf("figure4: %s baseline: %w", c.name, err)
		}
		app := Fig4App{Name: c.name, Beta: ch.Beta, Baseline: ch.BaselineRate}
		for _, capW := range caps {
			var drops []float64
			for rep := 0; rep < opts.Reps; rep++ {
				res, err := opts.rn().Do(opts.capSpec(c.mk, policy.Constant{Watts: capW}, opts.Seed+uint64(rep)*101, c.secs))
				if err != nil {
					return nil, fmt.Errorf("figure4: %s cap %v rep %d: %w", c.name, capW, rep, err)
				}
				capped := stats.Mean(steadyRates(res, 2))
				drops = append(drops, ch.BaselineRate-capped)
			}
			measured := stats.Mean(drops)
			predicted := params.PredictDelta(capW)
			app.Points = append(app.Points, Fig4Point{
				PkgCapW:       capW,
				CoreCapW:      params.EffectiveCoreCap(capW),
				MeasuredDrop:  measured,
				PredictedDrop: predicted,
				ErrPct:        stats.RelErrPct(measured, predicted),
			})
		}
		out = append(out, app)
	}
	return out, nil
}

// Figure4 renders the sweep as one table per application plus an error
// summary, mirroring Fig 4a-e.
func Figure4(opts Options) (*Artifact, error) {
	data, err := Figure4Data(opts)
	if err != nil {
		return nil, err
	}
	art := &Artifact{
		ID:    "fig4",
		Title: "Measured vs predicted change in progress (α=2, P_corecap=β·P_cap)",
	}
	sub := 'a'
	for _, app := range data {
		tbl := trace.NewTable(
			fmt.Sprintf("Fig 4%c: %s (β=%.2f, baseline %s/s)", sub, app.Name, app.Beta, trace.Formatted(app.Baseline)),
			"P_cap (W)", "P_corecap (W)", "Measured Δ", "Predicted Δ", "Error %")
		var meas, pred []float64
		for _, p := range app.Points {
			tbl.AddRow(
				trace.Formatted(p.PkgCapW),
				trace.Formatted(p.CoreCapW),
				trace.Formatted(p.MeasuredDrop),
				trace.Formatted(p.PredictedDrop),
				fmt.Sprintf("%.1f", p.ErrPct),
			)
			meas = append(meas, p.MeasuredDrop)
			pred = append(pred, p.PredictedDrop)
		}
		art.Tables = append(art.Tables, tbl)
		art.Notes = append(art.Notes,
			fmt.Sprintf("%-16s measured  %s", app.Name, trace.Sparkline(meas)),
			fmt.Sprintf("%-16s predicted %s", "", trace.Sparkline(pred)))

		plot := trace.NewPlot(
			fmt.Sprintf("Fig 4%c: %s — change in progress under effective core caps", sub, app.Name),
			"P_corecap (W)", "Δ progress (metric units/s)")
		var xs []float64
		for _, p := range app.Points {
			xs = append(xs, p.CoreCapW)
		}
		if err := plot.Scatter("measured", xs, meas); err != nil {
			return nil, err
		}
		if err := plot.Line("model (α=2)", xs, pred); err != nil {
			return nil, err
		}
		art.addFigure(fmt.Sprintf("fig4%c_%s", sub, slug(app.Name)), plot)
		sub++
	}

	// Error summary across the sweep, split mid-range vs extreme caps —
	// the paper's headline: good mid-range, poor at the extremes.
	sum := trace.NewTable("Model error summary", "Application", "Mid-range err % (min..max)", "Extreme err % (min..max)")
	for _, app := range data {
		var mid, ext []float64
		for i, p := range app.Points {
			if i == 0 || i == len(app.Points)-1 {
				ext = append(ext, p.ErrPct)
			} else {
				mid = append(mid, p.ErrPct)
			}
		}
		ms, es := stats.Summarize(mid), stats.Summarize(ext)
		sum.AddRow(app.Name,
			fmt.Sprintf("%.1f..%.1f", ms.Min, ms.Max),
			fmt.Sprintf("%.1f..%.1f", es.Min, es.Max))
	}
	art.Tables = append(art.Tables, sum)
	return art, nil
}
