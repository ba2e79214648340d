package experiments

import (
	"strconv"
	"strings"
	"testing"

	"progresscap/internal/apps"
	"progresscap/internal/workload"
)

// quickOpts keeps unit-test runtime bounded; bench_test.go exercises the
// full-scale harness.
func quickOpts() Options { return Options{RunSeconds: 6, Reps: 1, Seed: 1} }

// skipIfRace skips multi-second simulation sweeps under the race
// detector: the sweeps are single-goroutine simulation whose ~13×
// race-mode slowdown would blow the per-package test timeout without
// adding race coverage (the concurrent paths have their own fast tests).
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceDetector {
		t.Skip("simulation sweep skipped under -race")
	}
}

func TestTable1Shape(t *testing.T) {
	art, err := Table1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if art.Tables[0].NumRows() != 2 {
		t.Fatalf("rows = %d", art.Tables[0].NumRows())
	}
	out := art.Render()
	if !strings.Contains(out, "do_equal_work") || !strings.Contains(out, "do_unequal_work") {
		t.Fatalf("missing routines:\n%s", out)
	}
	// Parse both rows and confirm iterations/s match (Definition 1), the
	// imbalanced run does (24+1)/48 of the work (Definition 2), and only
	// it spins at the barrier, inflating MIPS.
	csv := strings.Split(strings.TrimSpace(art.Tables[0].CSV()), "\n")
	if len(csv) != 3 {
		t.Fatalf("csv rows = %d", len(csv))
	}
	type row struct{ it, units, mips, spin float64 }
	parse := func(line string) row {
		f := strings.Split(line, ",")
		var r row
		for i, dst := range []*float64{&r.it, &r.units, &r.mips, &r.spin} {
			v, err := strconv.ParseFloat(f[2+i], 64)
			if err != nil {
				t.Fatalf("unparseable row %q", line)
			}
			*dst = v
		}
		return r
	}
	eq, un := parse(csv[1]), parse(csv[2])
	if eq.it < 0.95 || eq.it > 1.05 || un.it < 0.95 || un.it > 1.05 {
		t.Fatalf("iterations/s: %v, %v", eq.it, un.it)
	}
	if ratio := un.units / eq.units; ratio < 0.50 || ratio > 0.54 {
		t.Fatalf("Def 2 unequal/equal = %v, want (24+1)/48 ≈ 0.521", ratio)
	}
	if un.mips < 10*eq.mips {
		t.Fatalf("MIPS not inflated by imbalance: %v vs %v", eq.mips, un.mips)
	}
	if eq.spin != 0 || un.spin <= 0.4 {
		t.Fatalf("spin share: equal %v (want 0), unequal %v (want > 0.4)", eq.spin, un.spin)
	}
}

func TestTables2to4Complete(t *testing.T) {
	art := Tables2to4()
	if len(art.Tables) != 3 {
		t.Fatalf("tables = %d", len(art.Tables))
	}
	if art.Tables[0].NumRows() != 9 || art.Tables[1].NumRows() != 8 || art.Tables[2].NumRows() != 9 {
		t.Fatalf("row counts: %d, %d, %d",
			art.Tables[0].NumRows(), art.Tables[1].NumRows(), art.Tables[2].NumRows())
	}
}

func TestTable5Complete(t *testing.T) {
	art := Table5()
	if art.Tables[0].NumRows() != 9 {
		t.Fatalf("rows = %d", art.Tables[0].NumRows())
	}
	out := art.Render()
	for _, want := range []string{"Blocks per second", "N/A", "1/2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTable6MatchesPaper(t *testing.T) {
	skipIfRace(t)
	art, err := Table6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if art.Tables[0].NumRows() != 5 {
		t.Fatalf("rows = %d", art.Tables[0].NumRows())
	}
	// Every measured β within 0.05 of the paper's.
	csv := strings.Split(strings.TrimSpace(art.Tables[0].CSV()), "\n")[1:]
	for _, line := range csv {
		f := strings.Split(line, ",")
		got, _ := strconv.ParseFloat(f[1], 64)
		want, _ := strconv.ParseFloat(f[3], 64)
		if got < want-0.05 || got > want+0.05 {
			t.Errorf("%s: β %v vs paper %v", f[0], got, want)
		}
	}
}

func TestCharacterizeLAMMPS(t *testing.T) {
	mk := func() *workload.Workload { return apps.LAMMPS(apps.DefaultRanks, 80) }
	c, err := Options{Seed: 1}.Characterize(mk, 30)
	if err != nil {
		t.Fatal(err)
	}
	if c.Beta < 0.95 || c.Beta > 1.02 {
		t.Fatalf("β = %v", c.Beta)
	}
	if c.MPO <= 0 || c.BaselineRate <= 0 || c.BaselinePkgW < 100 {
		t.Fatalf("mpo=%v rate=%v pkgW=%v", c.MPO, c.BaselineRate, c.BaselinePkgW)
	}
}

func TestFigure1Behaviors(t *testing.T) {
	art, err := Figure1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	csv := strings.Split(strings.TrimSpace(art.Tables[0].CSV()), "\n")[1:]
	for _, line := range csv {
		f := strings.Split(line, ",")
		name, got, want := f[0], f[4], f[5]
		if got != want {
			t.Errorf("%s classified %q, want %q", name, got, want)
		}
	}
}

func TestFigure2ComputeBoundFaster(t *testing.T) {
	art, err := Figure2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	csv := strings.Split(strings.TrimSpace(art.Tables[0].CSV()), "\n")[1:]
	for _, line := range csv {
		f := strings.Split(line, ",")
		lammps, _ := strconv.ParseFloat(f[1], 64)
		stream, _ := strconv.ParseFloat(f[2], 64)
		if lammps <= stream {
			t.Errorf("cap %s: LAMMPS %v MHz not above STREAM %v MHz", f[0], lammps, stream)
		}
	}
}

func TestFigure3ProgressFollowsCap(t *testing.T) {
	skipIfRace(t)
	opts := quickOpts()
	opts.RunSeconds = 8
	art, err := Figure3(opts)
	if err != nil {
		t.Fatal(err)
	}
	csv := strings.Split(strings.TrimSpace(art.Tables[0].CSV()), "\n")[1:]
	if len(csv) != 9 {
		t.Fatalf("rows = %d", len(csv))
	}
	for _, line := range csv {
		f := strings.Split(line, ",")
		corr, _ := strconv.ParseFloat(f[2], 64)
		// Sub-second-iteration apps should track the cap tightly; the
		// aliasing-prone OpenMC more loosely.
		min := 0.6
		if strings.Contains(f[1], "OpenMC") {
			min = 0.1
		}
		if corr < min {
			t.Errorf("%s/%s: corr %v below %v", f[0], f[1], corr, min)
		}
	}
}

func TestFigure4ModelShapes(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("figure 4 sweep is expensive")
	}
	data, err := Figure4Data(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 5 {
		t.Fatalf("apps = %d", len(data))
	}
	byName := map[string]Fig4App{}
	for _, a := range data {
		byName[a.Name] = a
		// Measured and predicted drops grow as the cap tightens.
		for i := 1; i < len(a.Points); i++ {
			if a.Points[i].PredictedDrop < a.Points[i-1].PredictedDrop-1e-9 {
				t.Errorf("%s: predicted drop not monotone", a.Name)
			}
		}
	}
	// LAMMPS (compute-bound): model accurate at mild caps.
	if p := byName["LAMMPS"].Points[0]; p.ErrPct > 25 {
		t.Errorf("LAMMPS mild-cap error %v%%", p.ErrPct)
	}
	// STREAM: model underestimates the impact badly (paper Fig 4d).
	last := byName["STREAM"].Points[len(byName["STREAM"].Points)-1]
	if last.MeasuredDrop <= last.PredictedDrop {
		t.Errorf("STREAM stringent cap: measured %v not above predicted %v",
			last.MeasuredDrop, last.PredictedDrop)
	}
	if last.ErrPct < 30 {
		t.Errorf("STREAM stringent-cap error only %v%%", last.ErrPct)
	}
}

func TestFigure5DVFSBeatsRAPLInRange(t *testing.T) {
	art, err := Figure5(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if art.Tables[0].NumRows() != 12 {
		t.Fatalf("rows = %d", art.Tables[0].NumRows())
	}
	// The headline note must report DVFS winning at least half the
	// comparable levels.
	var won, total int
	if _, err := fmt_Sscanf(art.Notes[0], &won, &total); err != nil {
		t.Fatalf("unparseable note %q: %v", art.Notes[0], err)
	}
	if total < 2 || won*2 < total {
		t.Errorf("DVFS won %d of %d comparable levels", won, total)
	}
}

// fmt_Sscanf extracts the two integers from the Figure 5 headline note.
func fmt_Sscanf(note string, won, total *int) (int, error) {
	fields := strings.Fields(note)
	var nums []int
	for _, f := range fields {
		if v, err := strconv.Atoi(f); err == nil {
			nums = append(nums, v)
		}
	}
	if len(nums) < 2 {
		return 0, strconv.ErrSyntax
	}
	*won, *total = nums[0], nums[1]
	return 2, nil
}

func TestArtifactRender(t *testing.T) {
	art := Table5()
	out := art.Render()
	if !strings.HasPrefix(out, "== table5:") {
		t.Fatalf("render prefix wrong:\n%s", out)
	}
}

func TestFigureArtifactsCarrySVGPlots(t *testing.T) {
	skipIfRace(t)
	opts := quickOpts()
	art, err := Figure2(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Figures) != 1 || art.Figures[0].Name != "fig2_frequency" {
		t.Fatalf("fig2 figures = %+v", art.Figures)
	}
	svg := art.Figures[0].Plot.SVG()
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "LAMMPS") {
		t.Fatal("fig2 SVG malformed")
	}

	art1, err := Figure1(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(art1.Figures) != 3 {
		t.Fatalf("fig1 figures = %d, want 3", len(art1.Figures))
	}

	art5, err := Figure5(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(art5.Figures) != 1 {
		t.Fatalf("fig5 figures = %d", len(art5.Figures))
	}
}

func TestArtifactsDeterministic(t *testing.T) {
	// End-to-end determinism: the same options must render bit-identical
	// artifacts (the EXPERIMENTS.md reproducibility claim).
	a, err := Table1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatal("Table1 not deterministic")
	}
}

func TestSlug(t *testing.T) {
	cases := map[string]string{
		"QMCPACK (DMC)":   "qmcpack-dmc",
		"step-function":   "step-function",
		"OpenMC (active)": "openmc-active",
		"LAMMPS":          "lammps",
	}
	for in, want := range cases {
		if got := slug(in); got != want {
			t.Errorf("slug(%q) = %q, want %q", in, got, want)
		}
	}
}
