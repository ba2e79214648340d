package progresscap

import (
	"bytes"
	"encoding/json"
	"testing"
)

// compactJSON returns the characterization's JSON without indentation.
func compactJSON(t *testing.T, c Characterization) string {
	t.Helper()
	b, err := c.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestCharacterizationGolden pins the §IV-A characterization bit for bit:
// every characterizable built-in application, the custom miniApp, and two
// short runs whose fast pass yields only two power windows (STREAM at 2 s
// and a 15-iteration miniApp), where the trim rule decides the baseline.
func TestCharacterizationGolden(t *testing.T) {
	short := miniApp()
	short.Phases[0].Iterations = 15
	builtin := func(app string, secs float64) func() (Characterization, error) {
		return func() (Characterization, error) { return Characterize(app, secs, 1) }
	}
	custom := func(app CustomApp) func() (Characterization, error) {
		return func() (Characterization, error) { return CharacterizeCustom(app, 1) }
	}
	cases := []struct {
		name string
		run  func() (Characterization, error)
		want string
	}{
		{"LAMMPS", builtin("LAMMPS", 8),
			`{"version":1,"app":"LAMMPS","beta":0.99799998951408,"mpo":0.00031999843335695356,"baseline_rate":800000,"baseline_pkg_w":177.07932800000003}`},
		{"AMG", builtin("AMG", 8),
			`{"version":1,"app":"AMG","beta":0.5199999991266322,"mpo":0.029240283505066852,"baseline_rate":2.8333333333333335,"baseline_pkg_w":174.80367487178486}`},
		{"QMCPACK", builtin("QMCPACK", 8),
			`{"version":1,"app":"QMCPACK","beta":0.8599897237656947,"mpo":0.003909998532221936,"baseline_rate":13.333333333333334,"baseline_pkg_w":171.65634778541593}`},
		{"OpenMC", builtin("OpenMC", 8),
			`{"version":1,"app":"OpenMC","beta":0.9299999994181072,"mpo":0.00019999978810665393,"baseline_rate":114285.71428571429,"baseline_pkg_w":173.62159999999997}`},
		{"STREAM", builtin("STREAM", 8),
			`{"version":1,"app":"STREAM","beta":0.3699999970783174,"mpo":0.050899989620313786,"baseline_rate":16,"baseline_pkg_w":185.73680000000004}`},
		{"CANDLE", builtin("CANDLE", 8),
			`{"version":1,"app":"CANDLE","beta":0.8499999994942998,"mpo":0.0019999997975765353,"baseline_rate":0.8333333333333334,"baseline_pkg_w":171.26}`},
		{"STREAM 2 s", builtin("STREAM", 2),
			`{"version":1,"app":"STREAM","beta":0.3699999978733399,"mpo":0.05089999077799268,"baseline_rate":15.5,"baseline_pkg_w":185.73680000000002}`},
		{"miniApp", custom(miniApp()),
			`{"version":1,"app":"miniapp","beta":0.6000000009411766,"mpo":0.005,"baseline_rate":10,"baseline_pkg_w":171.34399999999968}`},
		{"miniApp 15 iterations", custom(short),
			`{"version":1,"app":"miniapp","beta":0.600000000627451,"mpo":0.005,"baseline_rate":10,"baseline_pkg_w":171.34399999999997}`},
	}
	for _, c := range cases {
		got, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if s := compactJSON(t, got); s != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, s, c.want)
		}
	}
}

// TestCharacterizeParallelAgrees checks that overlapping the two
// measurement runs changes nothing: CharacterizeParallel at one and two
// workers and Characterize return bit-identical results. Run it under
// -race to exercise the overlapped runs.
func TestCharacterizeParallelAgrees(t *testing.T) {
	for _, app := range []string{"STREAM", "AMG"} {
		want, err := Characterize(app, 6, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, parallel := range []int{1, 2} {
			got, err := CharacterizeParallel(app, 6, 3, parallel)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s: CharacterizeParallel(parallel=%d) = %+v, Characterize = %+v", app, parallel, got, want)
			}
		}
	}
}
