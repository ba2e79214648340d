package apps

import (
	"math"
	"testing"

	"progresscap/internal/simtime"
	"progresscap/internal/stats"
)

func TestNek5000StepsNonuniform(t *testing.T) {
	// The defining Category 3 property: step costs vary widely, so
	// timesteps/second is not a reliable online metric.
	w := Nek5000(16, 60)
	rng := simtime.NewRNG(1)
	var durs []float64
	p := w.Phases[0]
	for it := 0; it < 60; it++ {
		longest := 0.0
		shared := rng.Jitter(p.SharedJitter)
		for r := 0; r < w.Ranks; r++ {
			d := p.Gen(r, it, shared, rng).DurationAt(FMaxHz, 1)
			if d > longest {
				longest = d
			}
		}
		durs = append(durs, longest)
	}
	cv := stats.CoefVar(durs)
	if cv < 0.15 {
		t.Fatalf("Nek5000 step CV = %v, want wildly nonuniform (>0.15)", cv)
	}
	// LAMMPS, by contrast, is uniform.
	l := LAMMPS(16, 60)
	durs = durs[:0]
	rng = simtime.NewRNG(1)
	for it := 0; it < 60; it++ {
		p := l.Phases[0]
		durs = append(durs, p.Gen(0, it, rng.Jitter(p.SharedJitter), rng).DurationAt(FMaxHz, 1))
	}
	if cv := stats.CoefVar(durs); cv > 0.02 {
		t.Fatalf("LAMMPS step CV = %v, want uniform", cv)
	}
}

func TestEnergyPlusTimescaleSlower(t *testing.T) {
	nek, eplus := URBANComponents(20)
	nekPer := nek.IdealDuration(FMaxHz, 1, 1).Seconds() / float64(nek.TotalIterations())
	epPer := eplus.IdealDuration(FMaxHz, 1, 1).Seconds() / float64(eplus.TotalIterations())
	if epPer < nekPer*3 {
		t.Fatalf("EnergyPlus step %v not at a slower timescale than Nek5000 %v", epPer, nekPer)
	}
}

func TestURBANComponentsShareTheNode(t *testing.T) {
	nek, eplus := URBANComponents(10)
	if nek.Ranks+eplus.Ranks != 24 {
		t.Fatalf("component ranks = %d + %d, want a full 24-core node", nek.Ranks, eplus.Ranks)
	}
	if err := nek.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := eplus.Validate(); err != nil {
		t.Fatal(err)
	}
	// Both sized to roughly the requested duration.
	for _, w := range []struct {
		name string
		d    float64
	}{
		{"nek", nek.IdealDuration(FMaxHz, 1, 1).Seconds()},
		{"eplus", eplus.IdealDuration(FMaxHz, 1, 1).Seconds()},
	} {
		if math.Abs(w.d-10) > 4 {
			t.Fatalf("%s duration = %v, want ~10 s", w.name, w.d)
		}
	}
}
