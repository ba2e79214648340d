package progresscap

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"
	"time"

	"progresscap/internal/spec"
)

func miniApp() CustomApp {
	return CustomApp{
		Name:   "miniapp",
		Metric: "sweeps/s",
		Ranks:  24,
		Phases: []CustomPhase{{
			Name:       "sweep",
			Iterations: 120,
			Period:     100 * time.Millisecond,
			Beta:       0.6,
			IPC:        1.4,
			MPO:        5e-3,
		}},
	}
}

func TestRunCustomBasic(t *testing.T) {
	rep, err := RunCustom(miniApp(), RunConfig{Seconds: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("custom app incomplete")
	}
	if rep.App != "miniapp" || rep.Metric != "sweeps/s" {
		t.Fatalf("identity: %s / %s", rep.App, rep.Metric)
	}
	// 120 iterations at 100 ms → ~10/s for ~12 s.
	if rep.MeanRate < 9 || rep.MeanRate > 11 {
		t.Fatalf("rate = %v, want ~10", rep.MeanRate)
	}
	if math.Abs(rep.Elapsed-12) > 1 {
		t.Fatalf("elapsed = %v, want ~12 s", rep.Elapsed)
	}
}

func TestRunCustomUnderCapSlows(t *testing.T) {
	free, err := RunCustom(miniApp(), RunConfig{Seconds: 15})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := RunCustom(miniApp(), RunConfig{Seconds: 15, Scheme: ConstantCap(90)})
	if err != nil {
		t.Fatal(err)
	}
	if capped.MeanRate >= free.MeanRate*0.97 {
		t.Fatalf("cap had no effect: %v vs %v", capped.MeanRate, free.MeanRate)
	}
}

func TestCharacterizeCustomRecoversBeta(t *testing.T) {
	app := miniApp()
	c, err := CharacterizeCustom(app, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Beta-0.6) > 0.04 {
		t.Fatalf("β = %v, want ~0.6", c.Beta)
	}
	if math.Abs(c.MPO-5e-3)/5e-3 > 0.25 {
		t.Fatalf("MPO = %v, want ~5e-3", c.MPO)
	}
	if c.BaselineRate < 9 || c.BaselineRate > 11 {
		t.Fatalf("baseline = %v", c.BaselineRate)
	}
	m, err := FitModel(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.PredictProgress(80) >= c.BaselineRate {
		t.Fatal("capped prediction not below baseline")
	}
}

func TestCustomPhasedBehavior(t *testing.T) {
	app := CustomApp{
		Name: "twophase",
		Phases: []CustomPhase{
			{Name: "slow", Iterations: 80, Period: 125 * time.Millisecond, Beta: 0.9},
			{Name: "fast", Iterations: 160, Period: 62500 * time.Microsecond, Beta: 0.9},
		},
	}
	rep, err := RunCustom(app, RunConfig{Seconds: 25})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Behavior != "phased" {
		t.Fatalf("behavior = %q, want phased", rep.Behavior)
	}
}

func TestCustomImbalanceVisible(t *testing.T) {
	app := miniApp()
	app.Phases[0].RankImbalance = 0.3
	rep, err := RunCustom(app, RunConfig{Seconds: 12})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Imbalance < 0.02 {
		t.Fatalf("imbalance index = %v, expected visible spin", rep.Imbalance)
	}
	balanced, err := RunCustom(miniApp(), RunConfig{Seconds: 12})
	if err != nil {
		t.Fatal(err)
	}
	if balanced.Imbalance >= rep.Imbalance {
		t.Fatalf("balanced index %v not below imbalanced %v", balanced.Imbalance, rep.Imbalance)
	}
}

func TestCustomValidation(t *testing.T) {
	bad := []CustomApp{
		{},
		{Name: "x"},
		{Name: "x", Phases: []CustomPhase{{Iterations: 0, Period: time.Second, Beta: 0.5}}},
		{Name: "x", Phases: []CustomPhase{{Iterations: 1, Period: 0, Beta: 0.5}}},
		{Name: "x", Phases: []CustomPhase{{Iterations: 1, Period: time.Millisecond, Beta: 0.5}}},
		{Name: "x", Phases: []CustomPhase{{Iterations: 1, Period: time.Second, Beta: 0}}},
		{Name: "x", Phases: []CustomPhase{{Iterations: 1, Period: time.Second, Beta: 1.5}}},
		{Name: "x", Phases: []CustomPhase{{Iterations: 1, Period: time.Second, Beta: 0.5, Jitter: 1}}},
		{Name: "x", Phases: []CustomPhase{{Iterations: 1, Period: time.Second, Beta: 0.5, BWShare: 2}}},
		{Name: "x", Ranks: -1, Phases: []CustomPhase{{Iterations: 1, Period: time.Second, Beta: 0.5}}},
	}
	for i, app := range bad {
		if _, err := RunCustom(app, RunConfig{Seconds: 5}); err == nil {
			t.Errorf("bad custom app %d accepted", i)
		}
	}
}

// TestCustomFingerprintPinned pins the run-fingerprint probes of custom
// models, one with shared and per-rank jitter and one with neither: a
// change to the custom generator's draw order or float expressions would
// change every cache key of a custom run.
func TestCustomFingerprintPinned(t *testing.T) {
	jittery := miniApp()
	jittery.Name = "jittery"
	jittery.Phases = append(jittery.Phases, CustomPhase{
		Name: "noisy", Iterations: 40, Period: 50 * time.Millisecond, Beta: 0.8,
		Jitter: 0.2, RankImbalance: 0.05,
	})
	cases := []struct {
		app  CustomApp
		want string
	}{
		{miniApp(), "4805ca4dc8902b30677024247203cd5f3f19586b93eb18111f0cfeaca63aa6d3"},
		{jittery, "d24072d7a14471e8168a704ea07ac144219d1851f3f68c567a3bbc137e8b42f1"},
	}
	for _, c := range cases {
		w, err := c.app.build()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(spec.FingerprintWorkload(w))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: fingerprint hash %s, want %s", c.app.Name, got, c.want)
		}
	}
}
