package rapl_test

import (
	"sync"
	"testing"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/engine"
	"progresscap/internal/policy"
	"progresscap/internal/rapl"
)

// TestLadderSharedAcrossEngines: capped engines built concurrently on two
// configs that differ only in AlphaHW each get the ladder of their own
// model, one ladder per config, and each run's signature equals a serial
// run's. Under -race this checks that publishing and reading the shared
// ladders is race-free.
func TestLadderSharedAcrossEngines(t *testing.T) {
	alphas := []float64{2.3, 1.9}
	run := func(alpha float64) (*engine.Engine, string) {
		cfg := engine.DefaultConfig()
		cfg.Power.AlphaHW = alpha
		e, err := engine.New(cfg, apps.LAMMPS(apps.DefaultRanks, 400))
		if err != nil {
			t.Error(err)
			return nil, ""
		}
		if err := e.SetScheme(policy.Constant{Watts: 110}); err != nil {
			t.Error(err)
			return nil, ""
		}
		res, err := e.Run(time.Second)
		if err != nil {
			t.Error(err)
			return nil, ""
		}
		return e, res.Signature()
	}

	rapl.ForgetLadders()
	const workers = 8
	engines := make([]*engine.Engine, workers)
	sigs := make([]string, workers)
	var wg sync.WaitGroup
	for i := range engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			engines[i], sigs[i] = run(alphas[i%2])
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	rapl.ForgetLadders()
	for i, e := range engines {
		alpha := alphas[i%2]
		cfg := engine.DefaultConfig()
		cfg.Power.AlphaHW = alpha
		x := rapl.LadderFactors(e.Controller())
		for j, f := range cfg.CPU.Ladder() {
			if want := cfg.Power.FreqFactor(f); x[j] != want {
				t.Fatalf("engine %d (α %v): rung %v MHz has factor %v, want %v", i, alpha, f, x[j], want)
			}
		}
		if same := &rapl.LadderFactors(engines[i%2].Controller())[0] == &x[0]; !same {
			t.Errorf("engine %d (α %v) does not share its config's ladder", i, alpha)
		}
		if _, sig := run(alpha); sigs[i] != sig {
			t.Errorf("engine %d (α %v): concurrent run's signature differs from a serial run's", i, alpha)
		}
	}
	if &rapl.LadderFactors(engines[0].Controller())[0] == &rapl.LadderFactors(engines[1].Controller())[0] {
		t.Error("configs with different AlphaHW share one ladder")
	}
	if sigs[0] == sigs[1] {
		t.Error("the two AlphaHW configs run identically, so a swapped ladder would not show")
	}
}
