package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/fault"
	"progresscap/internal/policy"
	"progresscap/internal/rapl"
	"progresscap/internal/workload"
)

// resultSig is the exported Result.Signature (see signature.go): every
// observable field flattened into one string, bit-exact for floats. Two
// runs are "the same run" exactly when their signatures match.
func resultSig(res *Result) string { return res.Signature() }

// macroScenario builds one engine per invocation so the two modes never
// share mutable state.
type macroScenario struct {
	name  string
	setup func(cfg Config) (*Engine, error)
	dur   time.Duration
}

// macroScenarios covers every control path the event horizon folds over:
// quiescent-uncapped, an active RAPL capping loop, manual DVFS and DDCM
// (quiescent-manual), transport faults with delayed-report due times, a
// deadman TTL expiry, an externally scheduled mid-run actuation (uncapped
// and capped), and a multi-workload node.
func macroScenarios() []macroScenario {
	mk := func(fn func(e *Engine) error, w func() *workload.Workload) func(Config) (*Engine, error) {
		return func(cfg Config) (*Engine, error) {
			e, err := New(cfg, w())
			if err != nil {
				return nil, err
			}
			if fn != nil {
				if err := fn(e); err != nil {
					return nil, err
				}
			}
			return e, nil
		}
	}
	return []macroScenario{
		{
			name:  "uncapped-complete",
			setup: mk(nil, func() *workload.Workload { return apps.LAMMPS(apps.DefaultRanks, 120) }),
			dur:   time.Minute,
		},
		{
			name: "capped-constant",
			setup: mk(func(e *Engine) error { return e.SetScheme(policy.Constant{Watts: 100}) },
				func() *workload.Workload { return apps.AMG(apps.DefaultRanks, 20) }),
			dur: time.Minute,
		},
		{
			name: "capped-dynamic-timelimit",
			setup: mk(func(e *Engine) error {
				return e.SetScheme(policy.Step{HighW: 140, LowW: 80, HighFor: 2 * time.Second, LowFor: 2 * time.Second})
			}, func() *workload.Workload { return apps.STREAM(apps.DefaultRanks, 100000) }),
			dur: 8 * time.Second,
		},
		{
			name: "manual-dvfs",
			setup: mk(func(e *Engine) error { e.SetManualDVFS(1500); return nil },
				func() *workload.Workload { return apps.LAMMPS(apps.DefaultRanks, 60) }),
			dur: time.Minute,
		},
		{
			name: "manual-ddcm",
			setup: mk(func(e *Engine) error { e.SetManualDDCM(0.5); return nil },
				func() *workload.Workload { return apps.LAMMPS(apps.DefaultRanks, 60) }),
			dur: time.Minute,
		},
		{
			name: "faulted-transport",
			setup: mk(func(e *Engine) error {
				e.SetFaults(fault.NewInjector(fault.Plan{
					Seed: 7,
					PubSub: fault.PubSubPlan{
						DropRate:  0.1,
						DelayRate: 0.3,
						MaxDelay:  700 * time.Millisecond,
						DupRate:   0.05,
					},
					MSR:      fault.MSRPlan{ReadEIORate: 0.02, StaleReadRate: 0.02},
					Counters: fault.CounterPlan{GlitchRate: 0.02},
				}))
				return e.SetScheme(policy.Constant{Watts: 110})
			}, func() *workload.Workload { return apps.AMG(apps.DefaultRanks, 15) }),
			dur: time.Minute,
		},
		{
			name: "deadman-trip",
			setup: mk(func(e *Engine) error {
				// No daemon re-arms the cap, so the TTL expires mid-run and
				// the firmware-default cap snaps in at an exact instant.
				return e.SetDeadman(rapl.Deadman{TTL: 1500 * time.Millisecond, DefaultCapW: 95})
			}, func() *workload.Workload { return apps.LAMMPS(apps.DefaultRanks, 200) }),
			dur: 6 * time.Second,
		},
		{
			name: "scheduled-actuation",
			setup: mk(func(e *Engine) error {
				// An off-grid external event: clamp the frequency ceiling at
				// an instant that is not a tick, control, or window boundary.
				e.Scheduler().At(2500*time.Millisecond+137*time.Microsecond, func(time.Duration) {
					e.SetFreqCeiling(1200)
				})
				return nil
			}, func() *workload.Workload { return apps.LAMMPS(apps.DefaultRanks, 200) }),
			dur: 7 * time.Second,
		},
		{
			name: "capped-scheduled-actuation",
			setup: mk(func(e *Engine) error {
				// Under a steady cap most control periods leave the
				// operating point alone and defer the workload flush; the
				// off-grid ceiling then changes it between two control
				// boundaries.
				e.Scheduler().At(2500*time.Millisecond+137*time.Microsecond, func(time.Duration) {
					e.SetFreqCeiling(1200)
				})
				return e.SetScheme(policy.Constant{Watts: 100})
			}, func() *workload.Workload { return apps.AMG(apps.DefaultRanks, 20) }),
			dur: 7 * time.Second,
		},
		{
			name: "multi-workload",
			setup: func(cfg Config) (*Engine, error) {
				a := apps.LAMMPS(8, 80)
				v := apps.STREAM(8, 400)
				e, err := NewMulti(cfg, a, v)
				if err != nil {
					return nil, err
				}
				return e, e.SetScheme(policy.Constant{Watts: 120})
			},
			dur: 20 * time.Second,
		},
	}
}

// TestMacroMatchesFixedTick is the engine-level differential bar: for
// every scenario, the event-driven macro stepper and the fixed-tick
// oracle must produce bit-identical results — same completion instants,
// same energy integrals, same per-window samples and traces, same fault
// outcomes.
func TestMacroMatchesFixedTick(t *testing.T) {
	for _, sc := range macroScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			run := func(fixedTick bool) string {
				cfg := DefaultConfig()
				cfg.FixedTick = fixedTick
				e, err := sc.setup(cfg)
				if err != nil {
					t.Fatalf("setup(FixedTick=%v): %v", fixedTick, err)
				}
				res, err := e.Run(sc.dur)
				if err != nil {
					t.Fatalf("run(FixedTick=%v): %v", fixedTick, err)
				}
				return resultSig(res)
			}
			macro := run(false)
			fixed := run(true)
			if macro != fixed {
				t.Errorf("macro and fixed-tick results diverge:\n%s", diffHead(macro, fixed))
			}
		})
	}
}

// diffHead trims two signatures to the first differing line plus context,
// so a divergence report is readable.
func diffHead(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\nmacro: %s\nfixed: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestConfigTickDivisibility pins the new validation: a tick that does
// not evenly divide the RAPL control period or the progress window would
// put control boundaries off the tick grid, and the fixed-tick oracle
// could never visit them.
func TestConfigTickDivisibility(t *testing.T) {
	base := DefaultConfig()

	cfg := base
	cfg.Tick = 300 * time.Microsecond // does not divide the 1ms control period
	if _, err := New(cfg, apps.LAMMPS(24, 10)); err == nil {
		t.Fatal("tick not dividing the control period accepted")
	}

	cfg = base
	cfg.Tick = 700 * time.Microsecond
	cfg.RAPL.ControlPeriod = 2100 * time.Microsecond // divisible by tick
	cfg.Window = time.Second                         // not divisible by 700µs
	if _, err := New(cfg, apps.LAMMPS(24, 10)); err == nil {
		t.Fatal("tick not dividing the window accepted")
	}

	cfg = base
	cfg.Tick = 500 * time.Microsecond // divides both 1ms and 1s
	if _, err := New(cfg, apps.LAMMPS(24, 10)); err != nil {
		t.Fatalf("valid divisor rejected: %v", err)
	}
}
