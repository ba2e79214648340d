package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/engine"
	"progresscap/internal/journal"
	"progresscap/internal/nrm"
	"progresscap/internal/rapl"
	"progresscap/internal/supervise"
	"progresscap/internal/trace"
)

// extCrashBudgetW is the node budget every part of the harness enforces.
const extCrashBudgetW = 120

// CrashReport carries the chaos harness's measured outcomes so the
// acceptance test can assert on numbers instead of re-parsing the
// rendered artifact.
type CrashReport struct {
	// Part A: kill/restart mid-run versus an uninterrupted baseline.
	BaselineWork   float64
	CrashWork      float64
	DeviationPct   float64 // |crash - baseline| / baseline, percent
	Restarts       int
	Panics         int
	RecoveryEpochs int     // post-restart epochs until the pre-crash cap is re-actuated
	PreCrashCapW   float64 // cap latched in the register at kill time
	OvershootW     float64 // worst steady-window power above the budget, crash run

	// Part B: permanent daemon death under a deadman TTL.
	DeadmanCapBeforeW float64
	DeadmanCapAfterW  float64
	DeadmanTrips      uint64

	// Part C: panic-looping daemon, circuit break to a static safe cap.
	Broken         bool
	BreakRestarts  int
	BreakPanics    int
	SafeCapW       float64
	PostBreakPeakW float64
}

// peakOver returns the worst window-average power above a level after a
// warm-up boundary (0 when the run never exceeded it).
func peakOver(res *engine.Result, level float64, from time.Duration) float64 {
	worst := 0.0
	for i := 0; i < res.PowerTrace.Len(); i++ {
		p := res.PowerTrace.At(i)
		if p.T > from && p.V-level > worst {
			worst = p.V - level
		}
	}
	return worst
}

// RunCrashHarness executes the three chaos scenarios and measures the
// recovery outcomes. killAt places the Part-A daemon kill; the soak test
// sweeps it. Engine invariants are armed on every plant regardless of
// opts.CheckInvariants — a chaos harness that does not watch the safety
// envelope is testing nothing.
func RunCrashHarness(opts Options, killAt time.Duration) (*CrashReport, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	rep := &CrashReport{}
	const dur = 30 * time.Second

	mkEngine := func(seedOff uint64) (*engine.Engine, error) {
		cfg := opts.engineConfig()
		cfg.Seed = opts.Seed + seedOff
		// Sized to outlast the run, so work done is purely rate-limited.
		e, err := engine.New(cfg, apps.LAMMPS(apps.DefaultRanks, int(dur.Seconds())*100))
		if err != nil {
			return nil, err
		}
		e.EnableInvariants(engine.InvariantConfig{})
		return e, nil
	}

	// Part A reference: the same node, budget, and seed with a daemon
	// that never dies.
	eb, err := mkEngine(0)
	if err != nil {
		return nil, err
	}
	nb, err := nrm.New(nrm.Config{Beta: 1.0}, eb)
	if err != nil {
		return nil, err
	}
	nb.SetBudget(extCrashBudgetW)
	baseRes, err := nb.Run(dur)
	if err != nil {
		return nil, fmt.Errorf("ext-crashes: baseline: %w", err)
	}
	if err := invariantErr(eb); err != nil {
		return nil, err
	}
	rep.BaselineWork = baseRes.WorkUnits

	// Part A: kill the daemon at killAt, supervise it back up. The
	// journal lives in img (a crash loses the process, not the log);
	// downtime is virtual time the plant runs through with the pre-crash
	// cap still latched in the RAPL register.
	ec, err := mkEngine(0)
	if err != nil {
		return nil, err
	}
	var img bytes.Buffer
	var n *nrm.NRM
	killed := false
	sup := supervise.New(supervise.Options{
		MaxRestarts: 5,
		Backoff:     2 * time.Second,
		Sleep:       func(d time.Duration) { _, _ = ec.Advance(d) },
	})
	unit := supervise.Unit{
		Name: "powerpolicy",
		Start: func(attempt int) (func() error, error) {
			cfgN := nrm.Config{Beta: 1.0, Journal: journal.NewWriter(&img)}
			var nerr error
			if attempt == 0 {
				n, nerr = nrm.New(cfgN, ec)
			} else {
				recs, _, rerr := journal.ReplayBytes(img.Bytes())
				if rerr != nil {
					return nil, rerr
				}
				n, nerr = nrm.Restore(cfgN, ec, journal.Recover(recs))
			}
			if nerr != nil {
				return nil, nerr
			}
			n.SetBudget(extCrashBudgetW)
			n.RecordSupervisorRestarts(attempt)
			return func() error {
				for {
					if !killed && ec.Clock().Now() >= killAt {
						killed = true
						rep.PreCrashCapW, _ = rapl.ReadLimit(ec.Device())
						panic("chaos: policy daemon killed")
					}
					done, serr := n.Step()
					if serr != nil {
						return serr
					}
					if done || ec.Clock().Now() >= dur {
						return nil
					}
				}
			}, nil
		},
	}
	if err := sup.Supervise(unit); err != nil {
		return nil, fmt.Errorf("ext-crashes: supervised run: %w", err)
	}
	crashRes, err := ec.Finish()
	if err != nil {
		return nil, err
	}
	if err := invariantErr(ec); err != nil {
		return nil, err
	}
	rep.CrashWork = crashRes.WorkUnits
	rep.Restarts = sup.Restarts()
	rep.Panics = sup.Panics()
	rep.DeviationPct = 100 * math.Abs(rep.CrashWork-rep.BaselineWork) / rep.BaselineWork
	rep.OvershootW = peakOver(crashRes, extCrashBudgetW, 6*time.Second)
	rep.RecoveryEpochs = -1
	for i, d := range n.Decisions() {
		if d.Knob == nrm.KnobRAPL && math.Abs(d.Setting-rep.PreCrashCapW) < 1e-6 {
			rep.RecoveryEpochs = i + 1
			break
		}
	}

	// Part B: the daemon programs an aggressive 60 W cap, then dies for
	// good. The deadman's TTL expires and hardware reverts to the
	// firmware-default cap — a dead daemon cannot strand the node.
	ed, err := mkEngine(7)
	if err != nil {
		return nil, err
	}
	if err := ed.SetDeadman(rapl.Deadman{TTL: 3 * time.Second}); err != nil {
		return nil, err
	}
	nd, err := nrm.New(nrm.Config{Beta: 1.0}, ed)
	if err != nil {
		return nil, err
	}
	nd.SetBudget(60)
	for ed.Clock().Now() < 8*time.Second {
		done, serr := nd.Step()
		if serr != nil {
			return nil, fmt.Errorf("ext-crashes: deadman run: %w", serr)
		}
		if done {
			break
		}
	}
	rep.DeadmanCapBeforeW, _ = rapl.ReadLimit(ed.Device())
	// Permanent death: nobody re-arms; the node runs on.
	if _, err := ed.Advance(8 * time.Second); err != nil {
		return nil, err
	}
	rep.DeadmanCapAfterW, _ = rapl.ReadLimit(ed.Device())
	rep.DeadmanTrips = ed.Controller().DeadmanTrips()
	if _, err := ed.Finish(); err != nil {
		return nil, err
	}
	if err := invariantErr(ed); err != nil {
		return nil, err
	}

	// Part C: a daemon poisoned into a panic loop. The circuit breaker
	// opens after MaxRestarts and degrades the node to a static safe cap
	// safely below the budget; the plant keeps running, daemonless.
	ep, err := mkEngine(13)
	if err != nil {
		return nil, err
	}
	rep.SafeCapW = 0.8 * extCrashBudgetW
	supC := supervise.New(supervise.Options{
		MaxRestarts: 3,
		Backoff:     time.Second,
		Sleep:       func(d time.Duration) { _, _ = ep.Advance(d) },
		OnBreak: func(unitName string, cause error) {
			_ = rapl.Writer{Dev: ep.Device()}.WriteCap(ep.Clock().Now(), rep.SafeCapW, 10*time.Millisecond)
		},
	})
	unitC := supervise.Unit{
		Name: "powerpolicy",
		Start: func(attempt int) (func() error, error) {
			np, nerr := nrm.New(nrm.Config{Beta: 1.0}, ep)
			if nerr != nil {
				return nil, nerr
			}
			np.SetBudget(extCrashBudgetW)
			return func() error {
				if _, serr := np.Step(); serr != nil {
					return serr
				}
				panic("chaos: poisoned daemon state")
			}, nil
		},
	}
	if err := supC.Supervise(unitC); err != nil && !errors.Is(err, supervise.ErrCircuitOpen) {
		return nil, fmt.Errorf("ext-crashes: breaker run: %w", err)
	}
	rep.Broken = supC.Broken()
	rep.BreakRestarts = supC.Restarts()
	rep.BreakPanics = supC.Panics()
	breakAt := ep.Clock().Now()
	for ep.Clock().Now() < 20*time.Second {
		if _, err := ep.Advance(time.Second); err != nil {
			return nil, err
		}
	}
	resC, err := ep.Finish()
	if err != nil {
		return nil, err
	}
	if err := invariantErr(ep); err != nil {
		return nil, err
	}
	rep.PostBreakPeakW = rep.SafeCapW + peakOver(resC, rep.SafeCapW, breakAt)

	return rep, nil
}

// ExtCrashes is the chaos-restart artifact: it renders the harness's
// three scenarios (kill/restart with journal recovery, permanent death
// under the RAPL deadman, panic loop into the circuit breaker) against
// the paper's implicit always-up-daemon assumption.
func ExtCrashes(opts Options) (*Artifact, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	rep, err := RunCrashHarness(opts, 10*time.Second)
	if err != nil {
		return nil, err
	}

	recov := trace.NewTable("A: daemon SIGKILL at t=10 s, supervised restart after 2 s (budget 120 W)",
		"Run", "Work done", "Deviation %", "Restarts", "Recovery epochs", "Cap overshoot (W)")
	recov.AddRow("uninterrupted", fmt.Sprintf("%.0f", rep.BaselineWork), "-", "0", "-", "-")
	recov.AddRow("kill+restart", fmt.Sprintf("%.0f", rep.CrashWork),
		fmt.Sprintf("%.2f", rep.DeviationPct),
		fmt.Sprintf("%d", rep.Restarts),
		fmt.Sprintf("%d", rep.RecoveryEpochs),
		fmt.Sprintf("%.1f", rep.OvershootW))

	dead := trace.NewTable("B: permanent daemon death, 3 s RAPL deadman TTL",
		"Phase", "Cap (W)")
	dead.AddRow("daemon alive (aggressive cap)", fmt.Sprintf("%.0f", rep.DeadmanCapBeforeW))
	dead.AddRow("daemon dead, TTL expired", fmt.Sprintf("%.0f", rep.DeadmanCapAfterW))

	brk := trace.NewTable("C: panic-looping daemon, circuit breaker at 3 restarts",
		"Metric", "Value")
	brk.AddRow("circuit broken", fmt.Sprintf("%v", rep.Broken))
	brk.AddRow("restarts / panics", fmt.Sprintf("%d / %d", rep.BreakRestarts, rep.BreakPanics))
	brk.AddRow("static safe cap (W)", fmt.Sprintf("%.0f", rep.SafeCapW))
	brk.AddRow("peak window power after break (W)", fmt.Sprintf("%.1f", rep.PostBreakPeakW))

	return &Artifact{
		ID:     "ext-crashes",
		Title:  "Extension: crash-safe control (journal recovery, deadman, circuit breaker)",
		Tables: []*trace.Table{recov, dead, brk},
		Notes: []string{
			fmt.Sprintf("journal recovery re-armed the %.0f W pre-crash cap in %d epoch(s) after restart (acceptance: <= 3);",
				rep.PreCrashCapW, rep.RecoveryEpochs),
			fmt.Sprintf("progress deviation vs the uninterrupted run: %.2f%% (acceptance: <= 5%%), cap overshoot %.1f W (acceptance: 0);",
				rep.DeviationPct, rep.OvershootW),
			fmt.Sprintf("deadman reverted %.0f W -> %.0f W after %d trip(s); breaker held the node at %.0f W with no daemon.",
				rep.DeadmanCapBeforeW, rep.DeadmanCapAfterW, rep.DeadmanTrips, rep.SafeCapW),
		},
	}, nil
}
