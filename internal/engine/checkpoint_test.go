package engine

import (
	"testing"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/policy"
	"progresscap/internal/snap"
)

// TestCheckpointResumeMatchesScratch is the checkpoint correctness
// oracle: for every macro scenario, a run forked from a checkpoint at
// any whole-second depth must produce a byte-identical signature to the
// same run simulated from scratch — same completion instants, energy
// integrals, samples, traces, counters, and fault outcomes.
func TestCheckpointResumeMatchesScratch(t *testing.T) {
	for _, sc := range macroScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			// Scratch baseline: the ordinary one-shot Run.
			fresh, err := sc.setup(DefaultConfig())
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			res, err := fresh.Run(sc.dur)
			if err != nil {
				t.Fatalf("scratch run: %v", err)
			}
			scratch := res.Signature()

			// Donor: the same run advanced in 1 s chunks, checkpointing at
			// a few depths along the way.
			donor, err := sc.setup(DefaultConfig())
			if err != nil {
				t.Fatalf("setup donor: %v", err)
			}
			if err := donor.Begin(); err != nil {
				t.Fatalf("donor Begin: %v", err)
			}
			wantDepth := map[time.Duration]bool{
				time.Second:                              true,
				(sc.dur / time.Second) / 2 * time.Second: true,
				sc.dur - time.Second:                     true,
			}
			type taken struct {
				depth time.Duration
				ck    *Checkpoint
			}
			var cks []taken
			done := false
			for !done && donor.Clock().Now() < sc.dur {
				done, err = donor.Advance(time.Second)
				if err != nil {
					t.Fatalf("donor advance: %v", err)
				}
				now := donor.Clock().Now()
				if done || now%time.Second != 0 || !wantDepth[now] {
					continue
				}
				ck, err := donor.Checkpoint()
				if err != nil {
					// A pending scheduled callback legitimately blocks a
					// checkpoint (the scheduled-actuation scenario); later
					// depths succeed.
					t.Logf("checkpoint at %v refused: %v", now, err)
					continue
				}
				if ck.SizeBytes() <= 0 {
					t.Fatalf("checkpoint at %v has non-positive size", now)
				}
				cks = append(cks, taken{now, ck})
			}
			donorRes, err := donor.Finish()
			if err != nil {
				t.Fatalf("donor finish: %v", err)
			}
			if got := donorRes.Signature(); got != scratch {
				t.Fatalf("chunked run diverges from one-shot:\n%s", diffHead(got, scratch))
			}
			if len(cks) == 0 {
				t.Fatal("no checkpoint depth succeeded")
			}

			// Fork from every captured depth and run to the end.
			for _, tk := range cks {
				forked, err := sc.setup(DefaultConfig())
				if err != nil {
					t.Fatalf("setup fork: %v", err)
				}
				if err := forked.Resume(tk.ck); err != nil {
					t.Fatalf("resume at %v: %v", tk.depth, err)
				}
				if rem := sc.dur - tk.depth; rem > 0 {
					if _, err := forked.Advance(rem); err != nil {
						t.Fatalf("forked advance at %v: %v", tk.depth, err)
					}
				}
				fres, err := forked.Finish()
				if err != nil {
					t.Fatalf("forked finish at %v: %v", tk.depth, err)
				}
				if got := fres.Signature(); got != scratch {
					t.Errorf("fork at depth %v diverges from scratch:\n%s", tk.depth, diffHead(got, scratch))
				}
			}
		})
	}
}

// TestCheckpointResumeFixedTick reruns one capped scenario in fixed-tick
// mode: the checkpoint grid must be mode-independent, so a fork taken
// under the oracle integrator reproduces the macro-stepped scratch
// signature too.
func TestCheckpointResumeFixedTick(t *testing.T) {
	mk := func(fixed bool) *Engine {
		cfg := DefaultConfig()
		cfg.FixedTick = fixed
		e, err := New(cfg, apps.STREAM(apps.DefaultRanks, 100000))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetScheme(policy.Step{HighW: 140, LowW: 80, HighFor: 2 * time.Second, LowFor: 2 * time.Second}); err != nil {
			t.Fatal(err)
		}
		return e
	}
	const dur = 8 * time.Second
	res, err := mk(false).Run(dur)
	if err != nil {
		t.Fatal(err)
	}
	scratch := res.Signature()

	donor := mk(true)
	if err := donor.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := donor.Advance(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	ck, err := donor.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	forked := mk(true)
	if err := forked.Resume(ck); err != nil {
		t.Fatal(err)
	}
	if _, err := forked.Advance(dur - 3*time.Second); err != nil {
		t.Fatal(err)
	}
	fres, err := forked.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := fres.Signature(); got != scratch {
		t.Errorf("fixed-tick fork diverges from macro scratch:\n%s", diffHead(got, scratch))
	}
}

// TestCheckpointRefusals pins the guard rails: no snapshot before start,
// off the window grid, after Finish, or with un-copyable state in flight.
func TestCheckpointRefusals(t *testing.T) {
	mk := func() *Engine {
		e, err := New(DefaultConfig(), apps.LAMMPS(apps.DefaultRanks, 60))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	e := mk()
	if _, err := e.Checkpoint(); err == nil {
		t.Error("checkpoint before start accepted")
	}

	e = mk()
	if err := e.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Advance(1500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err == nil {
		t.Error("checkpoint off the window grid accepted")
	}

	e = mk()
	e.SetWindowHook(func(WindowStats) {})
	if err := e.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err == nil {
		t.Error("checkpoint with a window hook accepted")
	}

	e = mk()
	e.Scheduler().At(5*time.Second, func(time.Duration) {})
	if err := e.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err == nil {
		t.Error("checkpoint with pending scheduler callbacks accepted")
	}

	e = mk()
	if _, err := e.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err == nil {
		t.Error("checkpoint after Finish accepted")
	}

	// Resume refusals: used engine, topology mismatch.
	donor := mk()
	if err := donor.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := donor.Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	ck, err := donor.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	used := mk()
	if err := used.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := used.Resume(ck); err == nil {
		t.Error("Resume on a started engine accepted")
	}
	withDaemon := mk()
	if err := withDaemon.SetScheme(policy.Constant{Watts: 100}); err != nil {
		t.Fatal(err)
	}
	if err := withDaemon.Resume(ck); err == nil {
		t.Error("daemonless checkpoint accepted by a daemon engine")
	}
	wrongSeed := func() *Engine {
		cfg := DefaultConfig()
		cfg.Seed = 999
		e, err := New(cfg, apps.LAMMPS(apps.DefaultRanks, 60))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}()
	if err := wrongSeed.Resume(ck); err == nil {
		t.Error("checkpoint restored onto a differently seeded engine")
	}
}

// TestEngineStateInventory: the copier's walk of the Engine type graph
// finds nothing it cannot own — every func, chan and interface field
// reachable through untagged fields is tagged `snap:"-"`. Copying two
// zero engines walks the whole type graph, set or not.
func TestEngineStateInventory(t *testing.T) {
	if _, err := snap.Copy(new(Engine), new(Engine)); err != nil {
		t.Fatal(err)
	}
}
