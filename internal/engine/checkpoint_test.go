package engine

import (
	"reflect"
	"testing"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/counters"
	"progresscap/internal/cpu"
	"progresscap/internal/fault"
	"progresscap/internal/msr"
	"progresscap/internal/policy"
	"progresscap/internal/power"
	"progresscap/internal/powercap"
	"progresscap/internal/progress"
	"progresscap/internal/pubsub"
	"progresscap/internal/rapl"
	"progresscap/internal/simtime"
	"progresscap/internal/trace"
	"progresscap/internal/workload"
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

	// Resume refusals: wrong version, used engine, topology mismatch.
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
	bad := *ck
	bad.Version = CheckpointVersion + 1
	if err := mk().Resume(&bad); err == nil {
		t.Error("wrong-version checkpoint accepted")
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

// inventoryCase pins one struct's field set against the checkpoint
// serializer: every field is either snapshotted (carried by Checkpoint,
// directly or through a sub-state) or exempt with a recorded reason.
// Adding a field without classifying it here fails the test, which is
// the point — state must not silently escape the snapshot.
type inventoryCase struct {
	typ         reflect.Type
	snapshotted []string
	exempt      map[string]string // field -> why it is not snapshotted
}

func (c inventoryCase) check(t *testing.T) {
	t.Helper()
	seen := map[string]bool{}
	for i := 0; i < c.typ.NumField(); i++ {
		name := c.typ.Field(i).Name
		seen[name] = true
		inSnap := false
		for _, s := range c.snapshotted {
			if s == name {
				inSnap = true
				break
			}
		}
		_, inExempt := c.exempt[name]
		switch {
		case inSnap && inExempt:
			t.Errorf("%s.%s is listed both snapshotted and exempt", c.typ, name)
		case !inSnap && !inExempt:
			t.Errorf("%s.%s is not covered by the checkpoint serializer: snapshot it or exempt it with a reason", c.typ, name)
		}
	}
	for _, s := range c.snapshotted {
		if !seen[s] {
			t.Errorf("%s: snapshotted field %q no longer exists", c.typ, s)
		}
	}
	for s := range c.exempt {
		if !seen[s] {
			t.Errorf("%s: exempt field %q no longer exists", c.typ, s)
		}
	}
}

// fieldElem descends from a struct type through a named field to the
// underlying struct type (unwrapping pointers, slices, and maps), so the
// inventory can reach unexported types like rankState or backendState.
func fieldElem(t *testing.T, typ reflect.Type, field string) reflect.Type {
	t.Helper()
	f, ok := typ.FieldByName(field)
	if !ok {
		t.Fatalf("%s has no field %q", typ, field)
	}
	ft := f.Type
	for ft.Kind() == reflect.Ptr || ft.Kind() == reflect.Slice || ft.Kind() == reflect.Map {
		ft = ft.Elem()
	}
	return ft
}

// TestEngineStateInventory is the reflection pin for the tentpole: the
// complete field set of the engine and of every subsystem it snapshots,
// checked against the checkpoint serializer. A new field anywhere in
// this object graph must be added to a snapshot state or explicitly
// exempted here.
func TestEngineStateInventory(t *testing.T) {
	cases := []inventoryCase{
		{
			typ: reflect.TypeOf(Engine{}),
			snapshotted: []string{
				"clock", "dev", "domain", "uncore", "meter", "ctl", "bank",
				"bus", "jobs", "daemon", "raplTicker", "windowTicker",
				"policyTicker", "events", "started", "res", "lastFlush",
				"energyMark", "obsAnchor", "recycle", "reserved", "faults",
				"inv",
			},
			exempt: map[string]string{
				"cfg":            "construction configuration; the resumed engine is built from the same Config",
				"sched":          "Checkpoint refuses pending callbacks (closures cannot be deep-copied); empty otherwise",
				"finished":       "Checkpoint refuses finished engines; always false in a snapshot",
				"topicsDisjoint": "derived from workload names at construction",
				"payloadFree":    "allocation recycling cache; affects allocation only, never results",
				"windowHook":     "Checkpoint refuses engines with a hook (closures cannot be deep-copied)",
				"pubFaults":      "derived view of faults; SetFaults reinstalls it on the resumed engine",
				"span":           "workload-composition cache; every job has consumed up to the window edge a checkpoint sits on, so the resumed engine refolds the same values",
			},
		},
		{
			typ:         reflect.TypeOf(job{}),
			snapshotted: []string{"exec", "reporter", "monitor", "sub", "res"},
			exempt: map[string]string{
				"dec": "string-interning cache; rebuilding it changes nothing observable",
			},
		},
		{
			typ:         reflect.TypeOf(JobResult{}),
			snapshotted: []string{"Samples", "RateTrace", "WorkUnits"},
			exempt: map[string]string{
				"Workload":  "construction configuration",
				"Metric":    "construction configuration",
				"Completed": "derived from the executor at Finish",
				"RankLoads": "derived from the executor at Finish",
			},
		},
		{
			typ: reflect.TypeOf(Result{}),
			snapshotted: []string{
				"PowerTrace", "CoreTrace", "FreqTrace", "DutyTrace",
				"BWTrace", "WorkUnits",
			},
			exempt: map[string]string{
				"Workload":     "construction configuration",
				"Elapsed":      "derived at Finish",
				"Completed":    "derived at Finish",
				"Samples":      "alias of the primary job's samples, set at Finish",
				"RateTrace":    "alias of the primary job's trace, set at Finish",
				"CapTrace":     "alias of the daemon's trace, set at Finish",
				"EnergyJ":      "derived from the meter at Finish",
				"DRAMEnergyJ":  "derived from the meter at Finish",
				"Counters":     "derived from the event set at Finish",
				"Dropped":      "derived from the bus at Finish",
				"DropsByTopic": "derived from the bus at Finish",
				"Jobs":         "wiring rebuilt by Resume",
			},
		},
		{
			typ:         reflect.TypeOf(invariantChecker{}),
			snapshotted: []string{"lastTotalJ", "lastRawSet", "lastRaw", "lastSeq", "violations"},
			exempt:      map[string]string{"cfg": "construction configuration"},
		},
		{
			typ:         reflect.TypeOf(simtime.Clock{}),
			snapshotted: []string{"now"},
		},
		{
			typ:         reflect.TypeOf(simtime.Ticker{}),
			snapshotted: []string{"next"},
			exempt:      map[string]string{"period": "construction configuration"},
		},
		{
			typ:         reflect.TypeOf(simtime.RNG{}),
			snapshotted: []string{"state", "inc"},
		},
		{
			typ: reflect.TypeOf(simtime.Scheduler{}),
			exempt: map[string]string{
				"clock": "wiring",
				"queue": "Checkpoint refuses pending callbacks; empty otherwise",
				"seq":   "tie-breaks pending events only; meaningless when the queue is empty",
			},
		},
		{
			typ:         reflect.TypeOf(workload.Exec{}),
			snapshotted: []string{"rng", "ranks", "phaseIdx", "iter", "iterStart", "done", "at"},
			exempt: map[string]string{
				"w":       "construction configuration",
				"bank":    "wiring; the bank is snapshotted at the engine level",
				"offset":  "construction configuration",
				"compBuf": "scratch buffer reused across Step calls",
			},
		},
		{
			typ:         fieldElem(t, reflect.TypeOf(workload.Exec{}), "ranks"),
			snapshotted: []string{"seg", "remCycles", "remMem", "remSleep", "finished", "load"},
		},
		{
			typ: reflect.TypeOf(progress.Monitor{}),
			snapshotted: []string{
				"samples", "total", "reports", "lastFlush", "rejected",
				"history", "histPos", "emptyWindows",
			},
			exempt: map[string]string{
				"window":     "construction configuration",
				"pending":    "Snapshot panics unless empty; checkpoints follow a flush",
				"medScratch": "sort scratch buffer",
			},
		},
		{
			typ:         reflect.TypeOf(progress.Reporter{}),
			snapshotted: []string{"sent"},
			exempt: map[string]string{
				"app":   "construction configuration",
				"pub":   "wiring",
				"bufs":  "wiring (derived view of pub)",
				"topic": "derived from app at construction",
			},
		},
		{
			typ:         reflect.TypeOf(progress.PhaseDetector{}),
			snapshotted: []string{"n", "level", "levelN", "pending", "changes"},
			exempt: map[string]string{
				"relTol": "construction configuration",
				"minLen": "construction configuration",
			},
		},
		{
			typ:    reflect.TypeOf(progress.Decoder{}),
			exempt: map[string]string{"names": "string-interning cache"},
		},
		{
			typ:         reflect.TypeOf(pubsub.Bus{}),
			snapshotted: []string{"published", "dropped", "topicDrops"},
			exempt: map[string]string{
				"mu":   "lock",
				"subs": "wiring; subscriptions are re-created by NewMulti and re-filled via SetDropped",
			},
		},
		{
			typ:         reflect.TypeOf(pubsub.Subscription{}),
			snapshotted: []string{"dropped"},
			exempt: map[string]string{
				"bus":    "wiring",
				"prefix": "construction configuration",
				"ch":     "Checkpoint refuses undrained channels; empty otherwise",
				"mu":     "lock",
				"closed": "never closed during a run",
			},
		},
		{
			typ: reflect.TypeOf(msr.Device{}),
			snapshotted: []string{
				"pkg", "core", "writes", "reads", "writeSeq", "stalePkg",
				"staleCore",
			},
			exempt: map[string]string{
				"mu":        "lock",
				"cores":     "construction configuration",
				"writeMask": "construction configuration",
				"faultHook": "reinstalled by SetFaults on the resumed engine",
			},
		},
		{
			typ:         reflect.TypeOf(msr.EnergyCounter{}),
			snapshotted: []string{"raw", "frac"},
			exempt:      map[string]string{"units": "construction configuration"},
		},
		{
			typ:         reflect.TypeOf(counters.Bank{}),
			snapshotted: []string{"vals"},
			exempt: map[string]string{
				"cores":    "construction configuration",
				"readHook": "reinstalled by SetFaults on the resumed engine",
			},
		},
		{
			typ:         reflect.TypeOf(counters.EventSet{}),
			snapshotted: []string{"start", "began"},
			exempt: map[string]string{
				"bank":   "wiring",
				"events": "construction configuration",
			},
		},
		{
			typ:         reflect.TypeOf(cpu.Domain{}),
			snapshotted: []string{"freq", "duty", "ceiling"},
			exempt:      map[string]string{"cfg": "construction configuration"},
		},
		{
			typ:         reflect.TypeOf(cpu.Uncore{}),
			snapshotted: []string{"bwScale"},
		},
		{
			typ: reflect.TypeOf(power.Meter{}),
			snapshotted: []string{
				"avgPkgW", "havePkg", "energyJ", "coreJ", "uncoreJ", "dramJ",
				"lastBrk",
			},
			exempt: map[string]string{
				"model":  "construction configuration",
				"tauSec": "construction configuration",
			},
		},
		{
			typ: reflect.TypeOf(rapl.Controller{}),
			snapshotted: []string{
				"engaged", "idle", "activity", "bwUtil", "seeded", "fastAvgW",
				"fastSeeded", "trimW", "manual", "uncappedIdle", "idleSeq",
				"energy", "dramEnergy", "deadman", "armSeq", "armAge",
				"tripped", "deadmanTrips",
			},
			exempt: map[string]string{
				"dev":           "wiring",
				"domain":        "wiring",
				"uncore":        "wiring",
				"model":         "construction configuration",
				"meter":         "wiring; snapshotted at the engine level",
				"opts":          "construction configuration",
				"units":         "construction configuration (decoded once from the unit register)",
				"published":     "publish cache; Restore clears it, so the first Control republishes the value the device snapshot already holds",
				"havePublished": "publish cache; see published",
			},
		},
		{
			typ:         reflect.TypeOf(rapl.Deadman{}),
			snapshotted: []string{"TTL", "DefaultCapW"},
		},
		{
			typ:         reflect.TypeOf(rapl.Actuator{}),
			snapshotted: []string{"backends", "rng", "counters", "parked"},
			exempt: map[string]string{
				"mu":  "lock",
				"cfg": "construction configuration",
			},
		},
		{
			typ: fieldElem(t, reflect.TypeOf(rapl.Actuator{}), "backends"),
			snapshotted: []string{
				"health", "consecTransient", "cleanOps", "downSince",
				"downStreak",
			},
			exempt: map[string]string{"b": "wiring; backends are matched positionally"},
		},
		{
			typ:         reflect.TypeOf(rapl.EnergyReader{}),
			snapshotted: []string{"prevRaw", "primed", "totalJ", "failures"},
			exempt:      map[string]string{"dev": "wiring"},
		},
		{
			typ:         reflect.TypeOf(powercap.Zone{}),
			snapshotted: []string{"staleEnergy", "staleSeen", "reads", "writes"},
			exempt: map[string]string{
				"mu":    "lock",
				"dev":   "wiring",
				"units": "construction configuration",
				"hook":  "reinstalled from the run's injector",
			},
		},
		{
			typ:         reflect.TypeOf(policy.Daemon{}),
			snapshotted: []string{"start", "started", "applied", "capTrace"},
			exempt: map[string]string{
				"writer":   "wiring",
				"scheme":   "construction configuration (stateless value)",
				"interval": "construction configuration",
				"window":   "construction configuration",
			},
		},
		{
			typ:         reflect.TypeOf(trace.Series{}),
			snapshotted: []string{"pts"},
			exempt: map[string]string{
				"Name": "construction configuration",
				"Unit": "construction configuration",
			},
		},
		{
			typ:         reflect.TypeOf(fault.Injector{}),
			snapshotted: []string{"pubsub", "msr", "counters", "powercap"},
			exempt: map[string]string{
				"plan":     "construction configuration",
				"nodes":    "stateless plan queries; never advance during an engine run",
				"links":    "split RNG untouched during an engine run (cluster layer only)",
				"managers": "split RNG untouched during an engine run (cluster layer only)",
			},
		},
		{
			typ: reflect.TypeOf(fault.PubSub{}),
			snapshotted: []string{
				"rng", "queue", "seq", "kickIdx", "dropped", "delayedN",
				"duplected", "blackout",
			},
			exempt: map[string]string{"plan": "construction configuration"},
		},
		{
			typ:         fieldElem(t, reflect.TypeOf(fault.PubSub{}), "queue"),
			snapshotted: []string{"due", "seq", "m"},
		},
		{
			typ:         reflect.TypeOf(fault.MSR{}),
			snapshotted: []string{"rng", "staleServed", "readEIO", "writeEIO"},
			exempt:      map[string]string{"plan": "construction configuration"},
		},
		{
			typ:         reflect.TypeOf(fault.Counters{}),
			snapshotted: []string{"rng", "glitches", "spike"},
			exempt:      map[string]string{"plan": "construction configuration"},
		},
		{
			typ:         reflect.TypeOf(fault.Powercap{}),
			snapshotted: []string{"rng", "again", "eio", "truncated", "stale", "denied", "gone"},
			exempt:      map[string]string{"plan": "construction configuration"},
		},
	}
	for _, c := range cases {
		c.check(t)
	}
}
