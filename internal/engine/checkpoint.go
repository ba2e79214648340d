// Checkpoint/Resume: a complete, versioned, deep snapshot of a running
// engine, taken at aggregation-window boundaries, restorable onto a
// freshly constructed identically-configured engine. The experiments
// runner uses it to fork sweep cells from a shared prefix instead of
// re-simulating it; TestEngineStateInventory pins the field coverage so
// a new engine or subsystem field cannot silently escape the snapshot.
//
// Why window boundaries only: the engine's whole-second grid is where
// every in-flight stream is provably quiescent — flushWindow just
// drained every subscription and monitor, so the only state is the
// durable kind the sub-package snapshots capture. Mid-window state
// (buffered channel payloads aliasing recyclable buffers, undrained
// reports) is deliberately not snapshotable; Checkpoint returns an
// error rather than guessing.
//
// Deep-copy discipline: a Checkpoint may live in a shared pool and be
// restored concurrently by racing forks, so Checkpoint copies
// everything out of the engine and Resume copies everything out of the
// checkpoint. Neither side ever aliases the other's slices or maps.

package engine

import (
	"fmt"
	"time"

	"progresscap/internal/counters"
	"progresscap/internal/cpu"
	"progresscap/internal/fault"
	"progresscap/internal/msr"
	"progresscap/internal/policy"
	"progresscap/internal/power"
	"progresscap/internal/progress"
	"progresscap/internal/pubsub"
	"progresscap/internal/rapl"
	"progresscap/internal/trace"
	"progresscap/internal/workload"
)

// CheckpointVersion identifies the snapshot layout. Resume refuses a
// checkpoint from a different version.
const CheckpointVersion = 1

// JobState is one workload's slice of a checkpoint.
type JobState struct {
	Exec       workload.ExecState
	Reporter   progress.ReporterState
	Monitor    progress.MonitorState
	SubDropped uint64
	Samples    []progress.Sample
	RateTrace  []trace.Point
	WorkUnits  float64
}

// InvariantState is the invariant checker's window-to-window state.
type InvariantState struct {
	LastTotalJ float64
	LastRawSet bool
	LastRaw    uint64
	LastSeq    uint64
	Violations []InvariantViolation
}

// Checkpoint is a complete snapshot of a started engine at an
// aggregation-window boundary.
type Checkpoint struct {
	Version int

	// Virtual-time position.
	Now        time.Duration
	ObsAnchor  time.Duration
	LastFlush  time.Duration
	EnergyMark float64

	// Ticker positions (periods are configuration).
	RaplNext   time.Duration
	WindowNext time.Duration
	PolicyNext *time.Duration // nil when no policy daemon is installed

	// Run bookkeeping.
	Recycle      bool
	Reserved     bool
	ResWorkUnits float64

	// Node-level trace points (series names are fixed by start()).
	PowerTrace []trace.Point
	CoreTrace  []trace.Point
	FreqTrace  []trace.Point
	DutyTrace  []trace.Point
	BWTrace    []trace.Point

	Jobs []JobState

	Daemon     *policy.DaemonState
	Events     counters.EventSetState
	Bus        pubsub.BusState
	Device     msr.DeviceState
	Domain     cpu.DomainState
	Uncore     cpu.UncoreState
	Meter      power.MeterState
	Controller rapl.ControllerState
	Bank       counters.BankState
	Faults     *fault.InjectorState
	Inv        *InvariantState
}

// Begin forces the lazy start-of-run initialization (result wiring,
// event-set baseline, t=0 policy apply, first RAPL control) without
// advancing time. Run refuses an engine that has already started, so
// callers that checkpoint and advance incrementally use Begin + Advance
// + Finish instead.
func (e *Engine) Begin() error { return e.start() }

// Checkpoint snapshots the engine. The engine must be started, not
// finished, sit exactly on an aggregation-window boundary, and have no
// in-flight state a deep copy cannot own (pending scheduler callbacks,
// undrained subscriptions, a window hook).
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	if !e.started {
		return nil, fmt.Errorf("engine: checkpoint before start")
	}
	if e.finished {
		return nil, fmt.Errorf("engine: checkpoint after Finish")
	}
	if e.windowHook != nil {
		return nil, fmt.Errorf("engine: checkpoint with a window hook installed")
	}
	if n := e.sched.Len(); n != 0 {
		return nil, fmt.Errorf("engine: checkpoint with %d pending scheduler callbacks", n)
	}
	now := e.clock.Now()
	if now%e.cfg.Window != 0 {
		return nil, fmt.Errorf("engine: checkpoint at %v, not on the %v window grid", now, e.cfg.Window)
	}
	for _, j := range e.jobs {
		if at := j.exec.At(); at != now {
			return nil, fmt.Errorf("engine: checkpoint with %s consumed only up to %v", j.res.Workload, at)
		}
		if n := j.sub.Pending(); n != 0 {
			return nil, fmt.Errorf("engine: checkpoint with %d undrained reports for %s", n, j.res.Workload)
		}
		if n := j.monitor.Pending(); n != 0 {
			return nil, fmt.Errorf("engine: checkpoint with %d unflushed reports for %s", n, j.res.Workload)
		}
	}

	ck := &Checkpoint{
		Version:      CheckpointVersion,
		Now:          now,
		ObsAnchor:    e.obsAnchor,
		LastFlush:    e.lastFlush,
		EnergyMark:   e.energyMark,
		RaplNext:     e.raplTicker.Next(),
		WindowNext:   e.windowTicker.Next(),
		Recycle:      e.recycle,
		Reserved:     e.reserved,
		ResWorkUnits: e.res.WorkUnits,
		PowerTrace:   e.res.PowerTrace.Snapshot(),
		CoreTrace:    e.res.CoreTrace.Snapshot(),
		FreqTrace:    e.res.FreqTrace.Snapshot(),
		DutyTrace:    e.res.DutyTrace.Snapshot(),
		BWTrace:      e.res.BWTrace.Snapshot(),
		Events:       e.events.SnapshotState(),
		Bus:          e.bus.Snapshot(),
		Device:       e.dev.Snapshot(),
		Domain:       e.domain.Snapshot(),
		Uncore:       e.uncore.Snapshot(),
		Meter:        e.meter.Snapshot(),
		Controller:   e.ctl.Snapshot(),
		Bank:         e.bank.SnapshotState(),
	}
	if e.policyTicker != nil {
		n := e.policyTicker.Next()
		ck.PolicyNext = &n
	}
	if e.daemon != nil {
		d := e.daemon.Snapshot()
		ck.Daemon = &d
	}
	if e.faults != nil {
		f := e.faults.Snapshot()
		ck.Faults = &f
	}
	if e.inv != nil {
		ck.Inv = &InvariantState{
			LastTotalJ: e.inv.lastTotalJ,
			LastRawSet: e.inv.lastRawSet,
			LastRaw:    e.inv.lastRaw,
			LastSeq:    e.inv.lastSeq,
			Violations: append([]InvariantViolation(nil), e.inv.violations...),
		}
	}
	for _, j := range e.jobs {
		ck.Jobs = append(ck.Jobs, JobState{
			Exec:       j.exec.Snapshot(),
			Reporter:   j.reporter.Snapshot(),
			Monitor:    j.monitor.Snapshot(),
			SubDropped: j.sub.Dropped(),
			Samples:    append([]progress.Sample(nil), j.res.Samples...),
			RateTrace:  j.res.RateTrace.Snapshot(),
			WorkUnits:  j.res.WorkUnits,
		})
	}
	return ck, nil
}

// Resume restores a checkpoint onto this engine, which must be freshly
// constructed and configured exactly as the donor was (same Config and
// workloads via NewMulti, same SetScheme/SetSchemeVia/SetFaults/
// SetManualDVFS/SetDeadman/EnableInvariants calls) and never advanced.
// After Resume the engine continues with Advance/Finish as if it had
// simulated the prefix itself.
func (e *Engine) Resume(ck *Checkpoint) error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("engine: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	}
	if e.started || e.finished {
		return fmt.Errorf("engine: Resume on a used engine")
	}
	if len(ck.Jobs) != len(e.jobs) {
		return fmt.Errorf("engine: checkpoint has %d jobs, engine %d", len(ck.Jobs), len(e.jobs))
	}
	if (ck.Daemon != nil) != (e.daemon != nil) {
		return fmt.Errorf("engine: checkpoint/engine policy-daemon mismatch")
	}
	if (ck.PolicyNext != nil) != (e.policyTicker != nil) {
		return fmt.Errorf("engine: checkpoint/engine policy-ticker mismatch")
	}
	if (ck.Faults != nil) != (e.faults != nil) {
		return fmt.Errorf("engine: checkpoint/engine fault-layer mismatch")
	}

	// Restore executors first: Exec.Restore replays the generator
	// sequence and verifies the RNG landing, so a wrong workload or seed
	// fails here before any engine state is touched.
	for i, j := range e.jobs {
		if err := j.exec.Restore(ck.Jobs[i].Exec); err != nil {
			return fmt.Errorf("engine: resume: %w", err)
		}
	}

	// Mirror start()'s wiring, with the checkpoint supplying everything
	// start() would have computed or latched.
	e.started = true
	e.res = &Result{
		Workload:   e.jobs[0].res.Workload,
		PowerTrace: trace.NewSeries("power.pkg", "W"),
		CoreTrace:  trace.NewSeries("power.core", "W"),
		FreqTrace:  trace.NewSeries("cpu.freq", "MHz"),
		DutyTrace:  trace.NewSeries("cpu.duty", ""),
		BWTrace:    trace.NewSeries("uncore.bwscale", ""),
	}
	for _, j := range e.jobs {
		e.res.Jobs = append(e.res.Jobs, j.res)
	}

	e.clock.AdvanceTo(ck.Now)
	e.obsAnchor = ck.ObsAnchor
	e.lastFlush = ck.LastFlush
	e.energyMark = ck.EnergyMark
	e.recycle = ck.Recycle
	e.reserved = ck.Reserved
	e.payloadFree = nil

	e.raplTicker.SetNext(ck.RaplNext)
	e.windowTicker.SetNext(ck.WindowNext)
	if e.policyTicker != nil {
		e.policyTicker.SetNext(*ck.PolicyNext)
	}

	e.res.WorkUnits = ck.ResWorkUnits
	e.res.PowerTrace.Restore(ck.PowerTrace)
	e.res.CoreTrace.Restore(ck.CoreTrace)
	e.res.FreqTrace.Restore(ck.FreqTrace)
	e.res.DutyTrace.Restore(ck.DutyTrace)
	e.res.BWTrace.Restore(ck.BWTrace)

	e.events.RestoreState(ck.Events) // replaces start()'s events.Start(0)
	e.bus.Restore(ck.Bus)
	e.dev.Restore(ck.Device)
	e.domain.Restore(ck.Domain)
	e.uncore.Restore(ck.Uncore)
	e.meter.Restore(ck.Meter)
	e.ctl.Restore(ck.Controller)
	e.bank.RestoreState(ck.Bank)
	if ck.Daemon != nil {
		e.daemon.Restore(*ck.Daemon)
	}
	if ck.Faults != nil {
		e.faults.Restore(*ck.Faults)
	}
	if ck.Inv != nil {
		if e.inv == nil {
			return fmt.Errorf("engine: checkpoint has invariant state but checker is disabled")
		}
		e.inv.lastTotalJ = ck.Inv.LastTotalJ
		e.inv.lastRawSet = ck.Inv.LastRawSet
		e.inv.lastRaw = ck.Inv.LastRaw
		e.inv.lastSeq = ck.Inv.LastSeq
		e.inv.violations = append([]InvariantViolation(nil), ck.Inv.Violations...)
	} else if e.inv != nil {
		return fmt.Errorf("engine: invariant checker enabled but checkpoint has no state")
	}

	for i, j := range e.jobs {
		js := &ck.Jobs[i]
		j.reporter.Restore(js.Reporter)
		j.monitor.Restore(js.Monitor)
		j.sub.SetDropped(js.SubDropped)
		j.res.Samples = append([]progress.Sample(nil), js.Samples...)
		j.res.RateTrace.Restore(js.RateTrace)
		j.res.WorkUnits = js.WorkUnits
	}
	return nil
}

// SizeBytes estimates the checkpoint's in-memory footprint, for the
// snapshot pool's byte-bounded LRU. It counts the dominant variable-size
// payloads (trace points, samples, per-core register images, counter
// cells, fault queues) plus a fixed overhead; exactness does not matter,
// monotonicity with actual size does.
func (c *Checkpoint) SizeBytes() int {
	const (
		ptSize     = 16 // trace.Point{T, V}
		sampleSize = 48 // progress.Sample incl. string header
		regSize    = 64 // one scope's dense register image: seven values and a set mask
		fixed      = 2048
	)
	n := fixed
	n += ptSize * (len(c.PowerTrace) + len(c.CoreTrace) + len(c.FreqTrace) + len(c.DutyTrace) + len(c.BWTrace))
	n += regSize * (len(c.Device.Core) + len(c.Device.StaleCore))
	n += 8 * len(c.Bank.Vals)
	for i := range c.Jobs {
		j := &c.Jobs[i]
		n += sampleSize * (len(j.Samples) + len(j.Monitor.Samples))
		n += ptSize * len(j.RateTrace)
		n += 8 * len(j.Monitor.History)
		n += 136 * len(j.Exec.Ranks) // Segment + remainders + RankLoad
	}
	if c.Daemon != nil {
		n += ptSize * len(c.Daemon.CapTrace)
	}
	if c.Faults != nil {
		for i := range c.Faults.PubSub.Queue {
			n += 64 + len(c.Faults.PubSub.Queue[i].Payload)
		}
	}
	return n
}
