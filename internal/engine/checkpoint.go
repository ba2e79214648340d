// Checkpoint/Resume: a deep copy of a running engine, taken at
// aggregation-window boundaries and restorable onto a freshly built,
// identically configured engine. The experiments runner uses it to fork
// sweep cells from a shared prefix instead of re-simulating it.
//
// The copy is snap.Copy of the whole engine graph onto a shadow Engine,
// and back. Every field travels unless tagged `snap:"-"`; the copier
// refuses untagged closures and interfaces and any object reached twice,
// so state cannot silently escape a checkpoint or be duplicated by one.
//
// Why window boundaries only: the engine's whole-second grid is where
// every in-flight stream is provably quiescent — flushWindow just
// drained every subscription and monitor, so the only state is the
// durable kind the copy carries. Mid-window state (buffered payloads
// aliasing recyclable buffers, undrained reports, pending scheduler
// closures) cannot be owned by a deep copy; Checkpoint returns an error
// rather than guessing.
//
// A Checkpoint may live in a shared pool and be resumed concurrently by
// racing forks. Copy never lets dst alias src, so neither side ever
// shares a slice, map or object with the other.

package engine

import (
	"fmt"

	"progresscap/internal/snap"
)

// Checkpoint is an opaque deep copy of a started engine at an
// aggregation-window boundary.
type Checkpoint struct {
	e    *Engine
	size int
}

// SizeBytes is the memory the checkpoint allocated for its copy of the
// engine, as counted by the copier: the shadow objects and the backing
// arrays of their slices and maps. The snapshot pool bounds itself by it.
func (c *Checkpoint) SizeBytes() int { return c.size }

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
	ck := new(Checkpoint)
	n, err := snap.Copy(&ck.e, &e)
	if err != nil {
		return nil, fmt.Errorf("engine: checkpoint: %w", err)
	}
	ck.size = n
	return ck, nil
}

// Resume restores a checkpoint onto this engine, which must be freshly
// constructed and configured exactly as the donor was (same Config and
// workloads via NewMulti, same SetScheme/SetSchemeVia/SetFaults/
// SetManualDVFS/SetDeadman/EnableInvariants calls) and never advanced.
// After Resume the engine continues with Advance/Finish as if it had
// simulated the prefix itself. On error the engine must be discarded.
func (e *Engine) Resume(ck *Checkpoint) error {
	src := ck.e
	if e.started || e.finished {
		return fmt.Errorf("engine: Resume on a used engine")
	}
	if len(src.jobs) != len(e.jobs) {
		return fmt.Errorf("engine: checkpoint has %d jobs, engine %d", len(src.jobs), len(e.jobs))
	}
	if (src.daemon != nil) != (e.daemon != nil) || (src.policyTicker != nil) != (e.policyTicker != nil) {
		return fmt.Errorf("engine: checkpoint/engine policy-daemon mismatch")
	}
	if (src.faults != nil) != (e.faults != nil) {
		return fmt.Errorf("engine: checkpoint/engine fault-layer mismatch")
	}
	if src.inv != nil && e.inv == nil {
		return fmt.Errorf("engine: checkpoint has invariant state but checker is disabled")
	}
	if src.inv == nil && e.inv != nil {
		return fmt.Errorf("engine: invariant checker enabled but checkpoint has no state")
	}

	// Check executor identity first, so a wrong workload or seed fails
	// before any state is touched.
	for i, j := range e.jobs {
		if err := j.exec.CheckResume(src.jobs[i].exec); err != nil {
			return fmt.Errorf("engine: resume: %w", err)
		}
	}

	// Wire the result as start() does; the copy then fills its traces.
	e.res = e.newResult()
	if _, err := snap.Copy(e, src); err != nil {
		return fmt.Errorf("engine: resume: %w", err)
	}
	return nil
}
