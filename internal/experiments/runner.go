package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"progresscap/internal/cluster"
	"progresscap/internal/engine"
	"progresscap/internal/fault"
	"progresscap/internal/policy"
	"progresscap/internal/rapl"
	"progresscap/internal/spec"
	"progresscap/internal/workload"
)

// RunSpec describes one independent measurement run: a workload executed
// under either a capping scheme (DVFSMHz == 0) or a pinned DVFS operating
// point (DVFSMHz > 0), from a given seed, for at most MaxSeconds of
// virtual time.
//
// Make returns the run's workload. Workloads are immutable and their
// generators pure, so Make may return one shared instance, and runs may
// execute it concurrently. The Runner calls Make once to fingerprint the
// spec and once per actual execution.
type RunSpec struct {
	Make       func() *workload.Workload
	Scheme     policy.Scheme // nil = uncapped; ignored when DVFSMHz > 0
	DVFSMHz    float64
	Seed       uint64
	MaxSeconds float64
	// Invariants arms the engine invariant checker for this run. It is
	// part of the memoization key: an invariant-checked run can fail where
	// an unchecked one succeeds.
	Invariants bool
	// FixedTick runs the engine in fixed-tick oracle mode (see
	// engine.Config.FixedTick). Part of the memoization key so the
	// differential test never collapses the two modes onto one cached
	// result.
	FixedTick bool
	// Faults is the run's fault plan; a disabled (zero) plan runs the
	// engine faultless. Part of the memoization key: a faulted run and a
	// clean run are different runs.
	Faults fault.Plan
	// Backend selects the actuation path: "" or "msr" drives the scheme
	// through the legacy register daemon (byte-identical to pre-backend
	// runs), "sysfs" routes it through the hardened actuator over the
	// emulated powercap tree (with the MSR path as failover). Part of the
	// memoization key: sysfs floors caps where the MSR path rounds.
	Backend string
	// Forking enables prefix reuse: the run resumes from the deepest
	// pooled checkpoint whose prefix fingerprint matches and publishes
	// its own whole-second prefixes for later cells (see fork.go). An
	// execution knob like NodeWorkers — wall-clock only, results are
	// byte-identical — so it is deliberately NOT part of the
	// memoization key or the disk-cache fingerprint.
	Forking bool
}

// backend returns the normalized backend name: the explicit "msr"
// spelling collapses to the default so both key and behave identically.
func (s RunSpec) backend() string {
	if s.Backend == "msr" {
		return ""
	}
	return s.Backend
}

// operatingKey renders the run's operating point for the fingerprint:
// "dvfs:<mhz>", "scheme:<type+params>", or "uncapped". The %T+%+v scheme
// rendering is exhaustive over the concrete policy types, all of which
// are flat parameter structs.
func (s RunSpec) operatingKey() string {
	switch {
	case s.DVFSMHz > 0:
		return fmt.Sprintf("dvfs:%g", s.DVFSMHz)
	case s.Scheme != nil:
		return fmt.Sprintf("scheme:%T%+v", s.Scheme, s.Scheme)
	default:
		return "uncapped"
	}
}

// key returns the canonical memoization key: the content hash of the
// run's spec.RunFingerprint — the workload's construction fingerprint
// (declarative fields plus generator corner probes) combined with the
// operating point, seed, duration, mode flags, and fault plan. Two specs
// with equal keys describe byte-identical simulations, and the same hash
// names the run in the shared disk cache, so suite runs and CI converge
// on one copy of each result.
func (s RunSpec) key() string {
	w := s.Make()
	fp := spec.RunFingerprint{
		Version:    spec.Version,
		Workload:   spec.FingerprintWorkload(w),
		Operating:  s.operatingKey(),
		Seed:       s.Seed,
		MaxSeconds: s.MaxSeconds,
		Invariants: s.Invariants,
		FixedTick:  s.FixedTick,
	}
	if s.Faults.Enabled() {
		plan := s.Faults
		fp.Faults = &plan
	}
	fp.Backend = s.backend()
	return fmt.Sprintf("%s/%s", w.Name, fp.Hash())
}

// runEntry is one memoized run: created exactly once per key, its done
// channel closes when the result is available.
type runEntry struct {
	done       chan struct{}
	res        *engine.Result
	err        error
	prefetched bool
}

// RunnerStats is a point-in-time snapshot of scheduler effectiveness.
type RunnerStats struct {
	Executed    uint64 // simulations actually run
	CacheHits   uint64 // Do calls served from a memoized or in-flight run
	DiskHits    uint64 // runs served from the disk cache instead of executing
	PeakWorkers int    // maximum simulations in flight at once
	// Shards aggregates the intra-epoch node-advancement pools of every
	// cluster-level generator that ran through this Runner's suite (see
	// Runner.RecordShards); zero when no cluster generator ran.
	Shards cluster.ShardStats
	// Actuation aggregates hardened-actuator counters (retries,
	// failovers, parks, virtual backoff) across every executed run that
	// actuated through a backend; zero when only legacy-path runs
	// executed. Cached runs contribute nothing — these are execution
	// statistics, not result content.
	Actuation rapl.ActuatorCounters
	// ForkRuns counts executed runs that ran with prefix forking
	// enabled, ForkHits those that actually resumed from a pooled
	// snapshot, and ForkSkippedSec the virtual seconds those resumes
	// skipped re-simulating. Execution statistics, like Actuation.
	ForkRuns       uint64
	ForkHits       uint64
	ForkSkippedSec uint64
}

// Runner fans independent experiment runs over a bounded worker pool and
// memoizes completed runs by canonical run key, so a baseline shared
// between artifacts (the uncapped LAMMPS/STREAM runs behind Table 6,
// Fig 1, and Fig 4) simulates once per suite.
//
// Results returned by Do are shared between all callers with the same
// key and must be treated as read-only.
type Runner struct {
	sem chan struct{}

	mu      sync.Mutex
	entries map[string]*runEntry

	// cacheDir, when non-empty, backs the memo table with a disk cache
	// keyed by the run's content hash (see EnableDiskCache).
	cacheDir string

	executed atomic.Uint64
	hits     atomic.Uint64
	diskHits atomic.Uint64
	active   atomic.Int64
	peak     atomic.Int64

	// pool holds prefix checkpoints for Forking runs (see fork.go).
	pool        *snapshotPool
	forkRuns    atomic.Uint64
	forkHits    atomic.Uint64
	forkSkipSec atomic.Uint64

	shardMu sync.Mutex
	shards  cluster.ShardStats

	actMu     sync.Mutex
	actuation rapl.ActuatorCounters
}

// NewRunner returns a Runner executing at most parallel simulations at
// once; parallel <= 0 means GOMAXPROCS.
func NewRunner(parallel int) *Runner {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		sem:     make(chan struct{}, parallel),
		entries: make(map[string]*runEntry),
		pool:    newSnapshotPool(defaultPoolBytes),
	}
}

// Parallel returns the worker-pool bound.
func (r *Runner) Parallel() int { return cap(r.sem) }

// Stats returns the scheduler counters accumulated so far.
func (r *Runner) Stats() RunnerStats {
	r.shardMu.Lock()
	shards := r.shards
	r.shardMu.Unlock()
	r.actMu.Lock()
	actuation := r.actuation
	r.actMu.Unlock()
	return RunnerStats{
		Executed:       r.executed.Load(),
		CacheHits:      r.hits.Load(),
		DiskHits:       r.diskHits.Load(),
		PeakWorkers:    int(r.peak.Load()),
		Shards:         shards,
		Actuation:      actuation,
		ForkRuns:       r.forkRuns.Load(),
		ForkHits:       r.forkHits.Load(),
		ForkSkippedSec: r.forkSkipSec.Load(),
	}
}

// RecordActuation folds one actuator's counters into the suite totals
// (runs execute concurrently, hence the lock). Experiments that build
// their own actuators outside Do also report through this, so parks and
// failovers always reach the scheduler summary.
func (r *Runner) RecordActuation(c rapl.ActuatorCounters) {
	r.actMu.Lock()
	r.actuation.Merge(c)
	r.actMu.Unlock()
}

// RecordShards folds one cluster's shard-pool counters into the suite
// totals (generators run concurrently, hence the lock). Cluster steps
// don't flow through Do — each manager owns its own pool — so this is
// how their parallelism shows up in the scheduler summary.
func (r *Runner) RecordShards(s cluster.ShardStats) {
	r.shardMu.Lock()
	r.shards.Merge(s)
	r.shardMu.Unlock()
}

// claim returns the entry for key, creating it if needed; created is true
// when this caller must execute the run.
func (r *Runner) claim(key string, prefetch bool) (e *runEntry, created bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[key]; ok {
		return e, false
	}
	e = &runEntry{done: make(chan struct{}), prefetched: prefetch}
	r.entries[key] = e
	return e, true
}

// Do executes the spec — or waits for / returns the memoized result of an
// identical run. It blocks until the result is available.
func (r *Runner) Do(spec RunSpec) (*engine.Result, error) {
	key := spec.key()
	e, created := r.claim(key, false)
	if created {
		r.execute(spec, key, e)
	} else {
		// A generator prefetching its own runs and then collecting them is
		// plumbing, not cache effectiveness; only count hits beyond the
		// first collection of a prefetched run.
		r.mu.Lock()
		if e.prefetched {
			e.prefetched = false
		} else {
			r.hits.Add(1)
		}
		r.mu.Unlock()
	}
	<-e.done
	return e.res, e.err
}

// Prefetch schedules the spec asynchronously so a later Do returns
// immediately. Specs already scheduled or completed are left alone. The
// run executes on another goroutine; Make may still return a shared
// workload, since workloads are immutable (see RunSpec).
func (r *Runner) Prefetch(spec RunSpec) {
	key := spec.key()
	e, created := r.claim(key, true)
	if !created {
		return
	}
	go r.execute(spec, key, e)
}

// execute runs the simulation under the worker-pool bound and publishes
// the result, consulting the disk cache (when enabled) first.
func (r *Runner) execute(spec RunSpec, key string, e *runEntry) {
	r.sem <- struct{}{}
	if n := r.active.Add(1); n > r.peak.Load() {
		// Benign race on the max: two concurrent updates both exceed the
		// old peak; CAS-loop so the larger one wins.
		for {
			old := r.peak.Load()
			if n <= old || r.peak.CompareAndSwap(old, n) {
				break
			}
		}
	}
	defer func() {
		r.active.Add(-1)
		<-r.sem
		close(e.done)
	}()

	if res, ok := r.loadCached(key); ok {
		e.res = res
		r.diskHits.Add(1)
		return
	}
	var act *rapl.ActuatorCounters
	if spec.Forking {
		e.res, act, e.err = r.runForked(spec)
	} else {
		e.res, act, e.err = runOnce(spec)
	}
	if act != nil {
		r.RecordActuation(*act)
	}
	r.executed.Add(1)
	if e.err == nil {
		r.saveCached(key, e.res)
	}
}

// runOnce performs one simulation from scratch: the construction lives
// in build (shared with the forking path, so a resumed engine is wired
// exactly like a scratch one). The returned counters are non-nil only
// when the run actuated through the hardened backend layer.
func runOnce(spec RunSpec) (*engine.Result, *rapl.ActuatorCounters, error) {
	b, err := build(spec)
	if err != nil {
		return nil, nil, err
	}
	res, err := b.eng.Run(time.Duration(spec.MaxSeconds * float64(time.Second)))
	if err != nil {
		return nil, nil, err
	}
	return b.finish(res)
}
