// Prefix-aware run scheduling: sweep cells that share a simulation
// prefix (same workload, seed, mode flags, and cap decisions up to some
// instant) fork from an engine checkpoint taken at the divergence point
// instead of re-simulating the shared prefix from scratch.
//
// The divergence point is never computed pairwise. Instead, every
// forking run publishes checkpoints at whole-second boundaries into a
// byte-bounded LRU pool, content-keyed by a *prefix fingerprint* — a
// hash of everything that determines the simulation's behavior on
// [0, depth]: the full-run base fields (workload fingerprint, seed,
// invariants, fixed-tick, backend), the operating mode, the inclusive
// cap-decision array Caps[0..depth] (the policy daemon decides at whole
// seconds), and the fault plan truncated to the prefix. Two cells that
// agree on a prefix compute identical keys for every depth inside it
// and diverge after, so "fork from the deepest cached ancestor" is a
// pool lookup from the horizon downward.
//
// Forking is an execution knob like NodeWorkers: it changes wall-clock
// cost, never results (the fork-vs-scratch oracle tests pin
// byte-identical Result signatures), so it is banned from the run
// fingerprint and the disk cache key.

package experiments

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
	"time"

	"progresscap/internal/engine"
	"progresscap/internal/fault"
	"progresscap/internal/msr"
	"progresscap/internal/policy"
	"progresscap/internal/powercap"
	"progresscap/internal/rapl"
	"progresscap/internal/snap"
	"progresscap/internal/spec"
)

// defaultPoolBytes bounds the in-memory snapshot pool. Checkpoints of
// the suite's 12-second runs are a few tens of KiB, so the default
// holds thousands of prefixes; the bound exists to keep pathological
// sweeps (long horizons, large fault queues) from growing without
// limit.
const defaultPoolBytes = 256 << 20

// forkSnapshot is one pooled prefix: the engine checkpoint plus, for
// sysfs-backend runs, deep copies of the actuation objects that live
// outside the engine (the hardened actuator and the emulated powercap
// zone are built by the runner, not the engine, so the engine checkpoint
// cannot see them). Snapshots are immutable once pooled: every copy goes
// out of the live run or out of the snapshot, never into it, so
// concurrent forks may restore from one snapshot while its donor keeps
// running. size is the bytes the copies allocated.
type forkSnapshot struct {
	ck   *engine.Checkpoint
	act  *rapl.Actuator
	zone *powercap.Zone
	size int
}

// snapshotPool is a mutex-guarded LRU over prefix snapshots, bounded by
// estimated bytes rather than entry count (checkpoint sizes vary by two
// orders of magnitude between a bare STREAM run and a multi-workload
// faulted one).
type snapshotPool struct {
	mu    sync.Mutex
	max   int
	total int
	items map[string]*list.Element
	lru   *list.List // front = most recently used
}

type poolItem struct {
	key string
	fs  *forkSnapshot
}

func newSnapshotPool(maxBytes int) *snapshotPool {
	return &snapshotPool{max: maxBytes, items: make(map[string]*list.Element), lru: list.New()}
}

// get returns the snapshot for key and promotes it, or nil.
func (p *snapshotPool) get(key string) *forkSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	el, ok := p.items[key]
	if !ok {
		return nil
	}
	p.lru.MoveToFront(el)
	return el.Value.(*poolItem).fs
}

// has reports whether key is pooled, without promoting it.
func (p *snapshotPool) has(key string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.items[key]
	return ok
}

// put inserts a snapshot, evicting least-recently-used entries until
// the byte bound holds. A snapshot larger than the whole bound is not
// pooled at all. An existing entry for key is kept (first writer wins;
// equal keys name byte-identical prefixes).
func (p *snapshotPool) put(key string, fs *forkSnapshot) {
	if fs.size > p.max {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.items[key]; ok {
		return
	}
	p.items[key] = p.lru.PushFront(&poolItem{key: key, fs: fs})
	p.total += fs.size
	for p.total > p.max {
		el := p.lru.Back()
		if el == nil {
			break
		}
		it := el.Value.(*poolItem)
		p.lru.Remove(el)
		delete(p.items, it.key)
		p.total -= it.fs.size
	}
}

// drop removes key (a snapshot that failed to resume; defensive — the
// fingerprint is supposed to make that impossible).
func (p *snapshotPool) drop(key string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.items[key]; ok {
		it := el.Value.(*poolItem)
		p.lru.Remove(el)
		delete(p.items, it.key)
		p.total -= it.fs.size
	}
}

// prefixFingerprint is the content identity of a simulation prefix:
// equal fingerprints mean byte-identical engine state at Depth whole
// seconds. Hashed (JSON, SHA-256) into the snapshot pool key.
type prefixFingerprint struct {
	Version    int
	Workload   spec.WorkloadFP
	Seed       uint64
	Invariants bool
	FixedTick  bool
	Backend    string `json:",omitempty"`
	// Depth is the prefix length in whole seconds (the engine's
	// aggregation-window grid, which is also the policy daemon's
	// decision grid).
	Depth int
	// Mode names the actuation wiring: "dvfs:<mhz>" (manual pin, no
	// daemon), "scheme" (a policy daemon decides Caps), or "uncapped"
	// (msr backend with no scheme: no daemon at all). Wiring must match
	// for a checkpoint to be restorable, but within "scheme" mode the
	// concrete scheme type is deliberately NOT part of the identity —
	// only its decisions are, so a Step and a Constant that agree on
	// Caps[0..Depth] share snapshots and diverge afterwards under their
	// own schemes.
	Mode string
	// Caps holds the daemon's cap decision at each whole second 0..Depth
	// inclusive (events at exactly t fire when advancing to t).
	Caps []float64 `json:",omitempty"`
	// Faults is the run's fault plan truncated to the prefix: schedules
	// (blackouts, permission/gone windows) clipped to [0, Depth],
	// everything probabilistic kept verbatim — rates and the
	// stream seed shift RNG draws inside the prefix, so they must be
	// equal, while a blackout that starts after the prefix cannot.
	Faults *fault.Plan `json:",omitempty"`
}

// forkBase carries the depth-independent fingerprint fields so the
// per-depth key loop fingerprints the workload (which calls Make) once.
type forkBase struct {
	workload spec.WorkloadFP
	mode     string
	scheme   policy.Scheme // nil unless mode == "scheme"
	rs       RunSpec
}

func newForkBase(rs RunSpec) forkBase {
	b := forkBase{workload: spec.FingerprintWorkload(rs.Make()), rs: rs}
	switch {
	case rs.DVFSMHz > 0:
		b.mode = rs.operatingKey() // "dvfs:<mhz>"
	case rs.backend() == "sysfs":
		// The sysfs path always installs a daemon; uncapped means NoCap.
		b.mode = "scheme"
		if b.scheme = rs.Scheme; b.scheme == nil {
			b.scheme = policy.NoCap{}
		}
	case rs.Scheme != nil:
		b.mode = "scheme"
		b.scheme = rs.Scheme
	default:
		b.mode = "uncapped"
	}
	return b
}

// key returns the pool key for this run's prefix at depth whole seconds.
func (b forkBase) key(depth int) string {
	fp := prefixFingerprint{
		Version:    spec.Version,
		Workload:   b.workload,
		Seed:       b.rs.Seed,
		Invariants: b.rs.Invariants,
		FixedTick:  b.rs.FixedTick,
		Backend:    b.rs.backend(),
		Depth:      depth,
		Mode:       b.mode,
		Faults:     prefixFaults(b.rs.Faults, depth),
	}
	if b.scheme != nil {
		fp.Caps = make([]float64, depth+1)
		for k := 0; k <= depth; k++ {
			fp.Caps[k] = b.scheme.CapAt(time.Duration(k) * time.Second)
		}
	}
	j, err := json.Marshal(fp)
	if err != nil {
		// A fault plan is plain data; marshal cannot fail. Returning an
		// unshareable key degrades to scratch execution rather than
		// risking a collision.
		return "unhashable"
	}
	sum := sha256.Sum256(j)
	return hex.EncodeToString(sum[:])
}

// prefixFaults returns the plan truncated to [0, depth] whole seconds,
// canonicalized so plans that behave identically inside the prefix
// fingerprint identically: implicit defaults are made explicit (the
// injector applies them at construction) and time schedules are clipped
// at depth — an event at exactly depth seconds still fires (events at t
// fire when advancing to t), so windows clamp to depth+1ns. Returns nil
// for a disabled plan (the runner installs no injector then).
func prefixFaults(plan fault.Plan, depth int) *fault.Plan {
	if !plan.Enabled() {
		return nil
	}
	t := time.Duration(depth) * time.Second
	p := plan
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.PubSub.MaxDelay <= 0 {
		p.PubSub.MaxDelay = 200 * time.Millisecond
	}
	if p.Counters.GlitchRate > 0 && p.Counters.GlitchScale <= 0 {
		p.Counters.GlitchScale = 1024
	}
	p.PubSub.Blackouts = clipWindows(p.PubSub.Blackouts, t)
	if p.Powercap != nil {
		pc := *p.Powercap
		pc.PermWindows = clipWindows(pc.PermWindows, t)
		pc.GoneWindows = clipWindows(pc.GoneWindows, t)
		p.Powercap = &pc
	}
	return &p
}

// clipWindows drops windows that start after t and clamps the rest to
// end no later than t+1ns (Window.Contains is half-open, so the clamp
// preserves containment of t itself).
func clipWindows(ws []fault.Window, t time.Duration) []fault.Window {
	var out []fault.Window
	for _, w := range ws {
		if w.From > t {
			continue
		}
		if w.To > t+1 {
			w.To = t + 1
		}
		out = append(out, w)
	}
	return out
}

// builtRun is one fully wired simulation ready to start: the engine
// plus the actuation objects the sysfs path constructs outside it.
type builtRun struct {
	eng  *engine.Engine
	act  *rapl.Actuator
	zone *powercap.Zone
}

// build performs runOnce's construction phase: every execution path —
// scratch, forked donor, and forked continuation — flows through this
// so a resumed engine is configured exactly as the donor was.
func build(rs RunSpec) (*builtRun, error) {
	cfg := engine.DefaultConfig()
	cfg.Seed = rs.Seed
	cfg.FixedTick = rs.FixedTick
	eng, err := engine.New(cfg, rs.Make())
	if err != nil {
		return nil, err
	}
	if rs.Invariants {
		eng.EnableInvariants(engine.InvariantConfig{})
	}
	if rs.Faults.Enabled() {
		eng.SetFaults(fault.NewInjector(rs.Faults))
	}
	b := &builtRun{eng: eng}
	switch {
	case rs.DVFSMHz > 0:
		eng.SetManualDVFS(rs.DVFSMHz)
	case rs.backend() == "sysfs":
		// The sysfs path always installs a daemon (NoCap when the spec is
		// uncapped): the backend IS the actuation route, so even an
		// uncapped run exercises it. The zone shares the engine's device,
		// and its fault hook comes from the injector's powercap stream.
		b.zone = powercap.NewZone(eng.Device(), msr.DefaultUnits())
		if inj := eng.Faults(); inj != nil {
			b.zone.SetFaultHook(inj.Powercap().Hook())
		}
		b.act = rapl.NewActuator(rapl.ActuatorConfig{
			Backends: []rapl.Backend{
				powercap.NewBackend(b.zone),
				rapl.NewMSRBackend(eng.Device(), 10*time.Millisecond),
			},
			Seed: rs.Seed,
		})
		scheme := rs.Scheme
		if scheme == nil {
			scheme = policy.NoCap{}
		}
		if err := eng.SetSchemeVia(scheme, rapl.Writer{Act: b.act}); err != nil {
			return nil, err
		}
	case rs.Scheme != nil:
		if err := eng.SetScheme(rs.Scheme); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// finishRun mirrors runOnce's post-Run bookkeeping.
func (b *builtRun) finish(res *engine.Result) (*engine.Result, *rapl.ActuatorCounters, error) {
	if b.act != nil {
		c := b.act.Counters()
		return res, &c, invariantErr(b.eng)
	}
	return res, nil, invariantErr(b.eng)
}

// snapshot captures the run's complete state: the engine checkpoint
// plus copies of the out-of-engine actuation objects on the sysfs path.
func (b *builtRun) snapshot() (*forkSnapshot, error) {
	ck, err := b.eng.Checkpoint()
	if err != nil {
		return nil, err
	}
	s := &forkSnapshot{ck: ck, size: ck.SizeBytes()}
	for _, c := range [][2]any{{&s.act, &b.act}, {&s.zone, &b.zone}} {
		n, err := snap.Copy(c[0], c[1])
		if err != nil {
			return nil, err
		}
		s.size += n
	}
	return s, nil
}

// restore pours a pooled snapshot into a freshly built run.
func (b *builtRun) restore(s *forkSnapshot) error {
	if (s.act != nil) != (b.act != nil) || (s.zone != nil) != (b.zone != nil) {
		return errActuationMismatch
	}
	if err := b.eng.Resume(s.ck); err != nil {
		return err
	}
	for _, c := range [][2]any{{&b.act, &s.act}, {&b.zone, &s.zone}} {
		if _, err := snap.Copy(c[0], c[1]); err != nil {
			return err
		}
	}
	return nil
}

var errActuationMismatch = jsonError("experiments: fork snapshot actuation-layer mismatch")

// jsonError is a tiny comparable error string (avoids importing errors
// for one sentinel).
type jsonError string

func (e jsonError) Error() string { return string(e) }

// runForked executes one simulation with prefix reuse: resume from the
// deepest pooled ancestor if one exists, publish this run's own
// whole-second prefixes for later cells, and produce a result
// byte-identical to runOnce's.
func (r *Runner) runForked(rs RunSpec) (*engine.Result, *rapl.ActuatorCounters, error) {
	horizon := time.Duration(rs.MaxSeconds * float64(time.Second))
	whole := int(horizon / time.Second)
	if whole < 1 {
		return runOnce(rs)
	}
	r.forkRuns.Add(1)
	base := newForkBase(rs)

	// Fork from the deepest cached ancestor. Resume failure means a
	// fingerprint collision (should be impossible); drop the entry and
	// fall back to scratch rather than trusting shallower siblings.
	var b *builtRun
	depth := 0
	for d := whole; d >= 1 && b == nil; d-- {
		key := base.key(d)
		fs := r.pool.get(key)
		if fs == nil {
			continue
		}
		nb, err := build(rs)
		if err != nil {
			return nil, nil, err
		}
		if err := nb.restore(fs); err != nil {
			r.pool.drop(key)
			break
		}
		b, depth = nb, d
	}
	if b == nil {
		nb, err := build(rs)
		if err != nil {
			return nil, nil, err
		}
		if err := nb.eng.Begin(); err != nil {
			return nil, nil, err
		}
		b = nb
	} else {
		r.forkHits.Add(1)
		r.forkSkipSec.Add(uint64(depth))
	}

	// Advance the remainder window by window, publishing each new
	// whole-second prefix. Checkpoint refusals (a pending scheduled
	// callback, mid-window state) just skip that depth — publishing is
	// an optimization, never a correctness requirement.
	for s := depth + 1; s <= whole; s++ {
		if _, err := b.eng.Advance(time.Second); err != nil {
			return nil, nil, err
		}
		key := base.key(s)
		if r.pool.has(key) {
			continue
		}
		if fs, err := b.snapshot(); err == nil {
			r.pool.put(key, fs)
		}
	}
	if rem := horizon - time.Duration(whole)*time.Second; rem > 0 {
		if _, err := b.eng.Advance(rem); err != nil {
			return nil, nil, err
		}
	}
	res, err := b.eng.Finish()
	if err != nil {
		return nil, nil, err
	}
	return b.finish(res)
}
