// Package engine runs the co-simulation: one or more workloads executing
// on the simulated node, the RAPL controller enforcing whatever cap the
// policy daemon programs, and the progress pipeline (reporter → pub/sub →
// monitor) aggregating online performance once per second — the complete
// setup of the paper's experiments (§IV-B, §V).
//
// Time is virtual and advances event to event. Between consecutive
// "interesting" instants — the next RAPL control-period boundary, window
// edge, policy epoch, scheduled callback, fault due-time, deadman expiry,
// or workload composition boundary — nothing observable can change, so
// the engine advances all jobs in one closed-form macro-step (work
// consumed = effHz × Δt per the same T(f) = C/f + M model the old
// per-tick path integrated) and integrates power at the event instant.
// The jobs themselves consume (workload progress, counter retirement)
// only where that output is needed: at a workload boundary, at a window
// edge, in Finish, and — at the operating point they ran at — just before
// the operating point changes. In between, the engine reuses the cached
// stretch composition, so a control period that leaves the P-state, duty
// cycle and bandwidth grant alone costs one Observe and one Control. At
// each event: completed iterations are published as progress reports,
// the RAPL controller re-actuates on its period, the policy daemon
// re-evaluates on its interval, and the monitors flush once per
// aggregation window. Config.FixedTick selects a reference mode that
// walks the clock at most one Tick (default 100 µs) per internal step,
// re-deriving the event horizon each tick. It shares the flush rule, so
// its output is byte-identical; it is the differential-testing oracle.
//
// A single engine can host several workloads on disjoint core ranges
// (the URBAN-style composite setup) and can be advanced incrementally
// with Advance — which is how the cluster-level power manager interleaves
// many nodes under one job budget.
package engine

import (
	"fmt"
	"strings"
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
	"progresscap/internal/simtime"
	"progresscap/internal/trace"
	"progresscap/internal/workload"
)

// Config assembles the simulated node.
type Config struct {
	CPU    cpu.Config
	Power  power.Model
	RAPL   rapl.Options
	Tick   time.Duration // simulation step; default 100 µs
	Window time.Duration // progress aggregation window; default 1 s
	Seed   uint64
	// FixedTick selects the reference integration mode: the clock walks
	// at most one Tick per internal step and the event horizon is
	// re-derived every tick instead of jumped to. All observable state
	// still mutates only at event instants, so results are byte-identical
	// to the default macro-stepping mode; the flag exists as the
	// differential-testing oracle and costs roughly the pre-event-driven
	// engine's runtime.
	FixedTick bool
}

// DefaultConfig returns the paper's node: 24 cores, default power model,
// 1 ms RAPL control, 1 s aggregation.
func DefaultConfig() Config {
	return Config{
		CPU:    cpu.DefaultConfig(),
		Power:  power.DefaultModel(),
		RAPL:   rapl.DefaultOptions(),
		Tick:   100 * time.Microsecond,
		Window: time.Second,
		Seed:   1,
	}
}

func (c *Config) fillDefaults() {
	if c.Tick == 0 {
		c.Tick = 100 * time.Microsecond
	}
	if c.Window == 0 {
		c.Window = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

func (c Config) validate() error {
	if c.Tick <= 0 || c.Window <= 0 {
		return fmt.Errorf("engine: non-positive tick/window")
	}
	if c.Tick > c.RAPL.ControlPeriod {
		return fmt.Errorf("engine: tick %v exceeds RAPL control period %v", c.Tick, c.RAPL.ControlPeriod)
	}
	if c.RAPL.ControlPeriod > c.Window {
		return fmt.Errorf("engine: RAPL period %v exceeds aggregation window %v", c.RAPL.ControlPeriod, c.Window)
	}
	// The fixed-tick oracle locates events by walking the tick grid; a
	// tick that does not evenly divide the control period or the window
	// would let the grid drift across those boundaries, silently breaking
	// macro-step/fixed-tick equivalence. Rejecting the configuration is
	// cheaper than documenting a rounding rule nobody relies on.
	if c.RAPL.ControlPeriod%c.Tick != 0 {
		return fmt.Errorf("engine: tick %v does not evenly divide RAPL control period %v", c.Tick, c.RAPL.ControlPeriod)
	}
	if c.Window%c.Tick != 0 {
		return fmt.Errorf("engine: tick %v does not evenly divide aggregation window %v", c.Tick, c.Window)
	}
	return nil
}

// JobResult is the per-workload outcome of a run.
//
// A checkpoint carries the fields filled during the run; the ones tagged
// `snap:"-"` come from construction or are derived from the executor at
// Finish.
type JobResult struct {
	Workload  string `snap:"-"`
	Metric    string `snap:"-"`
	Completed bool   `snap:"-"`
	Samples   []progress.Sample
	RateTrace *trace.Series
	WorkUnits float64
	// RankLoads is each rank's cumulative work/spin/sleep accounting
	// (the per-processing-element progress view).
	RankLoads []workload.RankLoad `snap:"-"`
}

// Imbalance returns the job's mean barrier-spin share of busy time.
func (j *JobResult) Imbalance() float64 {
	return workload.ImbalanceIndex(j.RankLoads)
}

// MeanRate returns the mean per-window online performance of this job.
func (j *JobResult) MeanRate() float64 {
	if len(j.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range j.Samples {
		sum += s.Rate
	}
	return sum / float64(len(j.Samples))
}

// Rates returns the per-window rates of this job.
func (j *JobResult) Rates() []float64 {
	out := make([]float64, len(j.Samples))
	for i, s := range j.Samples {
		out[i] = s.Rate
	}
	return out
}

// Result is everything an experiment needs from one run. The top-level
// progress fields describe the engine's first (primary) workload; Jobs
// holds every workload's stream for composite setups.
//
// A checkpoint carries the node traces and WorkUnits, which fill during
// the run. The fields tagged `snap:"-"` are construction configuration,
// are derived at Finish, or alias the jobs' and daemon's own state, so
// Resume rebuilds them as start() does.
type Result struct {
	Workload  string        `snap:"-"`
	Elapsed   time.Duration `snap:"-"`
	Completed bool          `snap:"-"` // every workload ran to completion (vs hit the time limit)

	// Samples are the primary workload's per-window observations.
	Samples []progress.Sample `snap:"-"`

	// Per-window node traces.
	PowerTrace *trace.Series // average package power (W)
	CoreTrace  *trace.Series // instantaneous core-component power (W)
	FreqTrace  *trace.Series // P-state frequency (MHz)
	DutyTrace  *trace.Series // DDCM duty cycle
	BWTrace    *trace.Series // uncore bandwidth grant
	RateTrace  *trace.Series `snap:"-"` // primary online performance (metric units/s)
	CapTrace   *trace.Series `snap:"-"` // applied cap (W; 0 = uncapped), nil without a daemon

	EnergyJ     float64          `snap:"-"`
	DRAMEnergyJ float64          `snap:"-"` // the separate DRAM RAPL domain
	Counters    counters.Reading `snap:"-"`
	Dropped     uint64           `snap:"-"` // progress reports lost in the pub/sub layer
	// DropsByTopic attributes pub/sub losses to the progress stream that
	// suffered them (topic = "progress.<app>").
	DropsByTopic map[string]uint64 `snap:"-"`

	// WorkUnits is the total application-defined work executed across
	// all workloads (the paper's Definition 2, Table I).
	WorkUnits float64

	// Jobs holds one entry per workload, in the order given to New.
	Jobs []*JobResult `snap:"-"`
}

// MeanRate returns the primary workload's mean per-window online
// performance.
func (r *Result) MeanRate() float64 {
	if len(r.Jobs) == 0 {
		return 0
	}
	return r.Jobs[0].MeanRate()
}

// Rates returns the primary workload's per-window rates.
func (r *Result) Rates() []float64 {
	if len(r.Jobs) == 0 {
		return nil
	}
	return r.Jobs[0].Rates()
}

// WindowStats is the per-aggregation-window snapshot passed to the
// window hook.
type WindowStats struct {
	At      time.Duration
	Sample  progress.Sample // primary workload's sample
	PkgW    float64
	FreqMHz float64
	Duty    float64
	BWScale float64
	CapW    float64 // 0 when uncapped or no daemon installed
}

type job struct {
	exec     *workload.Exec
	reporter *progress.Reporter
	monitor  *progress.Monitor
	sub      *pubsub.Subscription
	// dec is a string-interning cache; rebuilding it changes nothing
	// observable.
	dec *progress.Decoder `snap:"-"`
	res *JobResult
}

// spanCache is every job's Span folded at one operating point. Span is
// pure between ConsumeTo calls, so the fold stays exact until a job
// consumes or the operating point changes; in between, refolding would
// recompute the same values. Every job has consumed up to each window
// edge, so a checkpoint never needs the cache.
type spanCache struct {
	valid            bool
	effHz, memFactor float64 // the operating point of the fold
	engaged          int
	activity, bwUtil float64
	next             time.Duration // earliest workload boundary, if hasNext
	hasNext          bool
}

// Engine is one assembled simulation.
type Engine struct {
	// cfg is construction configuration; a resumed engine is built from
	// the same Config.
	cfg   Config `snap:"-"`
	clock *simtime.Clock
	// sched is empty at any checkpoint: Checkpoint refuses pending
	// callbacks, which are closures and cannot be deep-copied.
	sched  *simtime.Scheduler `snap:"-"`
	dev    *msr.Device
	domain *cpu.Domain
	uncore *cpu.Uncore
	meter  *power.Meter
	ctl    *rapl.Controller
	bank   *counters.Bank
	bus    *pubsub.Bus
	jobs   []*job

	daemon *policy.Daemon

	raplTicker   *simtime.Ticker
	windowTicker *simtime.Ticker
	policyTicker *simtime.Ticker

	events  *counters.EventSet
	started bool
	// finished is false at any checkpoint: Checkpoint refuses finished
	// engines and Resume used ones.
	finished bool `snap:"-"`
	res      *Result

	lastFlush  time.Duration
	energyMark float64

	// obsAnchor is the instant the engine has integrated power up to: the
	// start of the current stretch. Power observation flushes from it to
	// each event instant; it always equals the clock at event boundaries
	// (in fixed-tick mode the clock walks ahead of it between events
	// without mutating anything).
	obsAnchor time.Duration

	// span caches the folded workload composition of the current stretch.
	// Every job has consumed up to the window edge a checkpoint sits on,
	// so a resumed engine refolds the same values.
	span spanCache `snap:"-"`

	// Payload recycling: progress-report buffers flow Reporter.Publish →
	// bus → job subscription → flushWindow, where — once decoded — the
	// buffer's lifetime provably ends and it returns to payloadFree for the
	// next Publish. recycle is latched at start() and permanently cleared
	// the moment any condition fails (fault layer installed, an external
	// bus subscriber, or overlapping job topics), because a recycled buffer
	// some other party still references would be silent corruption.
	// topicsDisjoint is derived from the workload names at construction;
	// payloadFree affects allocation only, never results.
	recycle        bool
	topicsDisjoint bool     `snap:"-"`
	payloadFree    [][]byte `snap:"-"`

	// reserved notes that trace series and sample slices were pre-sized
	// from the first Advance's horizon.
	reserved bool

	// windowHook is a closure; Checkpoint refuses engines that have one.
	windowHook func(WindowStats) `snap:"-"`

	// Fault injection (nil in a clean run; every consultation is a single
	// nil-check, so an uninstalled layer costs nothing and perturbs
	// nothing). pubFaults is a view of faults that SetFaults installs.
	faults    *fault.Injector
	pubFaults *fault.PubSub `snap:"-"`

	// Invariant checker (nil unless EnableInvariants was called).
	inv *invariantChecker
}

type busPublisher struct{ e *Engine }

func (p busPublisher) PublishPayload(topic string, payload []byte) int {
	m := pubsub.Message{Topic: topic, Payload: payload}
	if f := p.e.pubFaults; f != nil {
		delivered := 0
		for _, fm := range f.Intercept(p.e.clock.Now(), m) {
			delivered += p.e.bus.Publish(fm)
		}
		return delivered
	}
	return p.e.bus.Publish(m)
}

// AcquirePayload implements progress.BufferSource: it hands the Reporter a
// recycled payload buffer when recycling is active, or a fresh allocation
// otherwise. See Engine.recycle for the safety conditions.
func (p busPublisher) AcquirePayload(n int) []byte {
	e := p.e
	if e.recycle {
		if k := len(e.payloadFree); k > 0 {
			buf := e.payloadFree[k-1]
			e.payloadFree = e.payloadFree[:k-1]
			if cap(buf) >= n {
				return buf[:0]
			}
		}
	}
	return make([]byte, 0, n)
}

// New assembles an engine for one workload.
func New(cfg Config, w *workload.Workload) (*Engine, error) {
	return NewMulti(cfg, w)
}

// NewMulti assembles an engine hosting several workloads on disjoint
// core ranges, assigned in order from core 0. The first workload is the
// primary one reflected in Result's top-level progress fields.
func NewMulti(cfg Config, ws ...*workload.Workload) (*Engine, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("engine: no workloads")
	}
	totalRanks := 0
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			return nil, err
		}
		totalRanks += w.Ranks
	}
	if totalRanks > cfg.CPU.Cores {
		return nil, fmt.Errorf("engine: workloads need %d ranks but node has %d cores", totalRanks, cfg.CPU.Cores)
	}
	domain, err := cpu.NewDomain(cfg.CPU)
	if err != nil {
		return nil, err
	}
	dev := msr.NewDevice(cfg.CPU.Cores, nil)
	uncore := cpu.NewUncore()
	meter := power.NewMeter(cfg.Power, 0.010) // 10 ms RAPL averaging window
	ctl, err := rapl.New(dev, domain, uncore, cfg.Power, meter, cfg.RAPL)
	if err != nil {
		return nil, err
	}
	bank := counters.NewBank(cfg.CPU.Cores)
	bus := pubsub.NewBus()

	clock := simtime.NewClock(0)
	e := &Engine{
		cfg:    cfg,
		clock:  clock,
		sched:  simtime.NewScheduler(clock),
		dev:    dev,
		domain: domain,
		uncore: uncore,
		meter:  meter,
		ctl:    ctl,
		bank:   bank,
		bus:    bus,
		events: counters.NewEventSet(bank, counters.TotIns, counters.TotCyc, counters.L3TCM, counters.StallCyc),
	}
	offset := 0
	for i, w := range ws {
		exec, err := workload.NewExecOffset(w, bank, cfg.Seed+uint64(i)*7919, offset)
		if err != nil {
			return nil, err
		}
		offset += w.Ranks
		e.jobs = append(e.jobs, &job{
			exec:     exec,
			reporter: progress.NewReporter(w.Name, busPublisher{e}),
			monitor:  progress.NewMonitor(cfg.Window),
			sub:      bus.Subscribe(progress.Topic(w.Name), 1024),
			dec:      progress.NewDecoder(),
			res: &JobResult{
				Workload:  w.Name,
				Metric:    w.Metric,
				RateTrace: trace.NewSeries("progress.rate."+w.Name, w.Metric),
			},
		})
	}
	// Payload recycling requires each report to reach exactly one
	// subscription: with one prefix-subscription per job, that holds iff no
	// job's topic is a prefix of another's (equal names included).
	e.topicsDisjoint = true
	for i := range ws {
		for k := range ws {
			if i == k {
				continue
			}
			if strings.HasPrefix(progress.Topic(ws[i].Name), progress.Topic(ws[k].Name)) {
				e.topicsDisjoint = false
			}
		}
	}
	e.raplTicker = simtime.NewTicker(0, cfg.RAPL.ControlPeriod)
	e.windowTicker = simtime.NewTicker(0, cfg.Window)
	return e, nil
}

// Device exposes the MSR interface, the only control surface policy code
// may use.
func (e *Engine) Device() *msr.Device { return e.dev }

// MaxFreqMHz returns the node's maximum all-core turbo frequency.
func (e *Engine) MaxFreqMHz() float64 { return e.cfg.CPU.MaxMHz }

// Clock returns the engine's virtual clock.
func (e *Engine) Clock() *simtime.Clock { return e.clock }

// Scheduler returns the engine's event scheduler. Callbacks scheduled on
// it run on the engine goroutine during Advance, at exactly their
// scheduled virtual instant (the instant becomes part of the event
// horizon, so a macro-step never strides past it); at one instant they
// fire before RAPL control, the policy daemon, and the window flush.
// Experiments use it to inject mid-run actuations — a cap schedule, a
// manual DVFS change — without tick-polling.
func (e *Engine) Scheduler() *simtime.Scheduler { return e.sched }

// Controller returns the RAPL controller (for manual-mode experiments).
func (e *Engine) Controller() *rapl.Controller { return e.ctl }

// Monitor returns the primary workload's progress monitor.
func (e *Engine) Monitor() *progress.Monitor { return e.jobs[0].monitor }

// Bus returns the engine's pub/sub broker, so external subscribers (e.g.
// a TCP bridge) can tap the progress stream.
func (e *Engine) Bus() *pubsub.Bus { return e.bus }

// Done reports whether every workload has completed.
func (e *Engine) Done() bool {
	for _, j := range e.jobs {
		if !j.exec.Done() {
			return false
		}
	}
	return true
}

// SetWindowHook registers a callback invoked after every aggregation
// window, for live streaming of progress and telemetry. Call before the
// first Advance.
func (e *Engine) SetWindowHook(fn func(WindowStats)) { e.windowHook = fn }

// SetScheme installs a power-policy daemon applying the scheme once per
// second through the node's registers, as the paper's tool does. Call
// before the first Advance.
func (e *Engine) SetScheme(s policy.Scheme) error {
	return e.SetSchemeVia(s, rapl.Writer{Dev: e.dev})
}

// SetSchemeVia is SetScheme actuating through an explicit CapWriter
// (e.g. rapl.Writer over the hardened rapl.Actuator, which may drive
// the sysfs powercap backend instead of raw registers). Call before the
// first Advance.
func (e *Engine) SetSchemeVia(s policy.Scheme, w policy.CapWriter) error {
	d, err := policy.NewDaemon(w, s, time.Second, 10*time.Millisecond)
	if err != nil {
		return err
	}
	e.daemon = d
	e.policyTicker = simtime.NewTicker(0, d.Interval())
	return nil
}

// SetFaults installs (or, with nil, removes) a fault-injection layer:
// progress publishes route through its transport injector, MSR and
// counter reads through its hooks, and — when the plan asks for an early
// energy wraparound — the RAPL counter is re-seeded. Call before the
// first Advance and before constructing policy layers (such as an NRM)
// that prime energy readers against the device.
func (e *Engine) SetFaults(inj *fault.Injector) {
	e.faults = inj
	if inj == nil {
		e.pubFaults = nil
		e.dev.SetFaultHook(nil)
		e.bank.SetReadHook(nil)
		return
	}
	e.pubFaults = nil
	if inj.PubSub().Enabled() {
		e.pubFaults = inj.PubSub()
	}
	e.dev.SetFaultHook(inj.MSR().Hook())
	e.bank.SetReadHook(inj.Counters().Hook())
	if raw := inj.MSR().EnergyWrapRaw(); raw != 0 {
		e.ctl.SeedEnergy(raw)
	}
}

// Faults returns the installed fault injector (nil in a clean run).
func (e *Engine) Faults() *fault.Injector { return e.faults }

// SetDeadman arms the RAPL cap deadman: the policy side must re-write
// PKG_POWER_LIMIT within the TTL or the package reverts to the
// firmware-default cap. This is the hardware-side backstop that keeps a
// crashed policy daemon from stranding the node at a stale cap. Call
// before the first Advance.
func (e *Engine) SetDeadman(dm rapl.Deadman) error { return e.ctl.SetDeadman(dm) }

// SetFreqCeiling imposes (or, with 0, clears) a hardware frequency
// ceiling on the node — the cluster layer's surface for injecting a
// thermally throttled node. RAPL and DVFS keep actuating, but no grant
// exceeds the ceiling.
func (e *Engine) SetFreqCeiling(mhz float64) { e.domain.SetCeilingMHz(mhz) }

// SetManualDVFS pins the package at the given frequency and disables RAPL
// actuation — the direct-DVFS power-limiting technique of Fig 5.
func (e *Engine) SetManualDVFS(mhz float64) {
	e.ctl.SetManual(true)
	e.domain.SetTargetMHz(mhz)
	e.domain.SetDuty(1)
	e.uncore.SetBWScale(1)
}

// SetManualDDCM pins the package at maximum frequency with the given
// duty cycle and disables RAPL actuation — the dynamic duty cycle
// modulation technique (§II lists DDCM among the NRM's control knobs).
// The duty cycle is quantized to the hardware's 1/16 steps.
func (e *Engine) SetManualDDCM(duty float64) {
	e.ctl.SetManual(true)
	e.domain.SetTargetMHz(e.cfg.CPU.MaxMHz)
	e.domain.SetDuty(float64(int(duty*16)) / 16)
	e.uncore.SetBWScale(1)
}

// newResult returns the run's result, wired to the jobs' own results.
func (e *Engine) newResult() *Result {
	res := &Result{
		Workload:   e.jobs[0].res.Workload,
		PowerTrace: trace.NewSeries("power.pkg", "W"),
		CoreTrace:  trace.NewSeries("power.core", "W"),
		FreqTrace:  trace.NewSeries("cpu.freq", "MHz"),
		DutyTrace:  trace.NewSeries("cpu.duty", ""),
		BWTrace:    trace.NewSeries("uncore.bwscale", ""),
	}
	for _, j := range e.jobs {
		res.Jobs = append(res.Jobs, j.res)
	}
	return res
}

// start lazily initializes run state before the first tick.
func (e *Engine) start() error {
	if e.started {
		return nil
	}
	e.started = true
	e.res = e.newResult()
	e.events.Start(0)
	// Latch the payload-recycling decision: every party that could extend
	// a payload's lifetime (fault layer, external subscribers) is installed
	// before the first Advance per the Set* contracts, so the conditions
	// are stable from here — and flushWindow re-checks them anyway, turning
	// recycling off for good if one is violated mid-run.
	e.recycle = e.topicsDisjoint && e.pubFaults == nil &&
		e.bus.NumSubscribers() == len(e.jobs)
	// Apply the policy once at t=0 so the first window runs under it.
	if e.daemon != nil {
		if err := e.daemon.Apply(0); err != nil {
			return err
		}
	}
	e.ctl.Control()
	return nil
}

// Advance runs the simulation for up to d more virtual time, stopping
// early when every workload completes. It reports whether the engine is
// done. Advance may be called repeatedly; call Finish to collect the
// result.
//
// Shard-safety contract: an Engine is fully self-contained — its
// device, bus, monitor, fault injector, and RNG are all per-instance,
// and the package keeps no mutable global state — so DISTINCT engines
// may Advance concurrently with bit-identical results at any schedule
// (the cluster shard pool depends on this; TestEnginesShardSafe pins
// it). A single Engine is not goroutine-safe: never call Advance (or
// any other method) on the same instance from two goroutines.
func (e *Engine) Advance(d time.Duration) (bool, error) {
	if e.finished {
		return true, fmt.Errorf("engine: Advance after Finish")
	}
	if d <= 0 {
		return e.Done(), fmt.Errorf("engine: non-positive duration %v", d)
	}
	if err := e.start(); err != nil {
		return false, err
	}

	limit := e.clock.Now() + d
	tick := e.cfg.Tick
	cores := e.cfg.CPU.Cores

	// Pre-size per-window storage from the first horizon: Run-style
	// callers advance once over the whole duration, so this sizes every
	// trace and sample slice exactly; incremental callers just fall back
	// to append growth.
	if !e.reserved {
		e.reserved = true
		e.reserve(int(limit/e.cfg.Window) + 2)
	}

	// Hoist loop-invariant interfaces and nil-checks out of the loop.
	// A nil fault layer or absent policy daemon must cost nothing per step.
	pubFaults := e.pubFaults
	policyTicker := e.policyTicker
	daemon := e.daemon
	done := e.Done()

	// Fire anything scheduled at exactly the current instant before
	// computing the first horizon, so every horizon below is strictly in
	// the future.
	e.sched.RunDue(e.clock.Now())

	for !done && e.clock.Now() < limit {
		now := e.clock.Now()

		// 1. Stretch composition at the current operating point, refolded
		// only when the cache is stale. An operating-point change first
		// brings the jobs up to now at the point they ran at, so every
		// ConsumeTo covers a stretch of one constant point. Both modes see
		// the same changes at the same instants: state mutates only at
		// events.
		effHz := e.domain.EffectiveMHz() * 1e6
		memFactor := e.uncore.MemTimeFactor()
		sp := &e.span
		if sp.valid && (effHz != sp.effHz || memFactor != sp.memFactor) {
			if e.consume(now, sp.effHz, sp.memFactor) {
				if done = e.Done(); done {
					break
				}
			}
		}
		if !sp.valid {
			e.foldSpan(effHz, memFactor)
		}
		state := power.NodeState{
			EngagedCores: sp.engaged,
			IdleCores:    cores - sp.engaged,
			FreqMHz:      e.domain.CurrentMHz(),
			Duty:         e.domain.Duty(),
			Activity:     sp.activity,
			BWUtil:       sp.bwUtil,
			BWScale:      e.uncore.BWScale(),
		}

		// 2. Event horizon: the earliest instant anything observable can
		// change. A quiescent RAPL controller (uncapped at its fixed point,
		// or manual) contributes no control boundaries — the dominant win
		// for uncapped baselines; its skipped fires were no-ops, so on
		// leaving quiescence the ticker catches up without replaying them.
		raplQuiet := e.ctl.Quiescent()
		if !raplQuiet && e.raplTicker.Next() <= now {
			e.raplTicker.CatchUp(now)
		}
		h := limit
		if sp.hasNext && sp.next < h {
			h = sp.next
		}
		if !raplQuiet && e.raplTicker.Next() < h {
			h = e.raplTicker.Next()
		}
		if e.windowTicker.Next() < h {
			h = e.windowTicker.Next()
		}
		if policyTicker != nil && policyTicker.Next() < h {
			h = policyTicker.Next()
		}
		if at, ok := e.sched.NextAt(); ok && at < h {
			h = at
		}
		if pubFaults != nil {
			if at, ok := pubFaults.NextDueAt(); ok && at < h {
				h = at
			}
		}
		if rem, ok := e.ctl.DeadmanRemaining(); ok {
			if dl := e.obsAnchor + rem; dl < h {
				h = dl
			}
		}
		if h <= now {
			// Defensive only: every source above is strictly future once
			// due events are consumed. Never stall the clock.
			h = now + tick
		}
		te := h

		// 3. Fixed-tick oracle: walk at most one tick. A hop that falls
		// short of the horizon changes nothing observable and skips the
		// flush entirely, so state mutates at exactly the instants the
		// macro path visits.
		if e.cfg.FixedTick {
			if nt := now - now%tick + tick; nt < te {
				e.clock.AdvanceTo(nt)
				continue
			}
		}

		// 4. Flush the stretch [obsAnchor, te]: fault-delayed reports come
		// due and the controller integrates power and demand over it. The
		// workloads consume only where their output is needed: at a
		// workload boundary, where iterations complete, and at a window
		// edge, where the monitors drain and checkpoints are taken. At any
		// other event they stay anchored behind, their composition
		// unchanged.
		// The clock moves first: anything reading it during the flush (the
		// transport fault layer timestamps intercepted publishes with it)
		// must see te, which both modes visit, never the mode-dependent
		// previously visited instant.
		e.clock.AdvanceTo(te)
		completed := false
		if (sp.hasNext && te == sp.next) || e.windowTicker.Next() <= te {
			completed = e.consume(te, effHz, memFactor)
		}
		if pubFaults != nil {
			for _, m := range pubFaults.Due(te) {
				e.bus.Publish(m)
			}
		}
		if dt := te - e.obsAnchor; dt > 0 {
			e.ctl.Observe(state, dt)
			e.obsAnchor = te
		}

		// 5. Fire due events in the legacy per-tick order: scheduled
		// callbacks, RAPL control, policy daemon, window flush.
		e.sched.RunDue(te)
		if !raplQuiet {
			for e.raplTicker.FiredAt(te) {
				e.ctl.Control()
			}
		}
		if policyTicker != nil {
			for policyTicker.FiredAt(te) {
				if err := daemon.Apply(te); err != nil {
					return false, err
				}
			}
		}
		for e.windowTicker.FiredAt(te) {
			e.flushWindow(te)
		}

		// A workload can only transition to done at an event that
		// completed its final iteration, so the all-jobs scan runs only
		// then.
		if completed {
			done = e.Done()
		}
	}
	return done, nil
}

// consume advances every job to the instant to at the given operating
// point, publishes the iterations completed there, and invalidates the
// span cache. It reports whether any iteration completed.
func (e *Engine) consume(to time.Duration, effHz, memFactor float64) bool {
	e.span.valid = false
	completed := false
	for _, j := range e.jobs {
		if ev, ok := j.exec.ConsumeTo(to, effHz, memFactor); ok {
			completed = true
			j.reporter.Publish(ev.Phase, ev.Progress, ev.At)
			j.res.WorkUnits += ev.WorkUnits
			e.res.WorkUnits += ev.WorkUnits
		}
	}
	return completed
}

// foldSpan recomputes the span cache at the given operating point.
func (e *Engine) foldSpan(effHz, memFactor float64) {
	sp := spanCache{valid: true, effHz: effHz, memFactor: memFactor}
	var actSum float64
	for _, j := range e.jobs {
		s := j.exec.Span(effHz, memFactor)
		sp.engaged += s.Engaged
		actSum += s.ActivitySum
		sp.bwUtil += s.BWUtil
		if s.HasBoundary && (!sp.hasNext || s.Boundary < sp.next) {
			sp.next, sp.hasNext = s.Boundary, true
		}
	}
	if sp.engaged > 0 {
		sp.activity = actSum / float64(sp.engaged)
	}
	if sp.bwUtil > 1 {
		sp.bwUtil = 1
	}
	e.span = sp
}

// reserve pre-sizes every per-window trace and sample slice for nWin
// aggregation windows.
func (e *Engine) reserve(nWin int) {
	if nWin <= 0 {
		return
	}
	e.res.PowerTrace.Reserve(nWin)
	e.res.CoreTrace.Reserve(nWin)
	e.res.FreqTrace.Reserve(nWin)
	e.res.DutyTrace.Reserve(nWin)
	e.res.BWTrace.Reserve(nWin)
	for _, j := range e.jobs {
		j.res.RateTrace.Reserve(nWin)
		if cap(j.res.Samples) < nWin {
			s := make([]progress.Sample, len(j.res.Samples), nWin)
			copy(s, j.res.Samples)
			j.res.Samples = s
		}
	}
}

// Finish closes out the run and returns the collected result. The engine
// cannot be advanced afterwards.
func (e *Engine) Finish() (*Result, error) {
	if e.finished {
		return nil, fmt.Errorf("engine: Finish called twice")
	}
	if err := e.start(); err != nil {
		return nil, err
	}
	e.finished = true

	// Close out the final window, unless it is too short to carry a
	// meaningful rate (a few milliseconds holding one report would show
	// up as an enormous outlier).
	end := e.clock.Now()
	// Bring the jobs up to the end at the operating point they ran at, so
	// rank loads and counters cover the whole run.
	if e.span.valid {
		e.consume(end, e.span.effHz, e.span.memFactor)
	}
	if end-e.lastFlush >= e.cfg.Window/2 {
		e.flushWindow(end)
	}

	e.res.Elapsed = end
	e.res.Completed = e.Done()
	for _, j := range e.jobs {
		j.res.Completed = j.exec.Done()
		j.res.RankLoads = j.exec.RankLoads()
	}
	e.res.Samples = e.jobs[0].res.Samples
	e.res.RateTrace = e.jobs[0].res.RateTrace
	e.res.EnergyJ = e.meter.EnergyJ()
	e.res.DRAMEnergyJ = e.meter.DRAMEnergyJ()
	e.res.Counters = e.events.Stop(end)
	_, e.res.Dropped = e.bus.Stats()
	e.res.DropsByTopic = e.bus.TopicDrops()
	if e.daemon != nil {
		e.res.CapTrace = e.daemon.CapTrace()
	}
	return e.res, nil
}

// Run advances the simulation until every workload completes or maxDur
// of virtual time elapses, then returns the result. It is the one-shot
// form of Advance + Finish.
func (e *Engine) Run(maxDur time.Duration) (*Result, error) {
	if e.started {
		return nil, fmt.Errorf("engine: Run after a prior Run/Advance")
	}
	if maxDur <= 0 {
		return nil, fmt.Errorf("engine: non-positive duration %v", maxDur)
	}
	if _, err := e.Advance(maxDur); err != nil {
		return nil, err
	}
	return e.Finish()
}

// flushWindow drains pending progress reports into each job's monitor
// and records one point on every trace. A zero-length window (e.g. the
// workload finished exactly on a window boundary) is skipped.
func (e *Engine) flushWindow(now time.Duration) {
	winSec := (now - e.lastFlush).Seconds()
	if winSec <= 0 {
		return
	}
	// Re-check the recycling conditions: if a fault layer or an external
	// subscriber appeared mid-run, stop recycling for good (never
	// re-enable — a buffer handed to an outside party earlier must not be
	// reused while they may still hold it).
	if e.recycle && (e.pubFaults != nil || e.bus.NumSubscribers() != len(e.jobs)) {
		e.recycle = false
		e.payloadFree = nil
	}
	var primary progress.Sample
	for i, j := range e.jobs {
		for m, ok := j.sub.TryRecv(); ok; m, ok = j.sub.TryRecv() {
			rep, err := j.dec.Unmarshal(m.Payload)
			if err != nil {
				// A malformed report indicates an engine bug, not user error.
				panic(fmt.Sprintf("engine: bad progress payload: %v", err))
			}
			// The decoder interned every byte it needed; the payload's
			// lifetime ends here and the buffer can carry the next report.
			if e.recycle {
				e.payloadFree = append(e.payloadFree, m.Payload[:0])
			}
			j.monitor.Offer(rep)
		}
		s := j.monitor.Flush(now)
		j.res.Samples = append(j.res.Samples, s)
		j.res.RateTrace.Add(now, s.Rate)
		if i == 0 {
			primary = s
		}
	}

	// Window-average power from the energy integral.
	eNow := e.meter.EnergyJ()
	winAvgW := (eNow - e.energyMark) / winSec
	e.res.PowerTrace.Add(now, winAvgW)
	e.energyMark = eNow
	e.lastFlush = now

	if e.inv != nil {
		e.checkInvariants(now, winSec, winAvgW)
	}

	e.res.CoreTrace.Add(now, e.meter.Last().CoreW)
	e.res.FreqTrace.Add(now, e.domain.CurrentMHz())
	e.res.DutyTrace.Add(now, e.domain.Duty())
	e.res.BWTrace.Add(now, e.uncore.BWScale())

	if e.windowHook != nil {
		ws := WindowStats{
			At:      now,
			Sample:  primary,
			PkgW:    e.res.PowerTrace.At(e.res.PowerTrace.Len() - 1).V,
			FreqMHz: e.domain.CurrentMHz(),
			Duty:    e.domain.Duty(),
			BWScale: e.uncore.BWScale(),
		}
		if e.daemon != nil {
			if v, ok := e.daemon.CapTrace().ValueAt(now); ok {
				ws.CapW = v
			}
		}
		e.windowHook(ws)
	}
}
