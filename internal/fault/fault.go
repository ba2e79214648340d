// Package fault is the seeded, deterministic fault-injection layer.
//
// The paper's framework is explicit that its telemetry is imperfect — the
// lossy non-blocking ZeroMQ publish behind OpenMC's zero-report artifact,
// RAPL counters that wrap, msr-safe accesses that occasionally fail — and
// an NRM must keep enforcing its power budget on a progress signal that
// can go silent, stale, or noisy. This package makes those disturbances
// injectable on demand so the consumers (progress monitor, NRM, cluster
// manager, RAPL readers) can be hardened and regression-tested against
// every one of them.
//
// A Plan declares fault classes and rates; an Injector derives one
// independent seeded RNG stream per fault class (via simtime.RNG.Split),
// so runs are exactly reproducible given (plan, seed) and — critically —
// a disabled fault class draws no random numbers and perturbs nothing:
// with an all-zero Plan, every trace is byte-identical to a run with no
// injector installed.
//
// Fault classes and their injection surfaces:
//
//   - PubSubPlan  — progress-report transport faults (drop / delay /
//     duplicate / blackout), intercepted between the Reporter and the
//     in-process Bus by the engine; delayed messages re-enter later,
//     which also produces reordering.
//   - MSRPlan     — stale reads, transient EIO, and an energy-counter
//     seed just below the 32-bit wrap, through msr.Device's fault hook.
//   - CounterPlan — TOT_INS/L3_TCM read glitches and overflow offsets,
//     through counters.Bank's read hook.
//   - NodePlan    — node crash and slowdown mid-job, consumed by the
//     cluster manager.
package fault

import (
	"time"

	"progresscap/internal/simtime"
)

// Window is a half-open interval [From, To) of virtual time.
type Window struct {
	From, To time.Duration
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Duration) bool { return t >= w.From && t < w.To }

// PubSubPlan injects progress-transport faults.
type PubSubPlan struct {
	// DropRate is the per-publish probability of silently losing the
	// report (the ZeroMQ lossy-publish artifact, dialed up).
	DropRate float64
	// DelayRate is the per-publish probability of delaying the report by
	// up to MaxDelay; delayed reports re-enter out of order relative to
	// later publishes, so this also injects reordering.
	DelayRate float64
	// MaxDelay bounds injected delays (default 200 ms).
	MaxDelay time.Duration
	// DupRate is the per-publish probability of delivering the report
	// twice (at-least-once transports re-deliver on retry).
	DupRate float64
	// Blackouts are windows during which every publish is dropped — the
	// total-silence scenario the NRM's degraded mode must ride through.
	Blackouts []Window
}

// Enabled reports whether the plan can perturb anything.
func (p PubSubPlan) Enabled() bool {
	return p.DropRate > 0 || p.DelayRate > 0 || p.DupRate > 0 || len(p.Blackouts) > 0
}

// MSRPlan injects model-specific-register access faults.
type MSRPlan struct {
	// StaleReadRate is the per-read probability of serving the previous
	// read's value instead of the current one.
	StaleReadRate float64
	// ReadEIORate / WriteEIORate are per-access probabilities of a
	// transient EIO (msr.ErrIO).
	ReadEIORate  float64
	WriteEIORate float64
	// EnergyWrapRaw, when nonzero, seeds the RAPL energy counters at the
	// given raw value so they wrap 32 bits early in the run — consumers
	// must use wraparound-safe deltas, not cumulative-from-zero reads.
	EnergyWrapRaw uint64
}

// Enabled reports whether the plan can perturb anything.
func (p MSRPlan) Enabled() bool {
	return p.StaleReadRate > 0 || p.ReadEIORate > 0 || p.WriteEIORate > 0 || p.EnergyWrapRaw != 0
}

// CounterPlan injects hardware-event-counter observation faults.
type CounterPlan struct {
	// GlitchRate is the per-read probability of a glitched observation:
	// alternately a spike (value × GlitchScale) and a backwards jump
	// (value / 2), both of which real PMU reads exhibit under counter
	// multiplexing bugs.
	GlitchRate float64
	// GlitchScale is the spike multiplier (default 1024).
	GlitchScale float64
	// OverflowOffset, when nonzero, is added to every observed value so
	// the 64-bit counter image wraps mid-run; modular deltas survive it,
	// naive ones explode.
	OverflowOffset uint64
}

// Enabled reports whether the plan can perturb anything.
func (p CounterPlan) Enabled() bool { return p.GlitchRate > 0 || p.OverflowOffset != 0 }

// NodePlan injects whole-node faults, consumed by the cluster manager.
type NodePlan struct {
	// CrashAt, when positive, stops the node dead at that virtual time:
	// its engine is no longer advanced and its progress stream goes
	// silent (the job manager must detect and fence it).
	CrashAt time.Duration
	// RecoverAt, when positive, revives a crashed node at that virtual
	// time (a reboot): its engine advances and reports again, and the
	// job manager may un-fence it after a clean probation. Zero means
	// the crash is permanent.
	RecoverAt time.Duration
	// SlowAt, when positive, throttles the node from that time on.
	SlowAt time.Duration
	// SlowFactor is the fraction of the node's maximum frequency the
	// slowdown leaves available (e.g. 0.5), a thermally-throttled or
	// degraded part.
	SlowFactor float64
}

// Plan is a complete fault-injection configuration for one run.
// The zero value injects nothing.
type Plan struct {
	// Seed drives every fault decision (default 1). Distinct fault
	// classes use independent Split streams, so enabling one class never
	// shifts another's decisions.
	Seed     uint64
	PubSub   PubSubPlan
	MSR      MSRPlan
	Counters CounterPlan
	// Powercap injects sysfs powercap-backend faults (see powercap.go).
	// It is a pointer with omitempty so the canonical serialization of
	// every pre-existing plan — and therefore every scenario hash, cache
	// key, and corpus entry — is unchanged when no powercap faults are
	// declared.
	Powercap *PowercapPlan `json:",omitempty"`
	// Nodes maps cluster node names to their fault plans.
	Nodes map[string]NodePlan
	// Partitions cut links between named actors (nodes and managers)
	// for windows of virtual time, consumed by the leased cluster's
	// message plane.
	Partitions []Partition
	// Managers maps job-manager names to their process fault plans
	// (kill, pause/resume), consumed by the replicated manager.
	Managers map[string]ManagerPlan
}

// Enabled reports whether the plan injects anything at all. A zero Plan
// (modulo Seed) is disabled and behaves exactly like running faultless.
func (p Plan) Enabled() bool {
	return p.PubSub.Enabled() || p.MSR.Enabled() || p.Counters.Enabled() ||
		(p.Powercap != nil && p.Powercap.Enabled()) ||
		len(p.Nodes) > 0 || len(p.Partitions) > 0 || len(p.Managers) > 0
}

// Injector instantiates a Plan's per-class fault generators.
type Injector struct {
	// plan is construction configuration. nodes, links and managers serve
	// the cluster layer: their split RNGs never advance during an engine
	// run, so a checkpoint leaves them out.
	plan     Plan `snap:"-"`
	pubsub   *PubSub
	msr      *MSR
	counters *Counters
	powercap *Powercap
	nodes    map[string]*Node    `snap:"-"`
	links    *Links              `snap:"-"`
	managers map[string]*Manager `snap:"-"`
}

// NewInjector returns an injector for the plan.
func NewInjector(plan Plan) *Injector {
	if plan.Seed == 0 {
		plan.Seed = 1
	}
	root := simtime.NewRNG(plan.Seed)
	var pcPlan PowercapPlan
	if plan.Powercap != nil {
		pcPlan = *plan.Powercap
	}
	inj := &Injector{
		plan:     plan,
		pubsub:   newPubSub(plan.PubSub, root.Split(1)),
		msr:      newMSR(plan.MSR, root.Split(2)),
		counters: newCounters(plan.Counters, root.Split(3)),
		powercap: newPowercap(pcPlan, root.Split(4)),
		nodes:    make(map[string]*Node, len(plan.Nodes)),
		links:    newLinks(plan.Partitions),
		managers: make(map[string]*Manager, len(plan.Managers)),
	}
	for name, np := range plan.Nodes {
		inj.nodes[name] = &Node{plan: np}
	}
	for name, mp := range plan.Managers {
		inj.managers[name] = &Manager{plan: mp}
	}
	return inj
}

// Plan returns the injector's plan.
func (i *Injector) Plan() Plan { return i.plan }

// PubSub returns the transport fault generator.
func (i *Injector) PubSub() *PubSub { return i.pubsub }

// MSR returns the MSR fault generator.
func (i *Injector) MSR() *MSR { return i.msr }

// Counters returns the counter fault generator.
func (i *Injector) Counters() *Counters { return i.counters }

// Powercap returns the sysfs powercap-backend fault generator.
func (i *Injector) Powercap() *Powercap { return i.powercap }

// Node returns the named node's fault generator, or nil when the plan
// has none for it.
func (i *Injector) Node(name string) *Node { return i.nodes[name] }

// Links returns the partition-schedule reachability oracle.
func (i *Injector) Links() *Links { return i.links }

// Manager returns the named job manager's fault generator, or nil when
// the plan has none for it.
func (i *Injector) Manager(name string) *Manager { return i.managers[name] }
