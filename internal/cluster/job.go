package cluster

// The job skeleton both control planes share: the node set, the budget,
// the fault plans, the shard pool and the result, plus the one epoch
// loop. Each epoch runs
//
//	budget → control → sharded advance → feedback → progress metrics
//
// and only the control and feedback phases (and what a rebooting node's
// register comes back at) belong to a plane: the direct Manager writes
// caps straight into every node's MSR and watches the node monitors; the
// LeasedCluster runs a replicated manager pair that grants leases and
// listens to node telemetry.

import (
	"fmt"
	"time"

	"progresscap/internal/engine"
	"progresscap/internal/fault"
	"progresscap/internal/lease"
	"progresscap/internal/rapl"
	"progresscap/internal/stats"
	"progresscap/internal/trace"
)

// Watchdog thresholds, shared by both planes: a node silent for
// failureEpochs epochs in a row is fenced; a fenced node must then be
// heard for probationEpochs epochs in a row to be un-fenced. Without
// probation a flapping node would bounce in and out of the allocation
// every epoch, destabilizing every healthy node's cap.
const (
	failureEpochs   = 3
	probationEpochs = 3
)

// Node is one compute node under a job manager.
type Node struct {
	name     string
	eng      *engine.Engine
	lastPow  float64 // package power over the last monitor window
	capTrace *trace.Series
	result   *engine.Result
	// holder owns the node's cap under a leasing manager; nil under the
	// direct plane.
	holder *lease.Holder
}

// NewNode wraps an engine. The engine must not run its own policy
// daemon: the job manager that adopts the node owns its power limit.
func NewNode(name string, eng *engine.Engine) *Node {
	n := &Node{name: name, eng: eng}
	eng.SetWindowHook(func(ws engine.WindowStats) { n.lastPow = ws.PkgW })
	return n
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// CapTrace returns the cap applied on this node each epoch.
func (n *Node) CapTrace() *trace.Series { return n.capTrace }

// Result returns the node's engine result (after Finish).
func (n *Node) Result() *engine.Result { return n.result }

// Holder returns the node's lease state machine (nil unless a
// LeasedCluster adopted the node).
func (n *Node) Holder() *lease.Holder { return n.holder }

// Engine returns the node's plant.
func (n *Node) Engine() *engine.Engine { return n.eng }

// RegisterCapW decodes the cap currently latched in the node's RAPL
// register (0 = uncapped) — the ground truth the soak oracles check
// against the ledger and the budget.
func (n *Node) RegisterCapW() (float64, error) { return rapl.ReadLimit(n.eng.Device()) }

// writeCap programs the node's package power limit (0 = uncapped).
func (n *Node) writeCap(capW float64) error {
	return rapl.Writer{Dev: n.eng.Device()}.WriteCap(n.eng.Clock().Now(), capW, 10*time.Millisecond)
}

// observedRate is the node's online performance over its last monitor
// window, averaged with the window before to smooth single-window
// aliasing (0 before the first window).
func (n *Node) observedRate() float64 {
	samples := n.eng.Monitor().Samples()
	if len(samples) == 0 {
		return 0
	}
	rate := samples[len(samples)-1].Rate
	if len(samples) >= 2 {
		rate = (rate + samples[len(samples)-2].Rate) / 2
	}
	return rate
}

// Result is the job-level outcome.
type Result struct {
	Elapsed time.Duration
	// MinProgress and MeanProgress track the job's normalized progress
	// per epoch: the minimum across nodes (the bulk-synchronous job
	// rate) and the mean.
	MinProgress  *trace.Series
	MeanProgress *trace.Series
	BudgetTrace  *trace.Series
	TotalEnergyJ float64
	WorkUnits    float64
	Nodes        []*Node
	Completed    bool
	// Lease carries the distributed-safety counters of a LeasedCluster
	// run; nil under the direct plane.
	Lease *LeaseStats
}

// LeaseStats are the counters the partition experiments assert on.
type LeaseStats struct {
	// EnforcedTrace is Σ(latched register caps) over the nodes actually
	// running each epoch — the physically enforceable draw bound.
	EnforcedTrace *trace.Series
	// PeakOvershootW is the worst EnforcedTrace excursion above the
	// budget (0 when the safety invariant held everywhere, which it must).
	PeakOvershootW float64

	Failovers         int    // standby takeovers
	GrantsIssued      uint64 // leases journaled and charged
	FencedGrants      uint64 // grants a node rejected as stale (split-brain blocked)
	ExpiredOnArrival  uint64 // grants delivered after their own TTL
	UndeliveredGrants uint64 // grants eaten by a partition
	ExpiredReverts    uint64 // node deadman trips (revert to safe cap)
}

// MeanMinProgress averages the per-epoch minimum normalized progress —
// the headline number for comparing division policies on synchronous
// jobs.
func (r *Result) MeanMinProgress() float64 {
	vals := r.MinProgress.Values()
	// Skip the calibration epochs where baselines are still settling.
	if len(vals) > 4 {
		vals = vals[2:]
	}
	return stats.Mean(vals)
}

// controlPlane is what one job manager protocol adds to the skeleton.
type controlPlane interface {
	// control decides and applies this epoch's caps before the nodes
	// advance.
	control(budgetW float64, now time.Duration) error
	// reboot restores the register of a node whose crash window ends
	// within the epoch. It runs inside the node's shard, so it may touch
	// only that node.
	reboot(n *Node) error
	// feedback collects what the plane watches once the nodes have
	// advanced, and appends the normalized progress of every node it
	// counts toward the job metrics to norms.
	feedback(budgetW float64, end time.Duration, norms []float64) ([]float64, error)
}

// job is the skeleton both planes embed.
type job struct {
	nodes  []*Node
	budget BudgetFunc
	// budgetOverride, when >= 0, replaces budget from the next epoch on.
	budgetOverride float64
	faults         *fault.Injector
	// pool fans node advancement across shards each epoch (see shard.go).
	pool  shardPool
	plane controlPlane

	elapsed  time.Duration
	res      *Result
	finished bool
	norms    []float64 // feedback's scratch, reused every epoch
}

// newJob validates the node set and builds the result; series is the
// plane's trace-name prefix.
func newJob(budget BudgetFunc, series string, nodes []*Node) (job, error) {
	if budget == nil {
		return job{}, fmt.Errorf("cluster: nil budget")
	}
	if len(nodes) == 0 {
		return job{}, fmt.Errorf("cluster: no nodes")
	}
	seen := map[string]bool{}
	for _, n := range nodes {
		if n.name == "" || seen[n.name] {
			return job{}, fmt.Errorf("cluster: empty or duplicate node name %q", n.name)
		}
		seen[n.name] = true
	}
	for _, n := range nodes {
		n.capTrace = trace.NewSeries(series+"cap."+n.name, "W")
	}
	return job{
		nodes:          nodes,
		budget:         budget,
		budgetOverride: -1,
		res: &Result{
			MinProgress:  trace.NewSeries(series+"progress.min", "normalized"),
			MeanProgress: trace.NewSeries(series+"progress.mean", "normalized"),
			BudgetTrace:  trace.NewSeries(series+"budget", "W"),
			Nodes:        nodes,
		},
	}, nil
}

// SetNodeWorkers bounds how many node shards advance concurrently each
// epoch: 0 (the default) means GOMAXPROCS, 1 means the plain serial
// loop. Results are byte-identical at any setting — engines are fully
// self-contained — so this is purely a wall-clock knob. Call before the
// first Step.
func (j *job) SetNodeWorkers(workers int) { j.pool.workers = workers }

// ShardStats returns the shard pool's accumulated counters.
func (j *job) ShardStats() ShardStats { return j.pool.stats }

// Nodes returns the job's nodes, in construction order.
func (j *job) Nodes() []*Node { return j.nodes }

// Elapsed returns the virtual time the job has advanced through.
func (j *job) Elapsed() time.Duration { return j.elapsed }

// Done reports whether every node's workload has completed.
func (j *job) Done() bool {
	for _, n := range j.nodes {
		if !n.eng.Done() {
			return false
		}
	}
	return true
}

// nodeFaults returns the node's fault plan, or nil when no injector is
// installed or the plan has no entry for this node.
func (j *job) nodeFaults(n *Node) *fault.Node {
	if j.faults == nil {
		return nil
	}
	return j.faults.Node(n.name)
}

// Step advances the job by one epoch and reports whether it is done.
func (j *job) Step() (bool, error) {
	if j.finished {
		return true, fmt.Errorf("cluster: Step after Finish")
	}
	// Every per-epoch series is stamped at the epoch's end instant, so
	// the budget in force, the caps applied, and the progress measured
	// over the same epoch all align on one timestamp.
	now, end := j.elapsed, j.elapsed+Epoch
	budgetW := j.budget(now)
	if j.budgetOverride >= 0 {
		budgetW = j.budgetOverride
	}
	j.res.BudgetTrace.Add(end, budgetW)

	if err := j.plane.control(budgetW, now); err != nil {
		return false, err
	}

	// Advance every node one epoch, sharded across the pool (engines are
	// self-contained, so distinct nodes advance concurrently without
	// observable effect — see shard.go). A crashed node is frozen in
	// place: it burns no virtual time and produces no reports, which is
	// exactly what the watchdog must detect from the outside. A slowed
	// node gets its frequency ceiling applied before it steps. The crash
	// and ceiling checks are pure window lookups on the node's own plan.
	err := j.pool.run(len(j.nodes), func(i int) error {
		n := j.nodes[i]
		if n.eng.Done() {
			return nil
		}
		if np := j.nodeFaults(n); np != nil {
			if np.Crashed(now) {
				if !np.Crashed(end) {
					return j.plane.reboot(n)
				}
				return nil
			}
			if frac := np.FreqCeilingFrac(now); frac < 1 {
				n.eng.SetFreqCeiling(frac * n.eng.MaxFreqMHz())
			}
		}
		if _, err := n.eng.Advance(Epoch); err != nil {
			return fmt.Errorf("cluster: advancing %s: %w", n.name, err)
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	j.elapsed = end

	if j.norms, err = j.plane.feedback(budgetW, end, j.norms[:0]); err != nil {
		return false, err
	}
	if len(j.norms) > 0 {
		min, mean := 1.0, 0.0
		for _, v := range j.norms {
			if v < min {
				min = v
			}
			mean += v
		}
		j.res.MinProgress.Add(end, min)
		j.res.MeanProgress.Add(end, mean/float64(len(j.norms)))
	}
	return j.Done(), nil
}

// Finish finalizes every node engine and returns the job result.
func (j *job) Finish() (*Result, error) {
	if j.finished {
		return nil, fmt.Errorf("cluster: Finish called twice")
	}
	j.finished = true
	res := j.res
	res.Elapsed = j.elapsed
	res.Completed = true
	for _, n := range j.nodes {
		r, err := n.eng.Finish()
		if err != nil {
			return nil, fmt.Errorf("cluster: finishing %s: %w", n.name, err)
		}
		n.result = r
		res.TotalEnergyJ += r.EnergyJ
		res.WorkUnits += r.WorkUnits
		if !r.Completed {
			res.Completed = false
		}
	}
	return res, nil
}

// Run advances the job until every node's workload completes or maxDur
// of virtual time elapses.
func (j *job) Run(maxDur time.Duration) (*Result, error) {
	for j.elapsed < maxDur {
		done, err := j.Step()
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	return j.Finish()
}

// nodeView is what one manager knows about one node: the feedback a
// policy divides on and the node's watchdog.
type nodeView struct {
	heard    bool    // fresh feedback arrived this epoch
	done     bool    // the node reported its workload finished
	rate     float64 // last observed progress rate
	baseline float64 // running estimate of the uncapped rate
	fence    fence
}

// observe records a fresh rate; the baseline is the highest rate seen,
// i.e. near-uncapped performance.
func (v *nodeView) observe(rate float64) {
	v.rate = rate
	if rate > v.baseline {
		v.baseline = rate
	}
}

// status is the view as a policy sees it.
func (v *nodeView) status(name string) NodeStatus {
	return NodeStatus{Name: name, Rate: v.rate, Baseline: v.baseline, Done: v.done, Failed: v.fence.fenced}
}

// fence is the per-node watchdog. A node not heard for failureEpochs
// consecutive epochs is fenced; a fenced node is un-fenced only after a
// clean probation, heard for probationEpochs consecutive epochs. One
// fresh epoch is not enough — a node rebooting in a crash loop emits a
// burst of reports each time, and handing its budget share back on
// every burst would whipsaw the healthy nodes' caps. A done node is
// never fenced: a finished stream is silent by design.
type fence struct {
	fenced        bool
	silent, heard int // consecutive epochs without / with feedback
}

// observe advances the watchdog by one epoch.
func (f *fence) observe(heard, done bool) {
	if done {
		*f = fence{}
		return
	}
	if heard {
		f.silent, f.heard = 0, f.heard+1
	} else {
		f.silent, f.heard = f.silent+1, 0
	}
	switch {
	case !f.fenced && f.silent >= failureEpochs:
		f.fenced = true
	case f.fenced && f.heard >= probationEpochs:
		f.fenced = false
	}
}
