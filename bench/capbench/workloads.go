package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/cluster"
	"progresscap/internal/engine"
	"progresscap/internal/experiments"
	"progresscap/internal/policy"
	"progresscap/internal/rapl"
	"progresscap/internal/workload"
)

// op is one timed unit of work: an engine run, a sweep cell, a fleet
// epoch or an artifact generator.
type op struct {
	name string
	// run performs the op, recording spans into tr when it is non-nil.
	run func(tr *tracer) (*outcome, error)
}

// outcome is what an op leaves for the untimed checks that follow it.
type outcome struct {
	// result renders the op's output canonically, for the digest.
	result func() string
	// check applies the workload's own oracle; sampled marks the ops on
	// which expensive oracles run. Nil when the workload has none.
	check func(sampled bool) error
	// rerun repeats the op from scratch, untraced, and renders its
	// result. Nil when the op cannot be repeated on its own.
	rerun func() (string, error)
}

// pass is one balanced batch of ops. A run repeats passes, each with
// fresh draws, until its time is up.
type pass struct {
	ops []op
	// verify, when non-nil, runs untimed after the pass and returns the
	// failures of pass-level oracles by op index. sampled marks the passes
	// on which expensive oracles run.
	verify func(sampled bool) map[int]error
}

// benchWorkload generates and runs the passes of one workload.
type benchWorkload interface {
	// pass builds pass k of the op stream seeded by seed. Work a user pays
	// once per pass, such as building a Runner or a fleet, happens here;
	// it counts toward pass_s and is recorded into tr when non-nil.
	pass(seed uint64, k int, tr *tracer) (*pass, error)
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"capped-node", "uncapped-node", "cap-sweep", "fleet", "paper-suite"}

// newWorkload returns the named workload at full size.
func newWorkload(name string) (benchWorkload, error) {
	switch name {
	case "capped-node":
		return cappedNode{seconds: 36, apps: nodeApps, fixedTickSeconds: 2}, nil
	case "uncapped-node":
		return uncappedNode{seconds: 120, apps: nodeApps, perMode: 4}, nil
	case "cap-sweep":
		return capSweep{seconds: 12, apps: nodeApps, levels: 8}, nil
	case "fleet":
		return fleet{nodes: 1024, epochs: 12}, nil
	case "paper-suite":
		return paperSuite{gens: suiteGenerators}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// passRNG returns the generator for pass k of seed. The benchmark draws
// its inputs from the standard library, never from the simulator's own
// RNG, so a change to the code under test cannot change the inputs.
func passRNG(seed uint64, k int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(k)))
}

func uniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Round((lo+(hi-lo)*rng.Float64())*10) / 10
}

func seconds(rng *rand.Rand, lo, hi int) time.Duration {
	return time.Duration(lo+rng.IntN(hi-lo+1)) * time.Second
}

func engineSeed(rng *rand.Rand) uint64 { return rng.Uint64()>>1 + 1 }

// nodeApp builds one application model sized for secs virtual seconds at
// the paper's single-node configuration (24 ranks).
type nodeApp struct {
	name string
	mk   func(secs float64) *workload.Workload
}

// nodeApps are the four applications of the paper's figures: compute
// bound (LAMMPS, QMCPACK's DMC phase), fluctuating (AMG) and memory bound
// (STREAM).
var nodeApps = []nodeApp{
	{"LAMMPS", func(s float64) *workload.Workload { return apps.LAMMPS(apps.DefaultRanks, int(s*25)) }},
	{"AMG", func(s float64) *workload.Workload { return apps.AMG(apps.DefaultRanks, int(s*2.75)) }},
	{"QMCPACK-DMC", func(s float64) *workload.Workload {
		return apps.QMCPACK(apps.DefaultRanks, 1, 1, int(s*20)).SubsetPhase("dmc")
	}},
	{"STREAM", func(s float64) *workload.Workload { return apps.STREAM(apps.DefaultRanks, int(s*24)) }},
}

// nodeRun is one single-node engine run.
type nodeRun struct {
	app    nodeApp
	secs   float64
	scheme policy.Scheme // nil: no policy daemon
	mhz    float64       // > 0: pinned with SetManualDVFS
	seed   uint64
}

func (n nodeRun) String() string {
	mode := "turbo"
	switch {
	case n.scheme != nil:
		mode = fmt.Sprintf("%T%+v", n.scheme, n.scheme)
	case n.mhz > 0:
		mode = fmt.Sprintf("dvfs:%gMHz", n.mhz)
	}
	return fmt.Sprintf("%s %gs %s seed=%d", n.app.name, n.secs, mode, n.seed)
}

// exec runs the op the way a user would: New, SetScheme or
// SetManualDVFS, Run. Traced, it drives Begin/Advance(1s)/Finish instead,
// with the scheme and cap writer wrapped to time the policy layer; the
// digest check proves both paths give the same result.
func (n nodeRun) exec(tr *tracer, fixedTick bool, secs float64) (*engine.Result, error) {
	cfg := engine.DefaultConfig()
	cfg.Seed = n.seed
	cfg.FixedTick = fixedTick
	sp := tr.begin("engine.new")
	e, err := engine.New(cfg, n.app.mk(n.secs))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if n.scheme != nil {
		if tr == nil {
			err = e.SetScheme(n.scheme)
		} else {
			err = e.SetSchemeVia(tracedScheme{n.scheme, tr}, tracedWriter{e, tr})
		}
		if err != nil {
			return nil, err
		}
	}
	if n.mhz > 0 {
		e.SetManualDVFS(n.mhz)
	}
	limit := time.Duration(secs * float64(time.Second))
	if tr == nil {
		return e.Run(limit)
	}
	e.SetWindowHook(func(engine.WindowStats) { tr.count("engine.windows", 1) })
	sp = tr.begin("engine.begin")
	err = e.Begin()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	for done := false; !done && e.Clock().Now() < limit; {
		sp = tr.begin("engine.advance")
		done, err = e.Advance(min(time.Second, limit-e.Clock().Now()))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	sp = tr.begin("engine.finish")
	res, err := e.Finish()
	tr.end(sp)
	if err == nil {
		tr.count("engine.virtual_ns", int64(res.Elapsed))
	}
	return res, err
}

// op wraps the run with its result, sampled re-run and oracle.
func (n nodeRun) op(check func(res *engine.Result, sampled bool) error) op {
	return op{name: n.String(), run: func(tr *tracer) (*outcome, error) {
		res, err := n.exec(tr, false, n.secs)
		if err != nil {
			return nil, err
		}
		out := &outcome{
			result: res.Signature,
			rerun: func() (string, error) {
				again, err := n.exec(nil, false, n.secs)
				if err != nil {
					return "", err
				}
				return again.Signature(), nil
			},
		}
		if check != nil {
			out.check = func(sampled bool) error { return check(res, sampled) }
		}
		return out, nil
	}}
}

// tracedScheme times CapAt and keeps the scheme's name, which the daemon
// uses to label its cap trace.
type tracedScheme struct {
	policy.Scheme
	tr *tracer
}

func (s tracedScheme) CapAt(t time.Duration) float64 {
	sp := s.tr.begin("policy.cap_at")
	defer s.tr.end(sp)
	return s.Scheme.CapAt(t)
}

// tracedWriter times the cap write. It writes exactly what the default
// daemon writer does.
type tracedWriter struct {
	e  *engine.Engine
	tr *tracer
}

func (w tracedWriter) WriteCap(_ time.Duration, watts float64, window time.Duration) error {
	sp := w.tr.begin("policy.write_cap")
	err := rapl.WriteLimit(w.e.Device(), watts, window)
	w.tr.end(sp)
	if err != nil {
		w.tr.count("policy.write_cap.errors", 1)
	}
	return err
}

// cappedNode runs every app under every scheme of the paper, with the
// cap levels and engine seed drawn per pass.
type cappedNode struct {
	seconds          float64
	apps             []nodeApp
	fixedTickSeconds float64
}

// capMarginW is how far a steady window's average package power may sit
// above a constant cap.
const capMarginW = 0.5

func (c cappedNode) schemes(rng *rand.Rand) []policy.Scheme {
	descent := max(c.seconds-8, 1)
	start, floor := uniform(rng, 155, 170), uniform(rng, 75, 90)
	jagStart, jagLow := uniform(rng, 155, 170), uniform(rng, 75, 90)
	return []policy.Scheme{
		policy.Constant{Watts: uniform(rng, 70, 85)},
		policy.Constant{Watts: uniform(rng, 95, 110)},
		policy.Constant{Watts: uniform(rng, 120, 135)},
		policy.Step{HighW: policy.Uncapped, LowW: uniform(rng, 80, 100),
			HighFor: seconds(rng, 6, 10), LowFor: seconds(rng, 6, 10)},
		policy.Linear{Delay: seconds(rng, 3, 5), StartW: start, MinW: floor,
			RateWPerSec: (start - floor) / descent},
		policy.Jagged{StartW: jagStart, LowW: jagLow,
			FallFor: seconds(rng, 6, 10), UncappedFor: seconds(rng, 3, 4)},
	}
}

func (c cappedNode) pass(seed uint64, k int, _ *tracer) (*pass, error) {
	rng := passRNG(seed, k)
	p := &pass{}
	for _, app := range c.apps {
		for _, s := range c.schemes(rng) {
			run := nodeRun{app: app, secs: c.seconds, scheme: s, seed: engineSeed(rng)}
			p.ops = append(p.ops, run.op(func(res *engine.Result, sampled bool) error {
				if cs, ok := run.scheme.(policy.Constant); ok {
					if err := checkUnderCap(res.PowerTrace.Values(), cs.Watts, capMarginW); err != nil {
						return err
					}
				}
				if !sampled {
					return nil
				}
				return checkMacroFixedTick(run, c.fixedTickSeconds)
			}))
		}
	}
	return p, nil
}

// checkMacroFixedTick runs the op's first seconds in both engine modes
// and requires identical results.
func checkMacroFixedTick(run nodeRun, secs float64) error {
	macro, err := run.exec(nil, false, secs)
	if err != nil {
		return err
	}
	fixed, err := run.exec(nil, true, secs)
	if err != nil {
		return err
	}
	return sameResult("fixed-tick", macro.Signature(), fixed.Signature())
}

// uncappedNode runs the apps at turbo with no daemon and pinned at
// frequencies drawn from equal strata of the P-state range.
type uncappedNode struct {
	seconds float64
	apps    []nodeApp
	perMode int // turbo runs and pinned runs per app and pass
}

const minMHz, maxMHz = 1200, 3300

func (u uncappedNode) pass(seed uint64, k int, _ *tracer) (*pass, error) {
	rng := passRNG(seed, k)
	p := &pass{}
	width := float64(maxMHz-minMHz) / float64(u.perMode)
	for _, app := range u.apps {
		for j := 0; j < u.perMode; j++ {
			turbo := nodeRun{app: app, secs: u.seconds, seed: engineSeed(rng)}
			lo := minMHz + width*float64(j)
			pinned := nodeRun{app: app, secs: u.seconds, mhz: math.Round(lo + width*rng.Float64()), seed: engineSeed(rng)}
			p.ops = append(p.ops, turbo.op(nil), pinned.op(nil))
		}
	}
	return p, nil
}

// capSweep is one forking Runner sweeping a Step ladder per app: eight
// low-cap levels under a shared high phase, then the first cell again.
type capSweep struct {
	seconds float64
	apps    []nodeApp
	levels  int
}

// sweepLowFor is the low phase of every ladder; with the high phase drawn
// from 4-8 s, each 12 s cell drops to its low cap exactly once.
const sweepLowFor = 4 * time.Second

func (c capSweep) pass(seed uint64, k int, tr *tracer) (*pass, error) {
	rng := passRNG(seed, k)
	r := experiments.NewRunner(1)
	p := &pass{}
	// The high phase sets how much of each cell forks; drawing it without
	// replacement keeps every pass's mix of fork depths alike.
	highFors := rng.Perm(5)
	for i, app := range c.apps {
		high, highFor, s := uniform(rng, 130, 150), time.Duration(4+highFors[i%5])*time.Second, engineSeed(rng)
		var cells []experiments.RunSpec
		for j := 0; j < c.levels; j++ {
			cells = append(cells, experiments.RunSpec{
				Make:       func() *workload.Workload { return app.mk(c.seconds) },
				Scheme:     policy.Step{HighW: high, LowW: uniform(rng, 60+10*float64(j), 65+10*float64(j)), HighFor: highFor, LowFor: sweepLowFor},
				Seed:       s,
				MaxSeconds: c.seconds,
				Forking:    true,
			})
		}
		// The repeated first cell models a baseline that a second
		// artifact asks for: the memo table must serve it.
		cells = append(cells, cells[0])
		for _, spec := range cells {
			p.ops = append(p.ops, sweepCell(r, app.name, spec))
		}
	}
	p.verify = func(bool) map[int]error {
		recordRunnerStats(tr, r.Stats(), c.seconds)
		return nil
	}
	return p, nil
}

func sweepCell(r *experiments.Runner, app string, spec experiments.RunSpec) op {
	return op{name: fmt.Sprintf("%s %+v seed=%d", app, spec.Scheme, spec.Seed), run: func(tr *tracer) (*outcome, error) {
		sp := tr.begin("runner.do")
		res, err := r.Do(spec)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		return &outcome{
			result: res.Signature,
			// The re-run is the fork ≡ scratch oracle: a fresh Runner
			// without forking simulates the whole cell.
			rerun: func() (string, error) {
				scratch := spec
				scratch.Forking = false
				again, err := experiments.NewRunner(1).Do(scratch)
				if err != nil {
					return "", err
				}
				return again.Signature(), nil
			},
		}, nil
	}}
}

// recordRunnerStats adds a Runner's counters to the trace. cellSeconds
// prices an executed run for the skipped-work share.
func recordRunnerStats(tr *tracer, st experiments.RunnerStats, cellSeconds float64) {
	if tr == nil {
		return
	}
	tr.count("runner.executed", int64(st.Executed))
	tr.count("runner.memo_hits", int64(st.CacheHits))
	tr.count("runner.fork_runs", int64(st.ForkRuns))
	tr.count("runner.fork_hits", int64(st.ForkHits))
	tr.count("runner.fork_skipped_s", int64(st.ForkSkippedSec))
	tr.count("runner.fork_run_s", int64(float64(st.ForkRuns)*cellSeconds))
}

// fleetPolicies is the ext-fleet policy set; pass k runs policy k mod 5.
var fleetPolicies = []cluster.Policy{
	cluster.EqualSplit{},
	cluster.ProgressAware{Gain: 3},
	cluster.Throughput{},
	cluster.BinPackSortedWatts{},
	cluster.MaxGreedyMins{},
}

// fleet steps one ext-fleet manager per pass for a fixed number of
// epochs, short of completion.
type fleet struct {
	nodes, epochs int
}

func (f fleet) pass(seed uint64, k int, tr *tracer) (*pass, error) {
	opts := experiments.Options{Seed: engineSeed(passRNG(seed, k)), Parallel: 1, NodeWorkers: 1}
	pol := fleetPolicies[k%len(fleetPolicies)]
	if tr != nil {
		pol = tracedPolicy{pol, tr}
	}
	sp := tr.begin("cluster.new")
	m, err := experiments.NewFleetManager(opts, f.nodes, pol)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	digests := make([]string, f.epochs)
	p := &pass{}
	for i := 0; i < f.epochs; i++ {
		p.ops = append(p.ops, op{name: fmt.Sprintf("%s seed=%d epoch %d", pol.Name(), opts.Seed, i), run: func(tr *tracer) (*outcome, error) {
			sp := tr.begin("cluster.step")
			_, err := m.Step()
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			// The driver renders and checks an op before the next one
			// runs, so the epoch's statuses are still current here.
			snap := func() string {
				if digests[i] == "" {
					digests[i] = statusDigest(m.Statuses())
				}
				return digests[i]
			}
			return &outcome{result: snap, check: func(bool) error { snap(); return nil }}, nil
		}})
	}
	p.verify = func(sampled bool) map[int]error {
		fails := map[int]error{}
		res, err := m.Finish()
		if err != nil {
			fails[len(p.ops)-1] = err
			return fails
		}
		for i, err := range checkBudget(res) {
			fails[i] = err
		}
		if res.Completed {
			fails[len(p.ops)-1] = fmt.Errorf("fleet completed within %d epochs", f.epochs)
		}
		if sampled {
			// Epochs cannot be repeated alone, so a sampled pass is
			// repeated whole and must reproduce every epoch. The first
			// fleet is released before the second is built.
			m = nil
			runtime.GC()
			for i, err := range f.rerun(opts, pol, digests) {
				fails[i] = err
			}
		}
		return fails
	}
	return p, nil
}

// rerun steps an identical fresh fleet and compares each epoch.
func (f fleet) rerun(opts experiments.Options, pol cluster.Policy, want []string) map[int]error {
	fails := map[int]error{}
	if tp, ok := pol.(tracedPolicy); ok {
		pol = tp.Policy
	}
	m, err := experiments.NewFleetManager(opts, f.nodes, pol)
	if err != nil {
		fails[0] = err
		return fails
	}
	for i := range want {
		if _, err := m.Step(); err != nil {
			fails[i] = err
			return fails
		}
		if err := sameResult("re-run", want[i], statusDigest(m.Statuses())); err != nil {
			fails[i] = err
		}
	}
	return fails
}

// statusDigest hashes every node's feedback after an epoch, bit-exact.
func statusDigest(st []cluster.NodeStatus) string {
	h := sha256.New()
	for _, s := range st {
		fmt.Fprintf(h, "%s %b %b %b %b %v %v\n", s.Name, s.CapW, s.PowerW, s.Rate, s.Baseline, s.Done, s.Failed)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tracedPolicy times the decision half of an epoch. Name is unchanged.
type tracedPolicy struct {
	cluster.Policy
	tr *tracer
}

func (p tracedPolicy) Divide(budgetW float64, nodes []cluster.NodeStatus) []float64 {
	sp := p.tr.begin("cluster.divide")
	defer p.tr.end(sp)
	return p.Policy.Divide(budgetW, nodes)
}

// generator is one cmd/experiments artifact.
type generator struct {
	id string
	fn func(experiments.Options) (*experiments.Artifact, error)
}

// suiteGenerators lists the cmd/experiments artifacts in its order.
var suiteGenerators = []generator{
	{"table1", experiments.Table1},
	{"tables2to4", func(experiments.Options) (*experiments.Artifact, error) { return experiments.Tables2to4(), nil }},
	{"table5", func(experiments.Options) (*experiments.Artifact, error) { return experiments.Table5(), nil }},
	{"table6", experiments.Table6},
	{"fig1", experiments.Figure1},
	{"fig2", experiments.Figure2},
	{"fig3", experiments.Figure3},
	{"fig4", experiments.Figure4},
	{"fig5", experiments.Figure5},
	{"ext-alpha", experiments.ExtAlphaFit},
	{"ext-techniques", experiments.ExtTechniques},
	{"ext-composite", experiments.ExtComposite},
	{"ext-cluster", experiments.ExtCluster},
	{"ext-energy", experiments.ExtEnergy},
	{"ext-method", experiments.ExtMethod},
	{"ext-faults", experiments.ExtFaults},
	{"ext-crashes", experiments.ExtCrashes},
	{"ext-partitions", experiments.ExtPartitions},
	{"ext-fleet", experiments.ExtFleet},
	{"ext-backends", experiments.ExtBackends},
}

// paperSuite runs the artifact generators in order on one serial Runner
// per pass, as `cmd/experiments -parallel 1 -nodeworkers 1` does.
type paperSuite struct {
	gens []generator
}

func suiteOptions(seed uint64, r *experiments.Runner) experiments.Options {
	return experiments.Options{Seed: seed, Parallel: 1, NodeWorkers: 1}.WithRunner(r)
}

func (s paperSuite) pass(seed uint64, _ int, tr *tracer) (*pass, error) {
	r := experiments.NewRunner(1)
	opts := suiteOptions(seed, r)
	p := &pass{}
	for _, g := range s.gens {
		p.ops = append(p.ops, op{name: fmt.Sprintf("%s seed=%d", g.id, seed), run: func(tr *tracer) (*outcome, error) {
			sp := tr.begin("artifact." + g.id)
			art, err := g.fn(opts)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			render := art.Render()
			return &outcome{
				result: func() string { return render },
				check:  func(bool) error { return checkRender(render) },
				rerun: func() (string, error) {
					again, err := g.fn(suiteOptions(seed, experiments.NewRunner(1)))
					if err != nil {
						return "", err
					}
					return again.Render(), nil
				},
			}, nil
		}})
	}
	p.verify = func(bool) map[int]error {
		recordRunnerStats(tr, r.Stats(), 0)
		return nil
	}
	return p, nil
}
