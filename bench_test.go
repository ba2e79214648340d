package progresscap

// Micro-benchmarks of the simulation substrate that the repository
// benchmark (bench/, run through `make bench-ab`) cannot price: the
// cluster shard pool across cores (capbench pins GOMAXPROCS=1), the fork
// pool against scratch runs, the macro-stepping engine against its
// fixed-tick oracle, and single substrate operations. Each paper
// artifact's cost is capbench's artifact.<id>.ms, and its render is
// pinned by TestSampleOutputGolden. Run with
//
//	go test -run='^$' -bench=. -benchmem
import (
	"testing"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/cluster"
	"progresscap/internal/counters"
	"progresscap/internal/engine"
	"progresscap/internal/experiments"
	"progresscap/internal/msr"
	"progresscap/internal/policy"
	"progresscap/internal/powercap"
	"progresscap/internal/pubsub"
	"progresscap/internal/rapl"
	"progresscap/internal/workload"
)

// --- cluster stepping benchmarks ---

// benchClusterEpochs measures intra-epoch node advancement on a 256-node
// fleet at the given shard worker bound. Construction is off the clock;
// the measured region is the epoch loop — cap decision, RAPL writes, and
// the (serial or sharded) engine advances. Reported as node-epochs/s so
// the number is comparable across fleet sizes.
func benchClusterEpochs(b *testing.B, workers int) {
	const fleetNodes, epochs = 256, 4
	b.ReportAllocs()
	var nodeEpochs int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		opts := experiments.DefaultOptions()
		opts.Seed = uint64(i + 1)
		opts.NodeWorkers = workers
		m, err := experiments.NewFleetManager(opts, fleetNodes, cluster.EqualSplit{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for e := 0; e < epochs; e++ {
			if _, err := m.Step(); err != nil {
				b.Fatal(err)
			}
		}
		nodeEpochs += fleetNodes * epochs
	}
	b.ReportMetric(float64(nodeEpochs)/b.Elapsed().Seconds(), "node-epochs/s")
}

// BenchmarkClusterEpochSerial is the workers=1 baseline: every node
// advanced in index order on the stepping goroutine, as every Manager
// ran before the shard pool existed.
func BenchmarkClusterEpochSerial(b *testing.B) { benchClusterEpochs(b, 1) }

// BenchmarkClusterEpochParallel is the same fleet sharded across
// GOMAXPROCS workers. Against the serial pair, on a multi-core host it
// should approach min(GOMAXPROCS, shards) times faster, and on a 1-CPU
// host about the same (the pool's only overhead is goroutine startup
// and the epoch barrier).
func BenchmarkClusterEpochParallel(b *testing.B) { benchClusterEpochs(b, 0) }

// --- checkpoint/fork benchmarks ---

// BenchmarkCheckpointResume prices the fork substrate itself: one deep
// Checkpoint of a capped mid-run engine plus one Resume onto a freshly
// constructed twin (engine construction is off the clock).
func BenchmarkCheckpointResume(b *testing.B) {
	mk := func() *engine.Engine {
		cfg := engine.DefaultConfig()
		e, err := engine.New(cfg, apps.STREAM(apps.DefaultRanks, 100000))
		if err != nil {
			b.Fatal(err)
		}
		if err := e.SetScheme(policy.Constant{Watts: 110}); err != nil {
			b.Fatal(err)
		}
		return e
	}
	donor := mk()
	if err := donor.Begin(); err != nil {
		b.Fatal(err)
	}
	if _, err := donor.Advance(6 * time.Second); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck, err := donor.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		fresh := mk()
		b.StartTimer()
		if err := fresh.Resume(ck); err != nil {
			b.Fatal(err)
		}
	}
}

// benchForkSweep runs a sweep-heavy cell ladder — six Step schemes that
// share an 8-second uncapped-prefix and diverge in their low-cap phase —
// through one serial Runner, from scratch or with checkpoint forking.
// The Scratch/Forked ns/op ratio is the fork pool's speedup.
func benchForkSweep(b *testing.B, forking bool) {
	lows := []float64{70, 80, 90, 100, 110, 120}
	b.ReportAllocs()
	var hits, runs uint64
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(1)
		for _, low := range lows {
			rs := experiments.RunSpec{
				Make:       func() *workload.Workload { return apps.STREAM(apps.DefaultRanks, 100000) },
				Scheme:     policy.Step{HighW: 140, LowW: low, HighFor: 8 * time.Second, LowFor: 4 * time.Second},
				Seed:       1,
				MaxSeconds: 12,
				Forking:    forking,
			}
			if _, err := r.Do(rs); err != nil {
				b.Fatal(err)
			}
		}
		st := r.Stats()
		hits += st.ForkHits
		runs += st.ForkRuns
	}
	if forking {
		b.ReportMetric(float64(hits)/float64(b.N), "fork_hits")
		b.ReportMetric(float64(runs)/float64(b.N), "fork_runs")
	}
}

// BenchmarkForkSweepScratch is the ladder with every cell simulated in
// full — the pre-fork cost of the sweep.
func BenchmarkForkSweepScratch(b *testing.B) { benchForkSweep(b, false) }

// BenchmarkForkSweepForked is the same ladder with prefix forking: the
// first cell simulates 12 virtual seconds, the other five fork from its
// pooled depth-8 checkpoint and simulate only their divergent tails.
func BenchmarkForkSweepForked(b *testing.B) { benchForkSweep(b, true) }

// --- substrate micro-benchmarks ---

// benchEngine measures raw co-simulation throughput: virtual seconds of a
// 24-rank LAMMPS run simulated per wall second, under a 110 W Constant cap
// when capped, in fixed-tick oracle mode when fixedTick.
func benchEngine(b *testing.B, capped, fixedTick bool) {
	b.ReportAllocs()
	var virtual time.Duration
	for i := 0; i < b.N; i++ {
		cfg := engine.DefaultConfig()
		cfg.FixedTick = fixedTick
		cfg.Seed = uint64(i + 1)
		e, err := engine.New(cfg, apps.LAMMPS(apps.DefaultRanks, 100))
		if err != nil {
			b.Fatal(err)
		}
		if capped {
			if err := e.SetScheme(policy.Constant{Watts: 110}); err != nil {
				b.Fatal(err)
			}
		}
		res, err := e.Run(time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		virtual += res.Elapsed
	}
	b.ReportMetric(virtual.Seconds()/b.Elapsed().Seconds(), "virtual-s/s")
}

// BenchmarkEngineTicks is the uncapped throughput: RAPL is quiescent, so
// only workload boundaries and window edges bound the event horizon.
func BenchmarkEngineTicks(b *testing.B) { benchEngine(b, false, false) }

// BenchmarkEngineTicksCapped is the same measurement with an active RAPL
// capping loop. The controller is never quiescent here, so the event
// horizon is bounded by the 1ms control period — the honest throughput
// number for capped production runs, where the uncapped benchmark's
// control-skip optimization cannot apply.
func BenchmarkEngineTicksCapped(b *testing.B) { benchEngine(b, true, false) }

// BenchmarkEngineTicksFixed pins the fixed-tick oracle's cost on the
// uncapped workload, so the macro-vs-tick gap itself is tracked.
func BenchmarkEngineTicksFixed(b *testing.B) { benchEngine(b, false, true) }

// BenchmarkEngineTicksCappedFixed is the oracle's cost on the capped
// workload: the reference BenchmarkEngineTicksCapped's macro-stepping is
// measured against.
func BenchmarkEngineTicksCappedFixed(b *testing.B) { benchEngine(b, true, true) }

// BenchmarkWorkloadStep is one macro-step of a 24-rank STREAM executor:
// the stretch composition, then consumption up to the next workload
// boundary, at most 100 µs away.
func BenchmarkWorkloadStep(b *testing.B) {
	w := apps.STREAM(apps.DefaultRanks, 1<<30)
	bank := counters.NewBank(apps.DefaultRanks)
	e, err := workload.NewExec(w, bank, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := e.Span(3.3e9, 1)
		to := e.At() + 100*time.Microsecond
		if sp.HasBoundary && sp.Boundary < to {
			to = sp.Boundary
		}
		e.ConsumeTo(to, 3.3e9, 1)
	}
}

func BenchmarkPubSubPublish(b *testing.B) {
	bus := pubsub.NewBus()
	sub := bus.Subscribe("progress.", 1024)
	payload := []byte("12345.678")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Publish(pubsub.Message{Topic: "progress.lammps", Payload: payload})
		if i%512 == 0 {
			sub.DrainInto(nil)
		}
	}
}

func BenchmarkMSRWriteRead(b *testing.B) {
	dev := msr.NewDevice(24, nil)
	u := msr.DefaultUnits()
	val := msr.EncodePowerLimit(msr.PowerLimit{Watts: 100, Enabled: true, WindowSeconds: 0.01}, u)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dev.Write(msr.PkgPowerLimit, val); err != nil {
			b.Fatal(err)
		}
		if _, err := dev.Read(msr.PkgPowerLimit); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelPredict(b *testing.B) {
	c := Characterization{App: "STREAM", Beta: 0.37, BaselineRate: 16, BaselinePkgW: 180}
	m, err := FitModel(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.PredictDelta(60 + float64(i%100))
	}
	_ = sink
}

// BenchmarkActuationRetry measures a hardened cap write through the
// retry/failover actuator against a sysfs backend that returns EAGAIN
// on every other limit write — the steady-state cost of flap-absorbing
// actuation (retry bookkeeping, read-back verify, health accounting),
// not the happy path BenchmarkMSRWriteRead prices.
func BenchmarkActuationRetry(b *testing.B) {
	dev := msr.NewDevice(24, nil)
	zone := powercap.NewZone(dev, msr.DefaultUnits())
	var writes uint64
	zone.SetFaultHook(func(op powercap.FaultOp, file string, now time.Duration) powercap.FaultClass {
		if op == powercap.OpWrite && file == powercap.FilePowerLimitUW {
			writes++
			if writes%2 == 1 {
				return powercap.FaultAgain
			}
		}
		return powercap.FaultNone
	})
	act := rapl.NewActuator(rapl.ActuatorConfig{
		Backends: []rapl.Backend{
			powercap.NewBackend(zone),
			rapl.NewMSRBackend(dev, 10*time.Millisecond),
		},
		Seed: 1,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := act.WriteCap(time.Duration(i)*time.Millisecond, 80+float64(i%40)); err != nil {
			b.Fatal(err)
		}
	}
	c := act.Counters()
	b.ReportMetric(float64(c.Retries)/float64(b.N), "retries/op")
}
