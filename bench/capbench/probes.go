package main

import (
	"fmt"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/counters"
	"progresscap/internal/cpu"
	"progresscap/internal/engine"
	"progresscap/internal/msr"
	"progresscap/internal/policy"
	"progresscap/internal/power"
	"progresscap/internal/progress"
	"progresscap/internal/pubsub"
	"progresscap/internal/rapl"
	"progresscap/internal/workload"
)

// The probes price one event of each per-event layer through its public
// calls, independent of the workload: each reports the median over
// probeBatches batches of the time per call.
const probeBatches = 5

// medianPer runs fn(n) probeBatches times and returns the median time per
// iteration in ns.
func medianPer(n int, fn func(n int) error) (float64, error) {
	per := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		t := time.Now()
		if err := fn(n); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	return quantile(per, 0.5), nil
}

// probeSpanConsume is one macro-step of a 24-rank LAMMPS executor: the
// stretch composition, then consumption up to the next event, at most
// one 1 ms RAPL control period away.
func probeSpanConsume(iters int) (float64, error) {
	ex, err := workload.NewExec(apps.LAMMPS(apps.DefaultRanks, 1<<20), counters.NewBank(apps.DefaultRanks), 1)
	if err != nil {
		return 0, err
	}
	const effHz, memFactor = 2.6e9, 1.0
	return medianPer(iters, func(n int) error {
		for i := 0; i < n; i++ {
			sp := ex.Span(effHz, memFactor)
			to := ex.At() + time.Millisecond
			if sp.HasBoundary && sp.Boundary < to {
				to = sp.Boundary
			}
			ex.ConsumeTo(to, effHz, memFactor)
		}
		return nil
	})
}

// probeObserveControl is one control period of a capped RAPL controller:
// integrate 1 ms of a fully engaged node, then re-actuate.
func probeObserveControl(iters int) (float64, error) {
	cfg := engine.DefaultConfig()
	domain, err := cpu.NewDomain(cfg.CPU)
	if err != nil {
		return 0, err
	}
	dev := msr.NewDevice(cfg.CPU.Cores, nil)
	uncore := cpu.NewUncore()
	ctl, err := rapl.New(dev, domain, uncore, cfg.Power, power.NewMeter(cfg.Power, 0.010), cfg.RAPL)
	if err != nil {
		return 0, err
	}
	if err := rapl.WriteLimit(dev, 110, 10*time.Millisecond); err != nil {
		return 0, err
	}
	return medianPer(iters, func(n int) error {
		for i := 0; i < n; i++ {
			ctl.Observe(power.NodeState{EngagedCores: cfg.CPU.Cores, FreqMHz: domain.CurrentMHz(),
				Duty: domain.Duty(), Activity: 0.9, BWUtil: 0.2, BWScale: uncore.BWScale()}, time.Millisecond)
			ctl.Control()
		}
		return nil
	})
}

// busPublisher is the minimal progress.Publisher over a Bus.
type busPublisher struct{ bus *pubsub.Bus }

func (p busPublisher) PublishPayload(topic string, payload []byte) int {
	return p.bus.Publish(pubsub.Message{Topic: topic, Payload: payload})
}

// probeProgressReport is one progress report's trip from the reporter
// through the bus and decoder into the monitor, with a window flush every
// thousand reports.
func probeProgressReport(iters int) (float64, error) {
	bus := pubsub.NewBus()
	sub := bus.Subscribe(progress.Topic("LAMMPS"), 1024)
	rep := progress.NewReporter("LAMMPS", busPublisher{bus})
	dec := progress.NewDecoder()
	mon := progress.NewMonitor(time.Second)
	var at time.Duration
	return medianPer(iters, func(n int) error {
		for i := 0; i < n; i++ {
			at += time.Millisecond
			rep.Publish("run", 24, at)
			m, ok := sub.TryRecv()
			if !ok {
				return fmt.Errorf("progress probe: report not delivered")
			}
			r, err := dec.Unmarshal(m.Payload)
			if err != nil {
				return err
			}
			mon.Offer(r)
			if i%1000 == 999 {
				mon.Flush(at)
			}
		}
		return nil
	})
}

// checkpointProbe mirrors BenchmarkCheckpointResume: a capped STREAM
// engine six virtual seconds in is checkpointed, and the checkpoint is
// resumed onto a fresh twin whose construction is off the clock.
type checkpointProbe struct {
	checkpointUs, resumeUs float64
	bytes                  int
}

func probeCheckpoint(n int) (checkpointProbe, error) {
	var out checkpointProbe
	mk := func() (*engine.Engine, error) {
		e, err := engine.New(engine.DefaultConfig(), apps.STREAM(apps.DefaultRanks, 100000))
		if err != nil {
			return nil, err
		}
		return e, e.SetScheme(policy.Constant{Watts: 110})
	}
	donor, err := mk()
	if err != nil {
		return out, err
	}
	if err := donor.Begin(); err != nil {
		return out, err
	}
	if _, err := donor.Advance(6 * time.Second); err != nil {
		return out, err
	}
	var ckTimes, resTimes []float64
	for b := 0; b < probeBatches; b++ {
		var ckNs, resNs int64
		for i := 0; i < n; i++ {
			t := time.Now()
			ck, err := donor.Checkpoint()
			ckNs += time.Since(t).Nanoseconds()
			if err != nil {
				return out, err
			}
			out.bytes = ck.SizeBytes()
			fresh, err := mk()
			if err != nil {
				return out, err
			}
			t = time.Now()
			err = fresh.Resume(ck)
			resNs += time.Since(t).Nanoseconds()
			if err != nil {
				return out, err
			}
		}
		ckTimes = append(ckTimes, float64(ckNs)/float64(n)/1e3)
		resTimes = append(resTimes, float64(resNs)/float64(n)/1e3)
	}
	out.checkpointUs, out.resumeUs = quantile(ckTimes, 0.5), quantile(resTimes, 0.5)
	return out, nil
}
