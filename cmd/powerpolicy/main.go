// Command powerpolicy is the paper's power-policy tool (§V-B): it runs an
// application on the simulated node while a background daemon applies a
// dynamic power-capping scheme to the package domain once per second,
// and streams per-second telemetry (cap, package power, frequency, and
// online performance).
//
// Usage:
//
//	powerpolicy -app LAMMPS -scheme step -high 0 -low 90 -period 10 -seconds 60
//	powerpolicy -app STREAM -scheme linear -start 170 -min 70 -rate 5
//	powerpolicy -app QMCPACK -scheme jagged -start 170 -min 80 -fall 8
//
// With -publish the progress stream is additionally served over TCP
// pub/sub for cmd/progressmon to attach to, and -pace slows the
// simulation to roughly real time so the stream is watchable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/engine"
	"progresscap/internal/msr"
	"progresscap/internal/policy"
	"progresscap/internal/powercap"
	"progresscap/internal/progress"
	"progresscap/internal/pubsub"
	"progresscap/internal/rapl"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("powerpolicy: ")

	app := flag.String("app", "LAMMPS", "application to run (see Applications in the registry)")
	schemeName := flag.String("scheme", "step", "capping scheme: none, constant, linear, step, jagged")
	seconds := flag.Float64("seconds", 60, "virtual seconds of workload")
	seed := flag.Uint64("seed", 1, "RNG seed")
	highW := flag.Float64("high", 0, "step: high cap in W (0 = uncapped)")
	lowW := flag.Float64("low", 90, "step/jagged/linear minimum cap in W; constant cap value")
	period := flag.Float64("period", 10, "step: seconds per level")
	startW := flag.Float64("start", 170, "linear/jagged: starting cap in W")
	rate := flag.Float64("rate", 5, "linear: cap decrease in W/s")
	fall := flag.Float64("fall", 8, "jagged: seconds per descent")
	delay := flag.Float64("delay", 4, "linear: uncapped delay in seconds")
	backend := flag.String("backend", "msr", "power-actuation backend: msr (register daemon) or sysfs (hardened actuator over the emulated powercap tree)")
	publish := flag.String("publish", "", "serve progress over TCP pub/sub on this address (e.g. 127.0.0.1:5556)")
	pace := flag.Bool("pace", false, "slow the simulation to ~real time")
	logPath := flag.String("log", "", "append per-window telemetry as JSON lines to this file")
	flag.Parse()

	info, err := apps.Lookup(*app)
	if err != nil {
		log.Fatal(err)
	}
	if !info.Runnable() {
		log.Fatalf("%s is a Category %s application: no reliable online metric to monitor", info.Name, info.Category)
	}

	var scheme policy.Scheme
	switch *schemeName {
	case "none":
		scheme = policy.NoCap{}
	case "constant":
		scheme = policy.Constant{Watts: *lowW}
	case "linear":
		scheme = policy.Linear{
			Delay:       time.Duration(*delay * float64(time.Second)),
			StartW:      *startW,
			MinW:        *lowW,
			RateWPerSec: *rate,
		}
	case "step":
		scheme = policy.Step{
			HighW:   *highW,
			LowW:    *lowW,
			HighFor: time.Duration(*period * float64(time.Second)),
			LowFor:  time.Duration(*period * float64(time.Second)),
		}
	case "jagged":
		scheme = policy.Jagged{
			StartW:      *startW,
			LowW:        *lowW,
			FallFor:     time.Duration(*fall * float64(time.Second)),
			UncappedFor: time.Duration(*delay * float64(time.Second)),
		}
	default:
		log.Fatalf("unknown scheme %q", *schemeName)
	}

	w := info.Build(*seconds)
	cfg := engine.DefaultConfig()
	cfg.Seed = *seed
	e, err := engine.New(cfg, w)
	if err != nil {
		log.Fatal(err)
	}
	// The sysfs backend routes every cap write through the hardened
	// actuator (retry/backoff, failover to the register path, safe-cap
	// park); msr keeps the legacy register daemon, byte-identical to
	// runs before backends existed.
	var act *rapl.Actuator
	switch *backend {
	case "", "msr":
		if err := e.SetScheme(scheme); err != nil {
			log.Fatal(err)
		}
	case "sysfs":
		zone := powercap.NewZone(e.Device(), msr.DefaultUnits())
		act = rapl.NewActuator(rapl.ActuatorConfig{
			Backends: []rapl.Backend{
				powercap.NewBackend(zone),
				rapl.NewMSRBackend(e.Device(), 10*time.Millisecond),
			},
			Seed: *seed,
		})
		if err := e.SetSchemeVia(scheme, rapl.Writer{Act: act}); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown backend %q (want msr or sysfs)", *backend)
	}

	// Optional TCP bridge: forward the engine's in-process progress
	// stream to external subscribers. printPubStats reports transport
	// health (per-subscriber queue depth, sheds, lost connections) on every
	// exit path so silently-lossy monitors are visible post-mortem.
	printPubStats := func() {}
	if *publish != "" {
		pub, err := pubsub.NewPublisher(*publish)
		if err != nil {
			log.Fatal(err)
		}
		defer pub.Close()
		printPubStats = func() {
			st := pub.Stats()
			log.Printf("transport: %d conns accepted (%d lost), %d live, %d messages shed",
				st.Accepted, st.ConnsLost, st.Live, st.Dropped)
			for _, s := range st.Subscribers {
				log.Printf("transport:   %s prefixes=%v queued=%d shed=%d",
					s.Remote, s.Prefixes, s.QueueDepth, s.Dropped)
			}
		}
		log.Printf("publishing progress on %s (topic %q)", pub.Addr(), progress.Topic(w.Name))
		sub := e.Bus().Subscribe(progress.Topic(w.Name), 4096)
		go func() {
			for {
				m, ok := sub.Recv()
				if !ok {
					return
				}
				pub.Publish(m)
			}
		}()
		defer sub.Close()
	}

	var logFile *os.File
	var logEnc *json.Encoder
	if *logPath != "" {
		var err error
		logFile, err = os.OpenFile(*logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		logEnc = json.NewEncoder(logFile)
	}
	// closeTelemetry fsyncs and closes the JSON-lines log exactly once;
	// every exit path (clean, incomplete, interrupted) runs through it so
	// a tail of buffered telemetry is never lost. Deliberately not a
	// defer: the incomplete-workload path exits with os.Exit, which would
	// skip it.
	closeTelemetry := func() {
		if logFile == nil {
			return
		}
		if err := logFile.Sync(); err != nil {
			log.Printf("telemetry log sync: %v", err)
		}
		if err := logFile.Close(); err != nil {
			log.Printf("telemetry log close: %v", err)
		}
		logFile = nil
	}

	fmt.Printf("# app=%s metric=%q scheme=%s\n", info.Name, w.Metric, scheme.Name())
	fmt.Printf("%8s  %8s  %8s  %8s  %12s\n", "t(s)", "cap(W)", "pkg(W)", "f(MHz)", "progress/s")
	e.SetWindowHook(func(ws engine.WindowStats) {
		capStr := "none"
		if ws.CapW > 0 {
			capStr = fmt.Sprintf("%.0f", ws.CapW)
		}
		fmt.Printf("%8.1f  %8s  %8.1f  %8.0f  %12.2f\n",
			ws.At.Seconds(), capStr, ws.PkgW, ws.FreqMHz, ws.Sample.Rate)
		if logEnc != nil {
			rec := map[string]interface{}{
				"t_s":      ws.At.Seconds(),
				"app":      w.Name,
				"scheme":   scheme.Name(),
				"cap_w":    ws.CapW,
				"pkg_w":    ws.PkgW,
				"freq_mhz": ws.FreqMHz,
				"duty":     ws.Duty,
				"bw_scale": ws.BWScale,
				"rate":     ws.Sample.Rate,
				"reports":  ws.Sample.Reports,
				"phase":    ws.Sample.Phase,
			}
			if err := logEnc.Encode(rec); err != nil {
				log.Printf("telemetry log: %v", err)
			}
		}
		if *pace {
			time.Sleep(time.Second)
		}
	})

	// Advance window-by-window so SIGINT/SIGTERM can interrupt between
	// aggregation windows: the final partial window is still flushed (by
	// Finish), the telemetry log is fsynced, and the summary line prints
	// — a Ctrl-C mid-experiment leaves a complete, parseable record.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	maxDur := time.Duration(*seconds*6) * time.Second
	interrupted := false
loop:
	for e.Clock().Now() < maxDur {
		select {
		case s := <-sigCh:
			log.Printf("received %v: flushing final window", s)
			interrupted = true
			break loop
		default:
		}
		done, err := e.Advance(time.Second)
		if err != nil {
			closeTelemetry()
			log.Fatal(err)
		}
		if done {
			break
		}
	}
	res, err := e.Finish()
	if err != nil {
		closeTelemetry()
		log.Fatal(err)
	}
	fmt.Printf("# completed=%v elapsed=%.1fs energy=%.0fJ mean=%.2f %s, %d reports (%d dropped)\n",
		res.Completed, res.Elapsed.Seconds(), res.EnergyJ, res.MeanRate(), w.Metric,
		len(res.Samples), res.Dropped)
	if act != nil {
		c := act.Counters()
		fmt.Printf("# actuation: backend=sysfs attempts=%d retries=%d failovers=%d parks=%d transient=%d permanent=%d\n",
			c.Attempts, c.Retries, c.Failovers, c.Parks, c.TransientErrs, c.PermanentErrs)
	}
	printPubStats()
	closeTelemetry()
	if interrupted {
		fmt.Println("# interrupted: partial run, telemetry flushed")
		return
	}
	if !res.Completed {
		os.Exit(1)
	}
}
