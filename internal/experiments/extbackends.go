package experiments

import (
	"fmt"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/engine"
	"progresscap/internal/fault"
	"progresscap/internal/msr"
	"progresscap/internal/policy"
	"progresscap/internal/powercap"
	"progresscap/internal/rapl"
	"progresscap/internal/trace"
)

// ExtBackends characterizes the hardened multi-backend actuation path:
// what monitoring actually costs as the sampling rate rises, how the
// retry/failover machinery behaves as the sysfs powercap tree degrades,
// and what the node does when the actuation surface disappears outright.
//
//	A — sampling frequency × backend monitoring-cost sweep. Both
//	    backends are polled side by side at rates from 1 Hz to 100 Hz;
//	    the modeled per-sample cost (2 µs register read vs 20 µs sysfs
//	    open/read/parse) turns into a monotone overhead curve.
//	B — fault-rate sweep on the sysfs backend with the register path as
//	    failover. The cap must stay enforced (zero budget overshoot in
//	    every steady window) at every fault rate; the counters show the
//	    retry → failover escalation.
//	C — total outage: the powercap tree vanishes mid-run with no
//	    failover configured. The actuator parks the safe cap, the RAPL
//	    deadman reverts the register within one TTL, and the daemon
//	    re-establishes the cap within one epoch of the tree returning.
func ExtBackends(opts Options) (*Artifact, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}

	art := &Artifact{
		ID:    "ext-backends",
		Title: "Extension: hardened actuation backends — monitoring cost, failover, outage park",
	}

	costs, costNotes, err := backendCostSweep(opts)
	if err != nil {
		return nil, fmt.Errorf("ext-backends: cost sweep: %w", err)
	}
	faults, faultNotes, err := backendFaultSweep(opts)
	if err != nil {
		return nil, fmt.Errorf("ext-backends: fault sweep: %w", err)
	}
	outage, outageNotes, err := backendOutage(opts)
	if err != nil {
		return nil, fmt.Errorf("ext-backends: outage: %w", err)
	}

	costs.Title = "A: sampling frequency vs modeled monitoring overhead (8 s run, 100 W cap)"
	faults.Title = "B: sysfs fault-rate sweep with register failover (10 s run, 100 W cap)"
	outage.Title = "C: powercap tree offline 4 s - 5.5 s, no failover (90 W cap, 60 W safe cap, 2 s deadman TTL)"
	art.Tables = []*trace.Table{costs, faults, outage}
	art.Notes = append(art.Notes, costNotes...)
	art.Notes = append(art.Notes, faultNotes...)
	art.Notes = append(art.Notes, outageNotes...)
	return art, nil
}

// backendCostSweep runs one capped workload while polling both backends'
// energy counters at several rates, and tabulates the modeled overhead.
func backendCostSweep(opts Options) (*trace.Table, []string, error) {
	const dur = 8 * time.Second
	cfg := opts.engineConfig()
	cfg.Seed = opts.Seed
	e, err := engine.New(cfg, apps.LAMMPS(apps.DefaultRanks, 5000))
	if err != nil {
		return nil, nil, err
	}
	if err := e.SetScheme(policy.Constant{Watts: 100}); err != nil {
		return nil, nil, err
	}

	zone := powercap.NewZone(e.Device(), msr.DefaultUnits())
	msrB := rapl.NewMSRBackend(e.Device(), 10*time.Millisecond)
	sysB := powercap.NewBackend(zone)
	intervals := []time.Duration{time.Second, 250 * time.Millisecond, 50 * time.Millisecond, 10 * time.Millisecond}
	type pair struct{ m, s *rapl.Sampler }
	samplers := make([]pair, len(intervals))
	for i, iv := range intervals {
		samplers[i] = pair{rapl.NewSampler(msrB, iv), rapl.NewSampler(sysB, iv)}
		// Prime at t=0 so every rate integrates the same [0, dur] span;
		// otherwise a 1 Hz sampler loses its whole first period.
		samplers[i].m.Poll(0)
		samplers[i].s.Poll(0)
	}

	const step = 10 * time.Millisecond
	for now := step; now <= dur; now += step {
		if _, err := e.Advance(step); err != nil {
			return nil, nil, err
		}
		for i, iv := range intervals {
			if now%iv == 0 {
				samplers[i].m.Poll(now)
				samplers[i].s.Poll(now)
			}
		}
	}
	res, err := e.Finish()
	if err != nil {
		return nil, nil, err
	}

	tbl := trace.NewTable("", "Interval", "Samples", "MSR overhead (µs)", "sysfs overhead (µs)", "sysfs energy err %")
	var prevMSR, prevSys time.Duration
	monotone := true
	for i, iv := range intervals {
		mN, _, mOv := samplers[i].m.Stats()
		_, _, sOv := samplers[i].s.Stats()
		if i > 0 && (mOv <= prevMSR || sOv <= prevSys) {
			monotone = false
		}
		prevMSR, prevSys = mOv, sOv
		errPct := 100 * (samplers[i].s.TotalJ() - res.EnergyJ) / res.EnergyJ
		if errPct < 0 {
			errPct = -errPct
		}
		tbl.AddRow(iv.String(), fmt.Sprintf("%d", mN),
			fmt.Sprintf("%.0f", float64(mOv.Nanoseconds())/1e3),
			fmt.Sprintf("%.0f", float64(sOv.Nanoseconds())/1e3),
			fmt.Sprintf("%.2f", errPct))
	}
	_, _, fastSys := samplers[len(intervals)-1].s.Stats()
	notes := []string{
		fmt.Sprintf("overhead curve monotone in sampling rate: %v; sysfs costs %dx the register read per sample;",
			monotone, powercap.DefaultSampleCost/rapl.MSRSampleCost),
		fmt.Sprintf("at 100 Hz the sysfs monitor spends %.1f ms of an %.0f s run (%.4f%%) in the kernel interface.",
			float64(fastSys.Nanoseconds())/1e6, dur.Seconds(), 100*float64(fastSys)/float64(dur)),
	}
	return tbl, notes, nil
}

// backendFaultSweep drives the constant-cap daemon through the hardened
// actuator (sysfs primary, register failover) while the powercap tree
// degrades, and checks the cap stays enforced in every steady window.
func backendFaultSweep(opts Options) (*trace.Table, []string, error) {
	const (
		dur     = 10 * time.Second
		capW    = 100.0
		settleW = 3 // windows excluded from the overshoot check
	)
	tbl := trace.NewTable("", "Fault rate", "Attempts", "Retries", "Failovers", "Parks", "Worst overshoot (W)")
	worstAll := 0.0
	var lastCounters rapl.ActuatorCounters
	for _, rate := range []float64{0, 0.10, 0.25, 0.40} {
		cfg := opts.engineConfig()
		cfg.Seed = opts.Seed
		e, err := engine.New(cfg, apps.LAMMPS(apps.DefaultRanks, 5000))
		if err != nil {
			return nil, nil, err
		}
		zone := powercap.NewZone(e.Device(), msr.DefaultUnits())
		if rate > 0 {
			inj := fault.NewInjector(fault.Plan{Seed: opts.Seed | 1, Powercap: &fault.PowercapPlan{
				WriteAgainRate: rate,
				WriteEIORate:   rate / 2,
				TruncateRate:   rate / 4,
				ReadAgainRate:  rate / 2,
			}})
			e.SetFaults(inj)
			zone.SetFaultHook(inj.Powercap().Hook())
		}
		act := rapl.NewActuator(rapl.ActuatorConfig{
			Backends: []rapl.Backend{
				powercap.NewBackend(zone),
				rapl.NewMSRBackend(e.Device(), 10*time.Millisecond),
			},
			Seed: opts.Seed,
		})
		if err := e.SetSchemeVia(policy.Constant{Watts: capW}, rapl.Writer{Act: act}); err != nil {
			return nil, nil, err
		}
		if _, err := e.Advance(dur); err != nil {
			return nil, nil, err
		}
		res, err := e.Finish()
		if err != nil {
			return nil, nil, err
		}
		worst := 0.0
		for i := settleW; i < res.PowerTrace.Len()-1; i++ {
			if over := res.PowerTrace.At(i).V - capW; over > worst {
				worst = over
			}
		}
		if worst > worstAll {
			worstAll = worst
		}
		c := act.Counters()
		lastCounters = c
		tbl.AddRow(fmt.Sprintf("%.0f%%", rate*100),
			fmt.Sprintf("%d", c.Attempts), fmt.Sprintf("%d", c.Retries),
			fmt.Sprintf("%d", c.Failovers), fmt.Sprintf("%d", c.Parks),
			fmt.Sprintf("%.2f", worst))
	}
	notes := []string{
		fmt.Sprintf("worst steady-window overshoot across all fault rates: %.2f W against the %.0f W cap;", worstAll, capW),
		fmt.Sprintf("at the 40%% rate the actuator absorbed %d transient errors (%d retries, %d failovers) without a park.",
			lastCounters.TransientErrs, lastCounters.Retries, lastCounters.Failovers),
	}
	return tbl, notes, nil
}

// backendOutage runs the sysfs backend with no failover, takes the
// powercap tree offline mid-run, and tabulates the enforced register cap
// window by window: park, deadman revert within one TTL, re-establish
// within one epoch of recovery.
func backendOutage(opts Options) (*trace.Table, []string, error) {
	const (
		dur      = 12 * time.Second
		capW     = 90.0
		safeCapW = 60.0
		ttl      = 2 * time.Second
	)
	goneFrom, goneTo := 4*time.Second, 5500*time.Millisecond

	cfg := opts.engineConfig()
	cfg.Seed = opts.Seed
	e, err := engine.New(cfg, apps.LAMMPS(apps.DefaultRanks, 5000))
	if err != nil {
		return nil, nil, err
	}
	zone := powercap.NewZone(e.Device(), msr.DefaultUnits())
	inj := fault.NewInjector(fault.Plan{Seed: opts.Seed | 1, Powercap: &fault.PowercapPlan{
		GoneWindows: []fault.Window{{From: goneFrom, To: goneTo}},
	}})
	e.SetFaults(inj)
	zone.SetFaultHook(inj.Powercap().Hook())

	var parks []time.Duration
	act := rapl.NewActuator(rapl.ActuatorConfig{
		Backends: []rapl.Backend{powercap.NewBackend(zone)},
		SafeCapW: safeCapW,
		Seed:     opts.Seed,
		OnPark:   func(now time.Duration, capW float64) { parks = append(parks, now) },
	})
	if err := e.SetSchemeVia(policy.Constant{Watts: capW}, rapl.Writer{Act: act}); err != nil {
		return nil, nil, err
	}
	if err := e.SetDeadman(rapl.Deadman{TTL: ttl, DefaultCapW: safeCapW}); err != nil {
		return nil, nil, err
	}

	// Register ground truth per window: the decode bypasses nothing —
	// it is the same read path the plant enforces from.
	registerCap := func() float64 {
		raw, err := e.Device().Read(msr.PkgPowerLimit)
		if err != nil {
			return -1
		}
		pl1, _ := msr.DecodePowerLimits(raw, msr.DefaultUnits())
		if !pl1.Enabled {
			return 0
		}
		return pl1.Watts
	}

	tbl := trace.NewTable("", "t (s)", "Register cap (W)", "Phase")
	type sample struct {
		at  time.Duration
		cap float64
	}
	var caps []sample
	const step = 500 * time.Millisecond
	for now := step; now <= dur; now += step {
		if _, err := e.Advance(step); err != nil {
			return nil, nil, err
		}
		c := registerCap()
		caps = append(caps, sample{now, c})
		phase := "enforcing"
		switch {
		case now > goneFrom && now <= goneTo:
			phase = "tree offline"
		case c == safeCapW:
			phase = "deadman revert"
		}
		tbl.AddRow(fmt.Sprintf("%.1f", now.Seconds()), fmt.Sprintf("%.1f", c), phase)
	}
	if _, err := e.Finish(); err != nil {
		return nil, nil, err
	}

	// Safety and recovery facts the acceptance test pins.
	worstCap := 0.0
	reverted := false
	var recoveredAt time.Duration
	for _, s := range caps {
		if s.cap > worstCap {
			worstCap = s.cap
		}
		if s.cap == safeCapW && s.at >= goneFrom && s.at <= goneFrom+ttl+time.Second {
			reverted = true
		}
		if recoveredAt == 0 && s.at > goneTo && s.cap == capW {
			recoveredAt = s.at
		}
	}
	notes := []string{
		fmt.Sprintf("parks=%d (first at %v); enforced cap never exceeded the %.0f W budget cap (max %.1f W);",
			len(parks), firstPark(parks), capW, worstCap),
		fmt.Sprintf("deadman reverted to the %.0f W safe cap within one %v TTL of the outage: %v;", safeCapW, ttl, reverted),
		fmt.Sprintf("cap re-established %.1f s after the tree returned (within one %v lease TTL).",
			(recoveredAt - goneTo).Seconds(), ttl),
	}
	if !reverted || recoveredAt == 0 || recoveredAt-goneTo > ttl || worstCap > capW || len(parks) == 0 {
		return nil, nil, fmt.Errorf("outage invariants violated: parks=%d reverted=%v recoveredAt=%v worstCap=%.1f",
			len(parks), reverted, recoveredAt, worstCap)
	}
	return tbl, notes, nil
}

func firstPark(parks []time.Duration) time.Duration {
	if len(parks) == 0 {
		return 0
	}
	return parks[0]
}
