package rapl

// Hardened multi-backend power actuation. The plain register path
// (Writer with no Actuator) retries a transient EIO exactly once and
// otherwise surfaces the error; that is the right shape for the
// byte-identical baseline paths, but a production power manager drives
// caps through whichever interface the node offers — raw msr-safe
// registers or the powercap sysfs tree — and each fails in its own
// ways. The Actuator layers on top of any set of backends:
//
//   - per-operation deadlines with capped exponential backoff and
//     seeded jitter, accounted in virtual time so retries are visible
//     to the simulation instead of hidden in wall clock;
//   - transient-vs-permanent error classification (structural
//     Temporary() predicate, msr.ErrIO, read-back mismatches);
//   - read-back verification after every cap write, which is the only
//     way a silently truncated sysfs store is ever caught;
//   - a per-backend health state machine (healthy → flaky → down →
//     probation) with doubling cooldowns, failing over to the next
//     backend while one is down and failing back after a clean
//     probation;
//   - a park action when every backend is down: a best-effort safe cap
//     is programmed everywhere and the caller is told, so the budget
//     invariant degrades to the conservative cap instead of whatever
//     limit happened to be latched.
//
// Everything is deterministic given (config, seed): backoff jitter
// comes from a simtime RNG and time only advances by modeled backoff.
// The Actuator is strictly opt-in — no default engine, NRM, or cluster
// path constructs one, so runs that do not ask for hardened actuation
// execute the exact same device accesses as before. Callers plug it in
// as Writer{Act: a}, which is also the one place a park is absorbed.

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"progresscap/internal/msr"
	"progresscap/internal/simtime"
)

// Backend is one way of actuating and observing the package power cap.
// Implementations: MSRBackend (registers) and powercap.Backend (sysfs),
// which satisfies this interface structurally.
type Backend interface {
	// Name identifies the backend in counters and journals.
	Name() string
	// WriteCapW programs the cap; watts <= 0 releases it. A nil return
	// does NOT guarantee the cap latched (sysfs writes truncate
	// silently) — callers must verify via ReadCapW.
	WriteCapW(now time.Duration, watts float64) error
	// ReadCapW returns the programmed cap in watts and whether capping
	// is enabled.
	ReadCapW(now time.Duration) (float64, bool, error)
	// EnergyRaw returns the wrapping energy counter image.
	EnergyRaw(now time.Duration) (uint64, error)
	// WrapModulus is the modulus EnergyRaw wraps at.
	WrapModulus() uint64
	// JoulesPerCount converts raw energy counts to joules.
	JoulesPerCount() float64
	// SampleCost is the modeled wall-clock cost of one EnergyRaw call.
	SampleCost() time.Duration
}

// MSRSampleCost is the modeled cost of one raw MSR energy read: a
// single whitelisted rdmsr is roughly an order of magnitude cheaper
// than a sysfs open/read/parse round-trip.
const MSRSampleCost = 2 * time.Microsecond

// MSRBackend actuates through the register-level device, reusing the
// same WriteLimit encoding as the plain Writer path.
type MSRBackend struct {
	dev    *msr.Device
	units  msr.Units
	window time.Duration
}

// NewMSRBackend returns a register-level backend. window is the PL1
// averaging window (default 10 ms, matching the policy daemon).
func NewMSRBackend(dev *msr.Device, window time.Duration) *MSRBackend {
	if dev == nil {
		panic("rapl: nil device")
	}
	if window <= 0 {
		window = 10 * time.Millisecond
	}
	return &MSRBackend{dev: dev, units: msr.DefaultUnits(), window: window}
}

// Name identifies the backend.
func (b *MSRBackend) Name() string { return "msr" }

// WriteCapW programs the cap through the whitelisted register path.
func (b *MSRBackend) WriteCapW(now time.Duration, watts float64) error {
	return WriteLimit(b.dev, watts, b.window)
}

// ReadCapW decodes the PL1 window of the power-limit register.
func (b *MSRBackend) ReadCapW(now time.Duration) (float64, bool, error) {
	v, err := b.dev.Read(msr.PkgPowerLimit)
	if err != nil {
		return 0, false, err
	}
	pl1 := msr.DecodePowerLimit(v&0xFFFFFFFF, b.units)
	return pl1.Watts, pl1.Enabled, nil
}

// EnergyRaw returns the 32-bit package energy register image.
func (b *MSRBackend) EnergyRaw(now time.Duration) (uint64, error) {
	v, err := b.dev.Read(msr.PkgEnergyStatus)
	return v & 0xFFFFFFFF, err
}

// WrapModulus is the 32-bit register wrap.
func (b *MSRBackend) WrapModulus() uint64 { return msr.EnergyWrapModulus }

// JoulesPerCount is the RAPL energy unit.
func (b *MSRBackend) JoulesPerCount() float64 { return b.units.EnergyUnit() }

// SampleCost is the modeled cost of one rdmsr.
func (b *MSRBackend) SampleCost() time.Duration { return MSRSampleCost }

// Health is a backend's position in the failover state machine.
type Health int

// Health states. Transitions: Healthy → Flaky after FlakyAfter
// consecutive transient failures, → Down after DownAfter (or any
// permanent error); Down → Probation once the (doubling) cooldown
// elapses; Probation → Healthy after ProbationOps clean operations, or
// straight back to Down on any failure.
const (
	HealthHealthy Health = iota
	HealthFlaky
	HealthDown
	HealthProbation
)

// String returns the journal spelling.
func (h Health) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthFlaky:
		return "flaky"
	case HealthDown:
		return "down"
	case HealthProbation:
		return "probation"
	}
	return fmt.Sprintf("Health(%d)", int(h))
}

// ActuatorConfig parameterizes the hardening layer. Zero fields take
// the documented defaults.
type ActuatorConfig struct {
	// Backends in preference order; the first usable one is driven and
	// later ones are failover targets. At least one is required.
	Backends []Backend
	// OpDeadline bounds the total modeled backoff one WriteCap spends on
	// a single backend before failing over (default 50 ms).
	OpDeadline time.Duration
	// BaseBackoff/MaxBackoff bound the capped exponential retry delay
	// (defaults 1 ms / 16 ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterFrac is the multiplicative jitter amplitude on each backoff
	// (default 0.25).
	JitterFrac float64
	// FlakyAfter / DownAfter are the consecutive-transient-failure
	// thresholds (defaults 2 / 5).
	FlakyAfter int
	DownAfter  int
	// Cooldown is the first down→probation delay; it doubles per
	// consecutive down episode up to MaxCooldown (defaults 250 ms / 2 s).
	Cooldown    time.Duration
	MaxCooldown time.Duration
	// ProbationOps is how many clean operations redeem a probation
	// backend (default 3).
	ProbationOps int
	// SafeCapW is the conservative cap parked onto every backend when
	// all are down (default FirmwareDefaultCapW — the same value the
	// deadman reverts to, so a parked node is indistinguishable from a
	// lease expiry to the budget oracles).
	SafeCapW float64
	// Seed drives backoff jitter (default 1).
	Seed uint64
	// OnPark, when set, journals each park action.
	OnPark func(now time.Duration, capW float64)
}

// ActuatorCounters are the cumulative hardening statistics surfaced in
// NRM decisions and scheduler summaries.
type ActuatorCounters struct {
	// Attempts counts individual backend write+verify attempts.
	Attempts uint64
	// Retries counts backoff-then-retry transitions.
	Retries uint64
	// Failovers counts switches to an alternate backend within one
	// WriteCap.
	Failovers uint64
	// Parks counts all-backends-down safe-cap parks.
	Parks uint64
	// TransientErrs / PermanentErrs split the classified failures.
	TransientErrs uint64
	PermanentErrs uint64
	// BackoffVirtual is the total modeled time spent backing off.
	BackoffVirtual time.Duration
}

// Merge folds another counter snapshot into c (suite-level
// aggregation across runs).
func (c *ActuatorCounters) Merge(o ActuatorCounters) {
	c.Attempts += o.Attempts
	c.Retries += o.Retries
	c.Failovers += o.Failovers
	c.Parks += o.Parks
	c.TransientErrs += o.TransientErrs
	c.PermanentErrs += o.PermanentErrs
	c.BackoffVirtual += o.BackoffVirtual
}

// BackendStatus is one backend's health snapshot.
type BackendStatus struct {
	Name       string
	Health     Health
	DownStreak int
}

// ErrAllBackendsDown is wrapped by WriteCap when no backend accepted
// the cap and the actuator parked at the safe cap.
var ErrAllBackendsDown = errors.New("rapl: all actuation backends down")

// errVerifyMismatch marks a write whose read-back did not match — a
// truncated or lost store. It is transient: the retry rewrites.
var errVerifyMismatch = errors.New("rapl: cap read-back mismatch (truncated or lost write)")

// capVerifyTolW tolerates both backends' quantization: the register
// unit is 1/8 W, and sysfs floors where the raw path rounds, so a
// correct latch is always within one unit of the request.
const capVerifyTolW = 0.125 + 1e-9

type backendState struct {
	// b is wiring: backends are matched positionally.
	b               Backend `snap:"-"`
	health          Health
	consecTransient int
	cleanOps        int
	downSince       time.Duration
	downStreak      int
}

// Actuator drives power caps through a preference-ordered backend list
// with retry, verification, failover, and safe-cap parking. It is safe
// for concurrent use.
type Actuator struct {
	mu sync.Mutex
	// cfg is construction configuration.
	cfg      ActuatorConfig `snap:"-"`
	backends []*backendState
	rng      *simtime.RNG
	counters ActuatorCounters
	parked   bool
}

// NewActuator returns an actuator over cfg.Backends.
func NewActuator(cfg ActuatorConfig) *Actuator {
	if len(cfg.Backends) == 0 {
		panic("rapl: actuator needs at least one backend")
	}
	if cfg.OpDeadline <= 0 {
		cfg.OpDeadline = 50 * time.Millisecond
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 16 * time.Millisecond
	}
	if cfg.JitterFrac == 0 {
		cfg.JitterFrac = 0.25
	}
	if cfg.FlakyAfter <= 0 {
		cfg.FlakyAfter = 2
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 250 * time.Millisecond
	}
	if cfg.MaxCooldown <= 0 {
		cfg.MaxCooldown = 2 * time.Second
	}
	if cfg.ProbationOps <= 0 {
		cfg.ProbationOps = 3
	}
	if cfg.SafeCapW <= 0 {
		cfg.SafeCapW = FirmwareDefaultCapW
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	a := &Actuator{cfg: cfg, rng: simtime.NewRNG(cfg.Seed)}
	for _, b := range cfg.Backends {
		a.backends = append(a.backends, &backendState{b: b})
	}
	return a
}

// WriteCap programs the cap through the first backend that accepts and
// verifiably latches it, retrying transients with backoff and failing
// over on exhaustion. When every backend is down it parks the safe cap
// everywhere (best effort) and returns an error wrapping
// ErrAllBackendsDown.
func (a *Actuator) WriteCap(now time.Duration, watts float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	tried := 0
	for _, bs := range a.backends {
		if !a.usable(bs, now) {
			continue
		}
		if tried > 0 {
			a.counters.Failovers++
		}
		tried++
		if a.attempt(bs, now, watts) {
			a.parked = false
			return nil
		}
	}
	a.counters.Parks++
	a.parked = true
	safe := a.cfg.SafeCapW
	for _, bs := range a.backends {
		// Best effort, unverified: a down backend usually rejects this
		// too, but a half-alive one latching the safe cap beats leaving
		// whatever limit the last truncated write programmed.
		_ = bs.b.WriteCapW(now, safe)
	}
	if a.cfg.OnPark != nil {
		a.cfg.OnPark(now, safe)
	}
	return fmt.Errorf("%w: parked at %.6g W", ErrAllBackendsDown, safe)
}

// attempt drives one backend's retry loop; it reports whether the cap
// verifiably latched.
func (a *Actuator) attempt(bs *backendState, now time.Duration, watts float64) bool {
	var spent time.Duration
	backoff := a.cfg.BaseBackoff
	for {
		a.counters.Attempts++
		err := bs.b.WriteCapW(now+spent, watts)
		if err == nil {
			err = verifyCap(bs.b, now+spent, watts)
		}
		if err == nil {
			a.recordSuccess(bs)
			return true
		}
		if !transientErr(err) {
			a.counters.PermanentErrs++
			a.markDown(bs, now+spent)
			return false
		}
		a.counters.TransientErrs++
		a.recordTransient(bs, now+spent)
		if bs.health == HealthDown {
			return false
		}
		d := time.Duration(float64(backoff) * a.rng.Jitter(a.cfg.JitterFrac))
		if spent+d > a.cfg.OpDeadline {
			return false
		}
		spent += d
		a.counters.Retries++
		a.counters.BackoffVirtual += d
		backoff *= 2
		if backoff > a.cfg.MaxBackoff {
			backoff = a.cfg.MaxBackoff
		}
	}
}

// verifyCap reads the cap back and checks it latched. watts <= 0 must
// read back disabled; otherwise the backend must be enabled within one
// register unit of the request.
func verifyCap(b Backend, now time.Duration, watts float64) error {
	got, enabled, err := b.ReadCapW(now)
	if err != nil {
		return err
	}
	if watts <= 0 {
		if enabled {
			return errVerifyMismatch
		}
		return nil
	}
	if !enabled || math.Abs(got-watts) > capVerifyTolW {
		return errVerifyMismatch
	}
	return nil
}

// transientErr classifies an actuation error: structural Temporary()
// (the powercap errno family), the legacy msr.ErrIO, and read-back
// mismatches are retryable; whitelist violations, permission and
// not-found errors are not.
func transientErr(err error) bool {
	var t interface{ Temporary() bool }
	if errors.As(err, &t) {
		return t.Temporary()
	}
	return errors.Is(err, msr.ErrIO) || errors.Is(err, errVerifyMismatch)
}

func (a *Actuator) recordSuccess(bs *backendState) {
	bs.consecTransient = 0
	if bs.health == HealthProbation {
		bs.cleanOps++
		if bs.cleanOps >= a.cfg.ProbationOps {
			bs.health = HealthHealthy
			bs.downStreak = 0
			bs.cleanOps = 0
		}
		return
	}
	bs.health = HealthHealthy
}

func (a *Actuator) recordTransient(bs *backendState, now time.Duration) {
	bs.consecTransient++
	switch {
	case bs.health == HealthProbation:
		a.markDown(bs, now)
	case bs.consecTransient >= a.cfg.DownAfter:
		a.markDown(bs, now)
	case bs.consecTransient >= a.cfg.FlakyAfter:
		bs.health = HealthFlaky
	}
}

func (a *Actuator) markDown(bs *backendState, now time.Duration) {
	bs.health = HealthDown
	bs.downSince = now
	bs.downStreak++
	bs.consecTransient = 0
	bs.cleanOps = 0
}

// usable reports whether the backend may be driven at now, promoting a
// cooled-down backend into probation as a side effect.
func (a *Actuator) usable(bs *backendState, now time.Duration) bool {
	if bs.health != HealthDown {
		return true
	}
	if now-bs.downSince >= a.cooldown(bs.downStreak) {
		bs.health = HealthProbation
		bs.cleanOps = 0
		return true
	}
	return false
}

// cooldown doubles per consecutive down episode, capped.
func (a *Actuator) cooldown(streak int) time.Duration {
	cd := a.cfg.Cooldown
	for i := 1; i < streak; i++ {
		cd *= 2
		if cd >= a.cfg.MaxCooldown {
			return a.cfg.MaxCooldown
		}
	}
	return cd
}

// Counters returns the cumulative hardening statistics.
func (a *Actuator) Counters() ActuatorCounters {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.counters
}

// Parked reports whether the last WriteCap ended in a safe-cap park
// with no subsequent successful actuation.
func (a *Actuator) Parked() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.parked
}

// Status snapshots every backend's health.
func (a *Actuator) Status() []BackendStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]BackendStatus, len(a.backends))
	for i, bs := range a.backends {
		out[i] = BackendStatus{Name: bs.b.Name(), Health: bs.health, DownStreak: bs.downStreak}
	}
	return out
}

// SafeCapW returns the configured park cap.
func (a *Actuator) SafeCapW() float64 { return a.cfg.SafeCapW }

// Sampler polls a backend's energy counter at a fixed interval,
// accumulating wrap-safe joules and the modeled monitoring overhead —
// the per-sample cost × sample count that the ext-backends experiment
// sweeps against sampling frequency.
type Sampler struct {
	b        Backend
	interval time.Duration
	prevRaw  uint64
	primed   bool
	totalJ   float64
	samples  uint64
	failures uint64
	overhead time.Duration
}

// NewSampler returns a sampler polling b every interval (default 1 s).
func NewSampler(b Backend, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = time.Second
	}
	return &Sampler{b: b, interval: interval}
}

// Interval returns the sampling period.
func (s *Sampler) Interval() time.Duration { return s.interval }

// Poll samples the counter at now, returning the joules consumed since
// the previous successful sample. A failed read returns (0, false);
// the energy is recovered by the next good sample, exactly like
// EnergyReader's degraded semantics.
func (s *Sampler) Poll(now time.Duration) (dJ float64, ok bool) {
	s.samples++
	s.overhead += s.b.SampleCost()
	raw, err := s.b.EnergyRaw(now)
	if err != nil {
		s.failures++
		return 0, false
	}
	if !s.primed {
		s.prevRaw = raw
		s.primed = true
		return 0, true
	}
	dRaw := msr.WrapDelta(s.prevRaw, raw, s.b.WrapModulus())
	s.prevRaw = raw
	dJ = float64(dRaw) * s.b.JoulesPerCount()
	s.totalJ += dJ
	return dJ, true
}

// TotalJ returns the energy accumulated across all successful polls.
func (s *Sampler) TotalJ() float64 { return s.totalJ }

// Stats returns the sample count, failed-sample count, and cumulative
// modeled monitoring overhead.
func (s *Sampler) Stats() (samples, failures uint64, overhead time.Duration) {
	return s.samples, s.failures, s.overhead
}
