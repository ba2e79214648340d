// Package nrm implements the paper's node resource manager (§II): the
// per-node daemon of the Argo hierarchy that is "ultimately responsible
// for the enforcement of a power budget received from higher levels ...
// while improving application performance".
//
// The NRM owns the node's control knobs (the RAPL power limit via the
// whitelisted MSR interface, plain DVFS, duty-cycle modulation) and uses
// the paper's two ingredients to act intelligently:
//
//   - online progress (§III): the application-specific work rate it
//     monitors every second; and
//   - the analytical model (§VI): fitted from an uncapped baseline and
//     the measured β, used to predict the progress impact of candidate
//     enforcement strategies and to translate a progress expectation
//     into a power budget.
//
// Two operating modes mirror the paper's motivating policies:
//
//   - EnforceBudget: respect a (possibly changing) node power budget
//     with the least predicted progress impact, choosing between RAPL
//     capping and plain DVFS per the application's characteristics; and
//   - TargetProgress: given an expectation of online performance, derive
//     and apply the cheapest power budget expected to sustain it
//     (Eq. 4/5 inverted).
package nrm

import (
	"fmt"
	"math"
	"time"

	"progresscap/internal/engine"
	"progresscap/internal/journal"
	"progresscap/internal/model"
	"progresscap/internal/progress"
	"progresscap/internal/rapl"
	"progresscap/internal/stats"
	"progresscap/internal/trace"
)

// Knob identifies the enforcement mechanism the NRM picked for an epoch.
type Knob int

// Available knobs.
const (
	KnobNone Knob = iota // uncapped
	KnobRAPL
	KnobDVFS
)

func (k Knob) String() string {
	switch k {
	case KnobNone:
		return "none"
	case KnobRAPL:
		return "rapl"
	case KnobDVFS:
		return "dvfs"
	default:
		return fmt.Sprintf("Knob(%d)", int(k))
	}
}

// Mode is the NRM's trust state toward the progress signal.
type Mode int

// Modes of the degraded-signal state machine.
const (
	// ModeNormal: the progress signal is trusted and drives control.
	ModeNormal Mode = iota
	// ModeDegraded: the signal has gone silent or stale. The NRM stops
	// steering by progress and holds a conservative power cap — the
	// budget must stay enforced even blind, and the control loop must not
	// chase a rate of zero (which would read as "application stopped,
	// power is free" and overshoot the cap the moment work resumes).
	ModeDegraded
	// ModeProbation: reports have resumed after an outage, but the NRM
	// keeps the conservative cap for a backoff period before re-trusting
	// the signal; an immediate relapse doubles the next backoff.
	ModeProbation
)

func (m Mode) String() string {
	switch m {
	case ModeNormal:
		return "normal"
	case ModeDegraded:
		return "degraded"
	case ModeProbation:
		return "probation"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ModeTransition records one state-machine edge for the decision log.
type ModeTransition struct {
	At       time.Duration
	From, To Mode
	Reason   string
}

// Decision records one epoch's enforcement choice.
type Decision struct {
	At      time.Duration
	BudgetW float64 // 0 = no budget (uncapped)
	Knob    Knob
	Setting float64 // cap in W for RAPL, frequency in MHz for DVFS
	// PredictedRate is the model's expected online performance under
	// the decision (0 when no model is fitted yet).
	PredictedRate float64
	// Mode is the trust state the decision was made in.
	Mode Mode
	// Counters is the NRM's retry/restart counter snapshot after the
	// decision was actuated, so the decision log doubles as the
	// reliability telemetry stream.
	Counters Counters
}

// Config tunes the NRM.
type Config struct {
	// Epoch is the control period (default 1 s, like the paper's tool).
	Epoch time.Duration
	// CalibrationEpochs run uncapped to estimate the baseline rate and
	// power before the model is fitted (default 3).
	CalibrationEpochs int
	// Beta is the application's compute-boundedness. If zero, the NRM
	// estimates it online from the ratio of progress loss to frequency
	// loss once it has capped epochs to learn from; providing the
	// characterized value (Table VI) makes early decisions better.
	Beta float64
	// DVFSTable maps candidate pinned frequencies to expected package
	// power, measured offline (examples/nrm shows how). When empty the
	// NRM only uses RAPL.
	DVFSTable []DVFSPoint

	// StaleEpochs is how many consecutive report-free aggregation windows
	// the NRM tolerates before declaring the progress signal stale and
	// entering degraded mode (default 3; a single empty window is a known
	// benign artifact — the paper's OpenMC zero reports).
	StaleEpochs int
	// DegradedCapW is the conservative cap held while degraded. Zero
	// derives it as 80% of the calibrated baseline power — strictly less
	// than uncapped draw, so a silent node cannot breach its budget.
	DegradedCapW float64
	// BackoffEpochs is the initial probation length after the signal
	// resumes (default 2). Each relapse during probation doubles the next
	// probation, up to maxBackoffEpochs.
	BackoffEpochs int

	// Journal, when set, receives a write-ahead record of every cap
	// decision, model fit, and trust transition *before* it takes
	// effect, so a restarted daemon can Restore its pre-crash state
	// instead of re-calibrating against a still-capped plant.
	Journal *journal.Writer

	// Actuator, when set, routes every RAPL cap write through the
	// hardened multi-backend actuator (retry/backoff, health-state
	// failover, safe-cap park absorbed by rapl.Writer) instead of the
	// plain single-retry MSR path. Nil keeps the plain path; the
	// actuator's counters are merged into Counters() so they ride the
	// decision log.
	Actuator *rapl.Actuator
}

// Degraded-mode tuning: backoff doubling is bounded, and a long healthy
// run forgives past relapses.
const (
	maxBackoffEpochs   = 32
	backoffResetEpochs = 16
)

// DVFSPoint is one calibrated (frequency, package power) pair.
type DVFSPoint struct {
	MHz    float64
	PowerW float64
}

// trialEpochs is how long each candidate knob is tried before the NRM
// commits to the better-measured one.
const trialEpochs = 2

// trial tracks the online knob comparison for one budget level. The
// analytical model cannot rank RAPL against DVFS (it does not capture
// RAPL's non-DVFS enforcement — the paper's Fig 4d/Fig 5 finding), so
// the NRM measures both briefly using the online progress signal and
// commits to whichever preserved more progress.
type trial struct {
	budgetW   float64
	raplRates []float64
	dvfsRates []float64
	committed Knob // KnobNone until the comparison finishes
}

// NRM drives one node engine.
type NRM struct {
	cfg    Config
	eng    *engine.Engine
	params model.Params
	fitted bool

	epoch     int
	baseRate  float64
	basePowW  float64
	budgetW   float64
	targetRat float64 // target progress rate; 0 = budget mode

	trial *trial

	// Phase awareness: the detector watches the online-performance level
	// while the actuation is stable; a sustained level shift means the
	// application changed phase (Fig 1 right), so the NRM rescales its
	// baseline and re-runs the knob comparison.
	detector     *progress.PhaseDetector
	priorChanges []progress.PhaseChange
	lastKnob     Knob
	lastSetting  float64
	stableEpochs int
	phaseChanges int

	// Degraded-signal state machine.
	mode          Mode
	backoff       int // current probation length
	probationLeft int
	cleanEpochs   int
	transitions   []ModeTransition

	// startAt is the engine clock when this NRM instance began; fit()
	// measures calibration elapsed time from here so a Restored daemon
	// does not divide post-restart energy by pre-restart wall time.
	startAt  time.Duration
	counters Counters
	jErr     error // first journal-append failure, surfaced by Step

	// Wrap-safe energy accounting (replaces cumulative-from-zero reads,
	// which a seeded or wrapped RAPL counter silently corrupts).
	energy  *rapl.EnergyReader
	energyJ float64

	decisions []Decision
	rateTrace *trace.Series
}

// New wraps an engine (which must not have its own policy daemon).
func New(cfg Config, eng *engine.Engine) (*NRM, error) {
	if cfg.Epoch == 0 {
		cfg.Epoch = time.Second
	}
	if cfg.Epoch < 100*time.Millisecond {
		return nil, fmt.Errorf("nrm: epoch %v too short", cfg.Epoch)
	}
	if cfg.CalibrationEpochs == 0 {
		cfg.CalibrationEpochs = 3
	}
	if cfg.Beta < 0 || cfg.Beta > 1 {
		return nil, fmt.Errorf("nrm: β=%v outside [0,1]", cfg.Beta)
	}
	if cfg.StaleEpochs <= 0 {
		cfg.StaleEpochs = 3
	}
	if cfg.BackoffEpochs <= 0 {
		cfg.BackoffEpochs = 2
	}
	det, err := progress.NewPhaseDetector(0.2, 3)
	if err != nil {
		return nil, err
	}
	return &NRM{
		cfg:       cfg,
		eng:       eng,
		detector:  det,
		backoff:   cfg.BackoffEpochs,
		energy:    rapl.NewEnergyReader(eng.Device()),
		rateTrace: trace.NewSeries("nrm.rate", ""),
		startAt:   eng.Clock().Now(),
	}, nil
}

// Mode returns the NRM's current trust state toward the progress signal.
func (n *NRM) Mode() Mode { return n.mode }

// ModeTransitions returns the degraded-mode state machine's edge log.
func (n *NRM) ModeTransitions() []ModeTransition { return n.transitions }

func (n *NRM) transition(at time.Duration, to Mode, reason string) {
	n.transitions = append(n.transitions, ModeTransition{At: at, From: n.mode, To: to, Reason: reason})
	n.counters.TrustTransitions++
	if n.cfg.Journal != nil {
		if err := n.cfg.Journal.Append(journal.Record{
			Kind:    journal.KindTrustTransition,
			Epoch:   n.epoch,
			At:      at,
			From:    int(n.mode),
			To:      int(to),
			Backoff: n.backoff,
			Reason:  reason,
		}); err != nil && n.jErr == nil {
			n.jErr = err
		}
	}
	n.mode = to
}

// PhaseChanges returns how many application phase changes the NRM has
// detected and adapted to.
func (n *NRM) PhaseChanges() int { return n.phaseChanges }

// ChangeLog returns every committed phase change, across actuation
// regimes, in detection order.
func (n *NRM) ChangeLog() []progress.PhaseChange {
	out := append([]progress.PhaseChange(nil), n.priorChanges...)
	return append(out, n.detector.Changes()...)
}

// RateTrace returns the per-epoch achieved online performance the NRM
// observed.
func (n *NRM) RateTrace() *trace.Series { return n.rateTrace }

// NextDecisionAt returns the first epoch boundary strictly after now:
// the NRM's NextEventAt hook for macro-stepping drivers. Decisions land
// on the fixed epoch grid (the paper's tool acts once a second), so the
// next one is the next grid multiple regardless of where now falls.
func (n *NRM) NextDecisionAt(now time.Duration) time.Duration {
	return now - now%n.cfg.Epoch + n.cfg.Epoch
}

// SetBudget switches the NRM to budget-enforcement mode (0 = uncapped).
// Takes effect at the next epoch.
func (n *NRM) SetBudget(watts float64) {
	n.budgetW = watts
	n.targetRat = 0
}

// SetTargetProgress switches the NRM to progress-target mode: it derives
// the power budget expected to sustain the target rate. Requires a
// fitted model (after calibration); until then the node runs uncapped.
func (n *NRM) SetTargetProgress(rate float64) {
	n.targetRat = rate
}

// Decisions returns the per-epoch decision log.
func (n *NRM) Decisions() []Decision { return n.decisions }

// Model returns the fitted model parameters and whether fitting has
// happened yet.
func (n *NRM) Model() (model.Params, bool) { return n.params, n.fitted }

// BaselineRate returns the calibrated uncapped rate (0 before
// calibration completes).
func (n *NRM) BaselineRate() float64 { return n.baseRate }

// Step advances the node by one epoch: observe last epoch's progress and
// power, update the model, decide, actuate, advance. It reports whether
// the workload finished.
func (n *NRM) Step() (bool, error) {
	// Observe feedback from the previous epoch.
	samples := n.eng.Monitor().Samples()
	if len(samples) > 0 {
		last := samples[len(samples)-1]
		n.rateTrace.Add(last.At, last.Rate)
	}

	now := n.eng.Clock().Now()
	dec := Decision{At: now}

	switch {
	case n.epoch < n.cfg.CalibrationEpochs:
		// Calibration: uncapped, accumulate baseline.
		dec.Knob = KnobNone
	default:
		if !n.fitted {
			if err := n.fit(); err != nil {
				return false, err
			}
		}
		n.updateMode(now)
		if n.mode == ModeNormal {
			dec = n.decide(now)
		} else {
			dec = n.degradedDecision(now)
		}
	}
	// Write-ahead: the decision reaches the journal before it reaches
	// hardware, so recovery can always restore the last actuated cap (or
	// one the daemon was about to actuate — re-actuating it is safe).
	if err := n.journalDecision(dec); err != nil {
		return false, err
	}
	if err := n.actuate(dec); err != nil {
		return false, err
	}
	dec.Counters = n.Counters()
	n.decisions = append(n.decisions, dec)
	n.epoch++

	done, err := n.eng.Advance(n.cfg.Epoch)
	if err != nil {
		return done, err
	}
	n.energyJ += n.energy.Advance()

	// Feed the epoch's achieved progress back into the calibration or the
	// running knob trial — but only when the signal is trusted AND the
	// window actually carried reports. A zero-rate window during an
	// outage is transport loss, not application behaviour; learning from
	// it would poison the baseline, the knob trial, and the phase
	// detector at once.
	if s := n.eng.Monitor().Samples(); len(s) > 0 {
		last := s[len(s)-1]
		if n.mode != ModeNormal || last.Reports == 0 {
			return done, nil
		}
		achieved := last.Rate
		switch {
		case dec.Knob == KnobNone:
			if achieved > n.baseRate {
				n.baseRate = achieved
			}
		case n.trial != nil && n.trial.committed == KnobNone:
			switch dec.Knob {
			case KnobRAPL:
				n.trial.raplRates = append(n.trial.raplRates, achieved)
			case KnobDVFS:
				n.trial.dvfsRates = append(n.trial.dvfsRates, achieved)
			}
		}
		n.observePhase(dec, achieved)
	}
	return done, nil
}

// updateMode advances the degraded-signal state machine, once per epoch,
// before the epoch's decision is made.
func (n *NRM) updateMode(now time.Duration) {
	empty := n.eng.Monitor().EmptyWindows()
	switch n.mode {
	case ModeNormal:
		if empty >= n.cfg.StaleEpochs {
			n.trial = nil // the comparison data predates the outage
			n.cleanEpochs = 0
			n.transition(now, ModeDegraded,
				fmt.Sprintf("no progress reports for %d consecutive windows", empty))
			return
		}
		n.cleanEpochs++
		if n.cleanEpochs >= backoffResetEpochs {
			n.backoff = n.cfg.BackoffEpochs
		}
	case ModeDegraded:
		if empty == 0 {
			n.probationLeft = n.backoff
			n.transition(now, ModeProbation,
				fmt.Sprintf("progress reports resumed; %d-epoch probation", n.backoff))
		}
	case ModeProbation:
		if empty > 0 {
			// Relapse: the signal is flapping, so trust it later and less.
			n.backoff *= 2
			if n.backoff > maxBackoffEpochs {
				n.backoff = maxBackoffEpochs
			}
			n.transition(now, ModeDegraded,
				fmt.Sprintf("signal relapsed during probation; backoff now %d epochs", n.backoff))
			return
		}
		n.probationLeft--
		if n.probationLeft <= 0 {
			n.cleanEpochs = 0
			n.transition(now, ModeNormal, "probation complete, signal re-trusted")
		}
	}
}

// degradedDecision holds the conservative cap while the progress signal
// cannot be trusted. The knob is always RAPL: unlike an open-loop DVFS
// pin, the RAPL controller clamps power transients by itself, which is
// exactly what a blind NRM needs.
func (n *NRM) degradedDecision(now time.Duration) Decision {
	capW := n.cfg.DegradedCapW
	if capW <= 0 {
		capW = 0.8 * n.basePowW
	}
	if n.budgetW > 0 && n.budgetW < capW {
		capW = n.budgetW
	}
	dec := Decision{At: now, BudgetW: n.budgetW, Knob: KnobRAPL, Setting: capW, Mode: n.mode}
	if n.fitted {
		dec.PredictedRate = n.params.PredictProgress(capW)
	}
	return dec
}

// observePhase feeds the phase detector while the actuation has been
// stable (an enforcement change shifts the level too and must not be
// mistaken for an application phase). On a detected phase change the NRM
// rescales its baseline by the level ratio — the cap's relative impact is
// assumed phase-independent until re-measured — and restarts the knob
// comparison.
func (n *NRM) observePhase(dec Decision, achieved float64) {
	if dec.Knob != n.lastKnob || dec.Setting != n.lastSetting {
		n.lastKnob, n.lastSetting = dec.Knob, dec.Setting
		n.stableEpochs = 0
		// The enforcement change moves the level itself; start the
		// detector over so the new regime is its reference, keeping the
		// committed-change history.
		prior := n.detector.Changes()
		det, err := progress.NewPhaseDetector(0.2, 3)
		if err == nil {
			n.detector = det
			n.priorChanges = append(n.priorChanges, prior...)
		}
		return
	}
	n.stableEpochs++
	if n.stableEpochs < 2 {
		return
	}
	if !n.detector.Offer(achieved) {
		return
	}
	n.phaseChanges++
	changes := n.detector.Changes()
	last := changes[len(changes)-1]
	if last.OldLevel > 0 {
		if dec.Knob == KnobNone {
			// Uncapped: the new level IS the new phase's baseline.
			n.baseRate = last.NewLevel
		} else if n.baseRate > 0 {
			// Capped: the uncapped level is unobservable, so assume the
			// cap's relative impact carries over and rescale.
			n.baseRate *= last.NewLevel / last.OldLevel
		}
		if n.fitted {
			n.params.RMax = n.baseRate
		}
	}
	n.trial = nil // the knob ranking may differ in the new phase
}

// Run steps until the workload completes or maxDur elapses, then
// finalizes the engine.
func (n *NRM) Run(maxDur time.Duration) (*engine.Result, error) {
	deadline := n.eng.Clock().Now() + maxDur
	for n.eng.Clock().Now() < deadline {
		done, err := n.Step()
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	return n.eng.Finish()
}

// fit builds the model from the calibration epochs.
func (n *NRM) fit() error {
	// Baseline package power: the wrap-safe energy accumulated over the
	// calibration epochs. (A cumulative-since-zero register read would
	// silently misreport on a node whose counter was seeded mid-count or
	// wrapped during calibration.)
	elapsed := (n.eng.Clock().Now() - n.startAt).Seconds()
	if elapsed <= 0 {
		return fmt.Errorf("nrm: fit before any epoch ran")
	}
	n.basePowW = n.energyJ / elapsed
	if n.baseRate <= 0 {
		return fmt.Errorf("nrm: no baseline progress observed during calibration")
	}
	beta := n.cfg.Beta
	if beta == 0 {
		// Without a characterized β, assume compute-bound (conservative:
		// predicts the largest impact, so the NRM over-provisions).
		beta = 0.9
	}
	p, err := model.FromBaseline(beta, n.baseRate, n.basePowW)
	if err != nil {
		return fmt.Errorf("nrm: fitting model: %w", err)
	}
	n.params = p
	n.fitted = true
	if n.cfg.Journal != nil {
		if err := n.cfg.Journal.Append(journal.Record{
			Kind:     journal.KindModelFit,
			Epoch:    n.epoch,
			At:       n.eng.Clock().Now(),
			Beta:     beta,
			BaseRate: n.baseRate,
			BasePowW: n.basePowW,
		}); err != nil {
			return fmt.Errorf("nrm: journaling fit: %w", err)
		}
	}
	return nil
}

// decide picks the enforcement strategy for the coming epoch.
func (n *NRM) decide(now time.Duration) Decision {
	dec := Decision{At: now}

	budget := n.budgetW
	if n.targetRat > 0 && n.fitted {
		// Progress-target mode: invert the model for the budget.
		if w, err := n.params.PackageCapForProgress(n.targetRat); err == nil {
			budget = stats.Clamp(w, 30, 1e4)
		}
	}
	dec.BudgetW = budget
	if budget <= 0 || budget >= n.basePowW {
		dec.Knob = KnobNone
		if n.fitted {
			dec.PredictedRate = n.params.RMax
		}
		return dec
	}

	// Candidate 1: RAPL cap at the budget.
	raplPred := 0.0
	if n.fitted {
		raplPred = n.params.PredictProgress(budget)
	}

	// Candidate 2: the fastest calibrated DVFS point that fits. DVFS
	// cannot clamp transients, so require headroom below the budget.
	const dvfsHeadroom = 0.97
	var best *DVFSPoint
	for i := range n.cfg.DVFSTable {
		p := &n.cfg.DVFSTable[i]
		if p.PowerW <= budget*dvfsHeadroom && (best == nil || p.MHz > best.MHz) {
			best = p
		}
	}
	if best == nil {
		// Only RAPL can enforce this budget.
		n.trial = nil
		dec.Knob = KnobRAPL
		dec.Setting = budget
		dec.PredictedRate = raplPred
		return dec
	}
	dvfsPred := 0.0
	if n.fitted {
		// Predicted progress at a pinned frequency via Eq. 1.
		dvfsPred = n.params.RMax / model.TimeRatio(n.params.Beta, 3300, best.MHz)
	}

	// The model cannot rank the knobs reliably (it misses RAPL's
	// non-DVFS enforcement), so compare them empirically: a short RAPL
	// trial, a short DVFS trial, then commit to the better-measured one.
	// A budget change of more than 10% restarts the comparison.
	if n.trial == nil || math.Abs(n.trial.budgetW-budget) > 0.1*n.trial.budgetW {
		n.trial = &trial{budgetW: budget}
	}
	tr := n.trial
	switch {
	case len(tr.raplRates) < trialEpochs:
		dec.Knob = KnobRAPL
		dec.Setting = budget
		dec.PredictedRate = raplPred
	case len(tr.dvfsRates) < trialEpochs:
		dec.Knob = KnobDVFS
		dec.Setting = best.MHz
		dec.PredictedRate = dvfsPred
	default:
		if tr.committed == KnobNone {
			// Skip each trial's first (settling) epoch when judging.
			if stats.Mean(tr.dvfsRates[1:]) >= stats.Mean(tr.raplRates[1:]) {
				tr.committed = KnobDVFS
			} else {
				tr.committed = KnobRAPL
			}
		}
		dec.Knob = tr.committed
		if tr.committed == KnobDVFS {
			dec.Setting = best.MHz
			dec.PredictedRate = dvfsPred
		} else {
			dec.Setting = budget
			dec.PredictedRate = raplPred
		}
	}
	return dec
}

// actuate applies a decision through the node's control surfaces.
func (n *NRM) actuate(dec Decision) error {
	w := rapl.Writer{Dev: n.eng.Device(), Act: n.cfg.Actuator}
	switch dec.Knob {
	case KnobNone:
		n.eng.Controller().SetManual(false)
		return w.WriteCap(dec.At, 0, 10*time.Millisecond)
	case KnobRAPL:
		n.eng.Controller().SetManual(false)
		return w.WriteCap(dec.At, dec.Setting, 10*time.Millisecond)
	case KnobDVFS:
		n.eng.SetManualDVFS(dec.Setting)
		return nil
	default:
		return fmt.Errorf("nrm: unknown knob %v", dec.Knob)
	}
}
