// Package workload defines the declarative application model the
// simulation executes.
//
// An application is a sequence of phases (QMCPACK's VMC1/VMC2/DMC,
// OpenMC's inactive/active); a phase is a fixed number of iterations (a
// LAMMPS timestep, a GMRES iteration, a QMC block, an OpenMC batch, a
// STREAM copy/scale/add/triad sweep); and an iteration gives every rank a
// segment of work:
//
//   - ComputeCycles: core cycles; wall time = cycles / effective-frequency,
//     so this part scales with DVFS and duty-cycle modulation.
//   - MemSeconds: memory-stall time at full bandwidth; frequency
//     independent, but inflated when RAPL scales uncore bandwidth down.
//   - SleepSeconds: blocked time (the usleep in the paper's Listing 1);
//     consumes wall time with the core idle.
//
// Ranks synchronize on a barrier at the end of every iteration: a rank
// that finishes early busy-waits, retiring spin instructions at full rate.
// That spin is what decouples MIPS from online performance in the paper's
// Table I.
//
// The compute/memory split per segment is what fixes an application's β
// (compute-boundedness): with T(f) = C/f + M, the Etinski relation
// T(f)/T(fmax) = β(fmax/f − 1) + 1 holds exactly with
// β = (C/fmax) / (C/fmax + M).
package workload

import (
	"fmt"
	"math"
	"time"

	"progresscap/internal/counters"
	"progresscap/internal/simtime"
)

// SpinIPC is the instruction rate of the barrier busy-wait loop in
// instructions per cycle.
const SpinIPC = 2.0

// Segment is one rank's work for one iteration.
type Segment struct {
	ComputeCycles float64
	MemSeconds    float64
	SleepSeconds  float64
	Instructions  float64 // instructions retired over the segment's compute part
	L3Misses      float64 // misses incurred over the segment's memory part
	BWShare       float64 // uncore bandwidth demand while in the memory part, [0,1]
	WorkUnits     float64 // application-defined work units (paper's Definition 2)
}

// Validate rejects physically meaningless segments.
func (s Segment) Validate() error {
	switch {
	case s.ComputeCycles < 0 || s.MemSeconds < 0 || s.SleepSeconds < 0:
		return fmt.Errorf("workload: negative segment component %+v", s)
	case s.Instructions < 0 || s.L3Misses < 0 || s.WorkUnits < 0:
		return fmt.Errorf("workload: negative segment accounting %+v", s)
	case s.BWShare < 0 || s.BWShare > 1:
		return fmt.Errorf("workload: BWShare %v outside [0,1]", s.BWShare)
	case s.ComputeCycles == 0 && s.MemSeconds == 0 && s.SleepSeconds == 0:
		return fmt.Errorf("workload: empty segment")
	}
	return nil
}

// DurationAt returns the segment's execution time (excluding barrier
// spin) at an effective core frequency of effHz and a memory-time
// inflation factor memFactor.
func (s Segment) DurationAt(effHz, memFactor float64) float64 {
	return s.SleepSeconds + s.ComputeCycles/effHz + s.MemSeconds*memFactor
}

// GenFunc produces the segment for a rank in an iteration. Generators
// must be deterministic given the supplied RNG.
type GenFunc func(rank, iter int, rng *simtime.RNG) Segment

// Phase is a named stretch of iterations with homogeneous behaviour.
type Phase struct {
	Name            string
	Iterations      int
	ProgressPerIter float64 // metric units contributed by one iteration
	Gen             GenFunc
}

// Workload is a complete application model.
type Workload struct {
	Name   string
	Metric string // online-performance metric name, e.g. "atom timesteps/s"
	Ranks  int
	Phases []Phase
}

// Validate checks the workload is runnable.
func (w *Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("workload: missing name")
	}
	if w.Ranks <= 0 {
		return fmt.Errorf("workload %s: Ranks = %d", w.Name, w.Ranks)
	}
	if len(w.Phases) == 0 {
		return fmt.Errorf("workload %s: no phases", w.Name)
	}
	for i, p := range w.Phases {
		if p.Iterations <= 0 {
			return fmt.Errorf("workload %s phase %d (%s): Iterations = %d", w.Name, i, p.Name, p.Iterations)
		}
		if p.Gen == nil {
			return fmt.Errorf("workload %s phase %d (%s): nil generator", w.Name, i, p.Name)
		}
	}
	return nil
}

// TotalIterations returns the iteration count summed over phases.
func (w *Workload) TotalIterations() int {
	n := 0
	for _, p := range w.Phases {
		n += p.Iterations
	}
	return n
}

// IterationEvent reports one completed iteration (the progress events the
// instrumented applications publish).
type IterationEvent struct {
	At        time.Duration
	Phase     string
	PhaseIdx  int
	Iter      int     // iteration index within the phase
	Progress  float64 // metric units (Phase.ProgressPerIter)
	WorkUnits float64 // summed per-rank work units (Definition 2)
	Duration  time.Duration
}

// StepOutput aggregates what happened during one engine tick, in the form
// the power model needs.
type StepOutput struct {
	// Engaged is the number of ranks that spent any part of the tick
	// computing, stalled on memory, or spinning (their cores are active).
	Engaged int
	// Sleeping is the number of ranks blocked in sleep for the whole
	// tick (their cores idle).
	Sleeping int
	// Activity is the mean fraction of the tick engaged ranks spent
	// executing instructions (compute or spin) rather than stalled.
	Activity float64
	// BWUtil is the aggregate uncore bandwidth demand in [0,1].
	BWUtil float64
	// Completions lists iterations that finished during this tick. The
	// slice aliases a buffer owned by the Exec and is overwritten by the
	// next Step call; callers that retain events across ticks must copy
	// the elements (the elements themselves are plain values).
	Completions []IterationEvent
}

type rankState struct {
	seg       Segment
	remCycles float64
	remMem    float64
	remSleep  float64
	finished  bool
	load      RankLoad
}

// RankLoad is one rank's cumulative time accounting, the per-processing-
// element view of progress the paper's future work calls for. The spin
// share exposes load imbalance at runtime: a balanced application spins
// only at tick granularity, an imbalanced one burns real time at the
// barrier.
type RankLoad struct {
	WorkSeconds  float64 // compute + memory-stall time
	SpinSeconds  float64 // barrier busy-wait
	SleepSeconds float64 // blocked
}

// Busy returns work + spin (the time the core was powered and active).
func (l RankLoad) Busy() float64 { return l.WorkSeconds + l.SpinSeconds }

// Exec executes a workload tick by tick. It is single-goroutine, owned by
// the engine.
type Exec struct {
	w      *Workload
	rng    *simtime.RNG
	bank   *counters.Bank
	ranks  []rankState
	offset int // rank r retires instructions on core offset+r

	phaseIdx  int
	iter      int
	iterStart time.Duration
	done      bool

	// at is the instant the executor has consumed up to (the anchor of
	// the event-driven ConsumeTo/Span API). The legacy Step entry point
	// does not maintain it; an executor is driven through exactly one of
	// the two interfaces.
	at time.Duration

	// compBuf backs StepOutput.Completions across Step calls so the hot
	// loop does not allocate one slice per completed iteration.
	compBuf []IterationEvent
}

// NewExec prepares an executor. The counter bank must cover at least
// w.Ranks cores (rank i retires instructions on core i). seed gives the
// deterministic RNG stream for the workload's generators.
func NewExec(w *Workload, bank *counters.Bank, seed uint64) (*Exec, error) {
	return NewExecOffset(w, bank, seed, 0)
}

// NewExecOffset is NewExec with the workload's ranks pinned to cores
// [offset, offset+Ranks): multiple workloads can share one node by
// occupying disjoint core ranges (the URBAN-style composite setup).
func NewExecOffset(w *Workload, bank *counters.Bank, seed uint64, offset int) (*Exec, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if offset < 0 || offset+w.Ranks > bank.Cores() {
		return nil, fmt.Errorf("workload %s: cores [%d,%d) outside bank of %d cores",
			w.Name, offset, offset+w.Ranks, bank.Cores())
	}
	e := &Exec{
		w:      w,
		rng:    simtime.NewRNG(seed),
		bank:   bank,
		ranks:  make([]rankState, w.Ranks),
		offset: offset,
	}
	e.loadIteration(0)
	return e, nil
}

// Workload returns the model being executed.
func (e *Exec) Workload() *Workload { return e.w }

// Done reports whether every phase has completed.
func (e *Exec) Done() bool { return e.done }

// Phase returns the current phase name and index ("" and -1 when done).
func (e *Exec) Phase() (string, int) {
	if e.done {
		return "", -1
	}
	return e.w.Phases[e.phaseIdx].Name, e.phaseIdx
}

// loadIteration (re)fills rank states for the current phase/iter,
// preserving each rank's cumulative load accounting.
// startAt records when the iteration began for duration accounting.
func (e *Exec) loadIteration(startAt time.Duration) {
	p := e.w.Phases[e.phaseIdx]
	for r := range e.ranks {
		seg := p.Gen(r, e.iter, e.rng)
		if err := seg.Validate(); err != nil {
			panic(fmt.Sprintf("workload %s phase %s rank %d iter %d: %v", e.w.Name, p.Name, r, e.iter, err))
		}
		e.ranks[r] = rankState{
			seg:       seg,
			remCycles: seg.ComputeCycles,
			remMem:    seg.MemSeconds,
			remSleep:  seg.SleepSeconds,
			load:      e.ranks[r].load,
		}
	}
	e.iterStart = startAt
}

// RankLoads returns each rank's cumulative load accounting.
func (e *Exec) RankLoads() []RankLoad {
	out := make([]RankLoad, len(e.ranks))
	for r := range e.ranks {
		out[r] = e.ranks[r].load
	}
	return out
}

// ImbalanceIndex summarizes load imbalance over a set of rank loads: the
// mean barrier-spin share of each rank's total accounted time (work +
// spin + sleep). 0 means perfectly balanced; approaching 1 means most
// ranks spend most of their time waiting at barriers.
func ImbalanceIndex(loads []RankLoad) float64 {
	if len(loads) == 0 {
		return 0
	}
	var sum float64
	n := 0
	for _, l := range loads {
		total := l.WorkSeconds + l.SpinSeconds + l.SleepSeconds
		if total <= 0 {
			continue
		}
		sum += l.SpinSeconds / total
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Step advances the workload by one tick ending at virtual time now,
// of length dt, with the package running at effective frequency effHz
// (P-state × duty, in Hz) and memory time inflated by memFactor (>= 1 at
// full bandwidth grant). It updates hardware counters and returns the
// tick aggregate.
func (e *Exec) Step(now time.Duration, dt time.Duration, effHz, memFactor float64) StepOutput {
	var out StepOutput
	if e.done {
		out.Sleeping = len(e.ranks)
		return out
	}
	if effHz <= 0 || memFactor < 1 {
		panic(fmt.Sprintf("workload: bad operating point effHz=%v memFactor=%v", effHz, memFactor))
	}
	dtSec := dt.Seconds()
	if dtSec <= 0 {
		panic("workload: non-positive tick")
	}

	allFinished := true
	var activitySum float64
	for r := range e.ranks {
		rs := &e.ranks[r]
		budget := dtSec
		var computeT, memT, spinT, sleepT float64
		var instr, misses float64

		if !rs.finished {
			// 1. Blocked sleep: consumes tick budget with the core idle.
			if rs.remSleep > 0 {
				s := rs.remSleep
				if s > budget {
					s = budget
				}
				rs.remSleep -= s
				sleepT = s
				budget -= s
			}
			// 2. Interleaved compute + memory.
			if budget > 0 && (rs.remCycles > 0 || rs.remMem > 0) {
				rc := rs.remCycles / effHz
				rm := rs.remMem * memFactor
				rt := rc + rm
				u := rt
				if u > budget {
					u = budget
				}
				x := 0.0
				if rt > 0 {
					x = u / rt
				}
				cycUsed := rs.remCycles * x
				memUsed := rs.remMem * x
				rs.remCycles -= cycUsed
				rs.remMem -= memUsed
				computeT = rc * x
				memT = rm * x
				budget -= u
				if rs.seg.ComputeCycles > 0 {
					instr += rs.seg.Instructions * (cycUsed / rs.seg.ComputeCycles)
				}
				if rs.seg.MemSeconds > 0 {
					misses += rs.seg.L3Misses * (memUsed / rs.seg.MemSeconds)
				}
			}
			if rs.remSleep <= 1e-15 && rs.remCycles <= 1e-6 && rs.remMem <= 1e-15 {
				rs.finished = true
			}
		}
		// 3. Barrier busy-wait for the rest of the tick.
		if rs.finished && budget > 0 {
			spinT = budget
			instr += spinT * effHz * SpinIPC
		}
		if !rs.finished {
			allFinished = false
		}

		// Counter updates.
		core := e.offset + r
		if instr > 0 {
			e.bank.Add(core, counters.TotIns, uint64(instr))
		}
		if misses > 0 {
			e.bank.Add(core, counters.L3TCM, uint64(misses))
		}
		if cyc := (computeT + spinT) * effHz; cyc > 0 {
			e.bank.Add(core, counters.TotCyc, uint64(cyc))
		}
		if stall := memT * effHz; stall > 0 {
			e.bank.Add(core, counters.StallCyc, uint64(stall))
		}

		// Per-rank load accounting.
		rs.load.WorkSeconds += computeT + memT
		rs.load.SpinSeconds += spinT
		rs.load.SleepSeconds += sleepT

		// Power-model aggregates.
		active := computeT + memT + spinT
		if active > 0 {
			out.Engaged++
			activitySum += (computeT + spinT) / dtSec
			out.BWUtil += (memT / dtSec) * rs.seg.BWShare
		} else {
			out.Sleeping++
		}
	}
	if out.Engaged > 0 {
		out.Activity = activitySum / float64(out.Engaged)
	}
	if out.BWUtil > 1 {
		out.BWUtil = 1
	}

	if allFinished {
		p := e.w.Phases[e.phaseIdx]
		var units float64
		for r := range e.ranks {
			units += e.ranks[r].seg.WorkUnits
		}
		e.compBuf = append(e.compBuf[:0], IterationEvent{
			At:        now,
			Phase:     p.Name,
			PhaseIdx:  e.phaseIdx,
			Iter:      e.iter,
			Progress:  p.ProgressPerIter,
			WorkUnits: units,
			Duration:  now - e.iterStart,
		})
		out.Completions = e.compBuf
		e.advance(now)
	}
	return out
}

// advance moves to the next iteration or phase, or marks completion.
func (e *Exec) advance(now time.Duration) {
	e.iter++
	if e.iter >= e.w.Phases[e.phaseIdx].Iterations {
		e.iter = 0
		e.phaseIdx++
		if e.phaseIdx >= len(e.w.Phases) {
			e.done = true
			return
		}
	}
	e.loadIteration(now)
}

// Span describes the execution mix from the executor's current anchor
// (see At) forward, valid while the operating point stays fixed. It is
// the workload's NextEventAt hook for the macro-stepping engine: the
// aggregates are constant until Boundary, so the engine may integrate
// power over any part of the stretch from one Span, and defer ConsumeTo
// to the stretch's end.
type Span struct {
	// Engaged / Sleeping partition the ranks exactly as StepOutput does
	// for any tick inside the stretch.
	Engaged  int
	Sleeping int
	// ActivitySum is the summed active (compute or spin, vs memory stall)
	// fraction over engaged ranks; Activity = ActivitySum/Engaged.
	ActivitySum float64
	// BWUtil is the aggregate uncore bandwidth demand in [0,1].
	BWUtil float64
	// Boundary is the earliest instant the composition changes: a rank
	// leaving sleep, finishing its compute+memory segment, or the
	// iteration completing. Valid only when HasBoundary; a done executor
	// has none.
	Boundary    time.Duration
	HasBoundary bool
}

// At returns the instant the executor has consumed up to via ConsumeTo.
func (e *Exec) At() time.Duration { return e.at }

// boundaryIn converts a remaining-seconds estimate into an absolute
// boundary instant, rounding up to the nanosecond grid so consuming up to
// the boundary covers at least the full remainder. The 1 ns floor
// guarantees forward progress: sub-nanosecond residue (from the rounding
// itself) resolves on the next stride via the Step finish epsilons.
func (e *Exec) boundaryIn(sec float64) time.Duration {
	d := time.Duration(math.Ceil(sec * 1e9))
	if d < 1 {
		d = 1
	}
	return e.at + d
}

// Span computes the current stretch composition at the given operating
// point. It is pure: repeated calls between ConsumeTo calls return
// identical values, so a caller may cache the result until it next
// consumes or changes the operating point.
func (e *Exec) Span(effHz, memFactor float64) Span {
	var sp Span
	if e.done {
		sp.Sleeping = len(e.ranks)
		return sp
	}
	if effHz <= 0 || memFactor < 1 {
		panic(fmt.Sprintf("workload: bad operating point effHz=%v memFactor=%v", effHz, memFactor))
	}
	bound := func(sec float64) {
		b := e.boundaryIn(sec)
		if !sp.HasBoundary || b < sp.Boundary {
			sp.Boundary, sp.HasBoundary = b, true
		}
	}
	for r := range e.ranks {
		rs := &e.ranks[r]
		switch {
		case rs.finished:
			// Barrier busy-wait until the slowest rank arrives.
			sp.Engaged++
			sp.ActivitySum++
		case rs.remSleep > 0:
			sp.Sleeping++
			bound(rs.remSleep)
		default:
			sp.Engaged++
			rc := rs.remCycles / effHz
			rm := rs.remMem * memFactor
			rt := rc + rm
			if rt > 0 {
				sp.ActivitySum += rc / rt
				sp.BWUtil += (rm / rt) * rs.seg.BWShare
				bound(rt)
			} else {
				// Residue below the finish epsilons: the next consume
				// marks the rank finished; treat it as spinning.
				sp.ActivitySum++
				bound(0)
			}
		}
	}
	if sp.BWUtil > 1 {
		sp.BWUtil = 1
	}
	return sp
}

// ConsumeTo advances the executor from its anchor to the absolute instant
// to in a single analytic step, returning iterations completed exactly at
// to. The caller must not advance past the Span boundary computed at the
// same operating point — inside that stretch each rank stays within one
// part (sleep, compute+memory, or spin) and the consumed amounts are
// linear in elapsed time, so one Step over the whole interval equals any
// subdivision of it up to float rounding. Results are reproducible only
// if callers consume at the same instants: the engine does so at
// workload boundaries, window edges, operating-point changes and the end
// of a run, never at instants that depend on how it steps. Completions
// alias the executor's internal buffer exactly as StepOutput.Completions
// does.
func (e *Exec) ConsumeTo(to time.Duration, effHz, memFactor float64) []IterationEvent {
	if to < e.at {
		panic(fmt.Sprintf("workload: ConsumeTo moved backwards: at %v, asked for %v", e.at, to))
	}
	if to == e.at {
		return nil
	}
	out := e.Step(to, to-e.at, effHz, memFactor)
	e.at = to
	return out.Completions
}

// SubsetPhase returns a copy of the workload containing only the named
// phase, for characterizing one phase in isolation (the paper
// characterizes QMCPACK's DMC and OpenMC's active phase separately).
// It panics if the phase does not exist.
func (w *Workload) SubsetPhase(name string) *Workload {
	for _, p := range w.Phases {
		if p.Name == name {
			cp := *w
			cp.Name = w.Name + "." + name
			cp.Phases = []Phase{p}
			return &cp
		}
	}
	panic(fmt.Sprintf("workload %s: no phase %q", w.Name, name))
}

// IdealDuration returns the workload's execution time at a fixed
// operating point, assuming perfectly synchronized barriers (the critical
// path: the slowest rank per iteration). It is used by characterization
// (β measurement) and tests.
func (w *Workload) IdealDuration(effHz, memFactor float64, seed uint64) time.Duration {
	rng := simtime.NewRNG(seed)
	var total float64
	for _, p := range w.Phases {
		for it := 0; it < p.Iterations; it++ {
			longest := 0.0
			for r := 0; r < w.Ranks; r++ {
				d := p.Gen(r, it, rng).DurationAt(effHz, memFactor)
				if d > longest {
					longest = d
				}
			}
			total += longest
		}
	}
	return time.Duration(total * float64(time.Second))
}
