// Package counters is the PAPI substitute: per-core hardware event
// counters maintained by the simulation and read through a PAPI-like
// event-set interface. The paper uses PAPI_TOT_INS and PAPI_L3_TCM to
// compute the MPO (misses per operation) metric, and total instructions
// over time for MIPS (Table I, Table VI).
package counters

import (
	"fmt"
	"time"
)

// Event identifies a hardware counter event.
type Event int

// Supported events, named after their PAPI presets.
const (
	TotIns   Event = iota // PAPI_TOT_INS: instructions completed
	TotCyc                // PAPI_TOT_CYC: total cycles
	L3TCM                 // PAPI_L3_TCM: L3 total cache misses
	RefCyc                // PAPI_REF_CYC: reference (fixed-frequency) cycles
	StallCyc              // stall cycles (memory-bound time proxy)
	numEvents
)

// String returns the PAPI-style name of the event.
func (e Event) String() string {
	switch e {
	case TotIns:
		return "PAPI_TOT_INS"
	case TotCyc:
		return "PAPI_TOT_CYC"
	case L3TCM:
		return "PAPI_L3_TCM"
	case RefCyc:
		return "PAPI_REF_CYC"
	case StallCyc:
		return "PAPI_STALL_CYC"
	default:
		return fmt.Sprintf("Event(%d)", int(e))
	}
}

// ReadHook lets a fault-injection layer perturb counter values as they
// are read (glitches, overflow offsets). It receives the true value and
// returns the value the reader observes. It must be deterministic.
type ReadHook func(core int, e Event, v uint64) uint64

// Bank holds the counters for one node: numEvents counters per core.
// The simulation engine increments them; readers snapshot them through
// EventSets.
//
// A bank has one owning goroutine, the engine that built it, exactly as
// that engine owns the workload executors that write it. Counters are
// plain cells in a flat per-core/per-event array: writes through
// CoreCells sit on the engine's hot path (up to one per rank per event
// per integration step), and no lock or atomic guards them. Writers on
// disjoint cores touch disjoint cells, so they need no lock either; every
// other concurrent use (a read racing a write, two writers on one core,
// SetReadHook racing anything) must be ordered by the caller.
type Bank struct {
	// cores is construction configuration; readHook is the fault layer's,
	// installed by SetFaults on a resumed engine.
	cores    int      `snap:"-"`
	vals     []uint64 // flat [core*numEvents + event]
	readHook ReadHook `snap:"-"`
}

// NewBank returns a zeroed counter bank for the given core count.
func NewBank(cores int) *Bank {
	if cores <= 0 {
		panic("counters: bank needs at least one core")
	}
	return &Bank{cores: cores, vals: make([]uint64, cores*Stride)}
}

// Cores returns the number of cores the bank covers.
func (b *Bank) Cores() int { return b.cores }

// SetReadHook installs (or, with nil, removes) the read-side fault hook.
// Writes through CoreCells are never perturbed: the simulation's ground
// truth stays intact; only observations degrade.
func (b *Bank) SetReadHook(h ReadHook) { b.readHook = h }

// observe applies the read hook, if any.
func (b *Bank) observe(core int, e Event, v uint64) uint64 {
	if b.readHook == nil {
		return v
	}
	return b.readHook(core, e, v)
}

// cell returns the flat index for a core/event pair, bounds-checked by
// the slice access itself for events and explicitly for cores.
func (b *Bank) cell(core int, e Event) int {
	if core < 0 || core >= b.cores {
		panic(fmt.Sprintf("counters: core %d outside bank of %d cores", core, b.cores))
	}
	return core*Stride + int(e)
}

// Stride is the number of cells per core in a CoreCells view: core
// first+i's event e is cell [i*Stride+int(e)].
const Stride = int(numEvents)

// CoreCells returns the counter cells of cores [first, first+n), the
// bank's one write path. The view aliases the bank: writers add to its
// cells directly, so a hot loop pays one bounds check per call instead of
// one per write. It panics if the range leaves the bank.
func (b *Bank) CoreCells(first, n int) []uint64 {
	if first < 0 || n < 0 || first+n > b.cores {
		panic(fmt.Sprintf("counters: cores [%d,%d) outside bank of %d cores", first, first+n, b.cores))
	}
	return b.vals[first*Stride : (first+n)*Stride]
}

// Read returns the current value of an event counter on a core.
func (b *Bank) Read(core int, e Event) uint64 {
	return b.observe(core, e, b.vals[b.cell(core, e)])
}

// Total returns the event count summed over all cores.
func (b *Bank) Total(e Event) uint64 {
	var sum uint64
	for c := 0; c < b.cores; c++ {
		sum += b.observe(c, e, b.vals[c*Stride+int(e)])
	}
	return sum
}

// EventSet is the PAPI-style reading interface: it remembers the counter
// values at Start and yields deltas at Stop/Read, aggregated over all
// cores.
type EventSet struct {
	// bank is wiring and events construction configuration.
	bank   *Bank    `snap:"-"`
	events []Event  `snap:"-"`
	start  []uint64 // the values latched at Start, one per event; nil before
	began  time.Duration
}

// NewEventSet creates an event set over the given events.
func NewEventSet(bank *Bank, events ...Event) *EventSet {
	if len(events) == 0 {
		panic("counters: empty event set")
	}
	return &EventSet{bank: bank, events: append([]Event(nil), events...)}
}

// Start latches the current counter values at virtual time now.
func (s *EventSet) Start(now time.Duration) {
	s.start = make([]uint64, len(s.events))
	for i, e := range s.events {
		s.start[i] = s.bank.Total(e)
	}
	s.began = now
}

// Reading is the result of a counter interval.
type Reading struct {
	Deltas  map[Event]uint64
	Elapsed time.Duration
	// Clamped lists events whose deltas were physically implausible
	// (counter glitch or mid-interval corruption) and were zeroed rather
	// than propagated into derived metrics.
	Clamped []Event
}

// maxEventsPerCoreSecond bounds how many events one core can plausibly
// retire per second: a generous 16 events per cycle at a generous 5 GHz.
// Anything above it is a glitched observation, not a measurement.
const maxEventsPerCoreSecond = 16 * 5e9

// Stop returns the deltas accumulated since Start, computed modularly so
// a counter wraparound between Start and Stop is handled exactly. Deltas
// beyond the physical event-rate bound (possible only with read faults
// injected) are zeroed and recorded in Clamped — garbage must not leak
// into MIPS/IPC/MPO. Calling Stop before Start panics.
func (s *EventSet) Stop(now time.Duration) Reading {
	if s.start == nil {
		panic("counters: EventSet.Stop before Start")
	}
	r := Reading{Deltas: make(map[Event]uint64, len(s.events)), Elapsed: now - s.began}
	sec := r.Elapsed.Seconds()
	if sec < 1 {
		sec = 1
	}
	bound := uint64(sec * float64(s.bank.Cores()) * maxEventsPerCoreSecond)
	for i, e := range s.events {
		d := s.bank.Total(e) - s.start[i] // modular: exact across wraparound
		if d > bound {
			d = 0
			r.Clamped = append(r.Clamped, e)
		}
		r.Deltas[e] = d
	}
	return r
}

// MIPS returns million instructions per second over the reading interval.
func (r Reading) MIPS() float64 {
	sec := r.Elapsed.Seconds()
	if sec <= 0 {
		return 0
	}
	return float64(r.Deltas[TotIns]) / 1e6 / sec
}

// IPC returns instructions per cycle over the reading interval.
func (r Reading) IPC() float64 {
	cyc := r.Deltas[TotCyc]
	if cyc == 0 {
		return 0
	}
	return float64(r.Deltas[TotIns]) / float64(cyc)
}

// MPO returns misses per operation: L3 total cache misses divided by
// instructions completed (Table VI). Zero instructions yields 0.
func (r Reading) MPO() float64 {
	ins := r.Deltas[TotIns]
	if ins == 0 {
		return 0
	}
	return float64(r.Deltas[L3TCM]) / float64(ins)
}
