package counters

import (
	"testing"
	"time"
)

func TestReadHookPerturbsObservationsOnly(t *testing.T) {
	b := NewBank(2)
	b.CoreCells(0, 1)[TotIns] += 100
	b.CoreCells(1, 1)[TotIns] += 100
	b.SetReadHook(func(core int, e Event, v uint64) uint64 { return v * 2 })
	if got := b.Read(0, TotIns); got != 200 {
		t.Fatalf("hooked Read = %d, want 200", got)
	}
	if got := b.Total(TotIns); got != 400 {
		t.Fatalf("hooked Total = %d, want 400", got)
	}
	// Ground truth is untouched: removing the hook restores clean reads.
	b.SetReadHook(nil)
	if got := b.Total(TotIns); got != 200 {
		t.Fatalf("Total after hook removal = %d, want 200", got)
	}
}

func TestStopModularAcrossWraparound(t *testing.T) {
	b := NewBank(1)
	// Start the counter near the top of its 64-bit range via an overflow
	// hook, as a fault plan would.
	const offset = ^uint64(0) - 1000
	b.SetReadHook(func(core int, e Event, v uint64) uint64 { return v + offset })
	s := NewEventSet(b, TotIns)
	s.Start(0)
	b.CoreCells(0, 1)[TotIns] += 5000 // observed counter wraps 64 bits mid-interval
	r := s.Stop(time.Second)
	if got := r.Deltas[TotIns]; got != 5000 {
		t.Fatalf("wrapped delta = %d, want 5000 (modular subtraction)", got)
	}
	if len(r.Clamped) != 0 {
		t.Fatalf("plausible wrapped delta clamped: %v", r.Clamped)
	}
}

func TestStopClampsImplausibleDeltas(t *testing.T) {
	b := NewBank(1)
	b.CoreCells(0, 1)[TotIns] += 1000
	s := NewEventSet(b, TotIns, TotCyc)
	s.Start(0)
	// A glitch hook makes the second observation a colossal spike —
	// far beyond what one core can retire in one second.
	b.SetReadHook(func(core int, e Event, v uint64) uint64 {
		if e == TotIns {
			return v + 1<<62
		}
		return v
	})
	b.CoreCells(0, 1)[TotIns] += 500
	b.CoreCells(0, 1)[TotCyc] += 2000
	r := s.Stop(time.Second)
	if got := r.Deltas[TotIns]; got != 0 {
		t.Fatalf("implausible delta = %d, want clamped to 0", got)
	}
	if len(r.Clamped) != 1 || r.Clamped[0] != TotIns {
		t.Fatalf("Clamped = %v, want [PAPI_TOT_INS]", r.Clamped)
	}
	if got := r.Deltas[TotCyc]; got != 2000 {
		t.Fatalf("clean event delta = %d, want 2000", got)
	}
	// Garbage must not leak into derived metrics.
	if r.MIPS() != 0 {
		t.Fatalf("MIPS from clamped reading = %v, want 0", r.MIPS())
	}
}
