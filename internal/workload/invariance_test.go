package workload

import (
	"math"
	"testing"
	"time"

	"progresscap/internal/counters"
)

// TestTickSizeInvariance: the executor's timing must not depend on the
// engine's tick size (within one tick of quantization per iteration).
func TestTickSizeInvariance(t *testing.T) {
	seg := Segment{ComputeCycles: 6.6e7, MemSeconds: 0.02, Instructions: 1e8, BWShare: 0.5}
	w := simpleWorkload(4, 20, seg)
	durFor := func(tick time.Duration) float64 {
		e, err := NewExec(w, counters.NewBank(4), 5)
		if err != nil {
			t.Fatal(err)
		}
		now := time.Duration(0)
		for i := 0; i < 10_000_000 && !e.Done(); i++ {
			now += tick
			e.ConsumeTo(now, 3.3e9, 1)
		}
		return now.Seconds()
	}
	d50 := durFor(50 * time.Microsecond)
	d100 := durFor(100 * time.Microsecond)
	d400 := durFor(400 * time.Microsecond)
	if math.Abs(d100-d50)/d50 > 0.02 || math.Abs(d400-d50)/d50 > 0.03 {
		t.Fatalf("durations vary with tick size: 50µs=%v 100µs=%v 400µs=%v", d50, d100, d400)
	}
}

// TestCounterConservation: total instructions attributed must equal the
// sum of segment instructions plus spin, independent of operating point.
func TestCounterConservation(t *testing.T) {
	const iters = 10
	seg := Segment{ComputeCycles: 3.3e7, MemSeconds: 0.01, Instructions: 5e7}
	w := simpleWorkload(2, iters, seg)
	for _, hz := range []float64{3.3e9, 1.6e9} {
		bank := counters.NewBank(2)
		e, _ := NewExec(w, bank, 3)
		now := time.Duration(0)
		for !e.Done() {
			now += 100 * time.Microsecond
			e.ConsumeTo(now, hz, 1)
		}
		workInstr := float64(2 * iters * 5e7)
		spin := 0.0
		for _, l := range e.RankLoads() {
			spin += l.SpinSeconds * hz * SpinIPC
		}
		got := float64(bank.Total(counters.TotIns))
		want := workInstr + spin
		if math.Abs(got-want)/want > 0.01 {
			t.Fatalf("at %v Hz: instructions %v, want %v (work %v + spin %v)", hz, got, want, workInstr, spin)
		}
		// Misses fully attributed.
		if bank.Total(counters.L3TCM) != 0 {
			t.Fatalf("misses attributed for a zero-miss workload")
		}
	}
}
