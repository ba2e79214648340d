package workload_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"progresscap/internal/apps"
	"progresscap/internal/counters"
	"progresscap/internal/simtime"
	"progresscap/internal/workload"
)

// consumeToBitsPinned is the SHA-256 of every counter cell, every rank
// load's float bits and every completion event of the walk below. The
// golden render rounds its output; this digest sees low-order drift in
// the integration kernel that no rendered table would.
const consumeToBitsPinned = "7ecc00534806c411eb880b5b24a6b767b94c1bcee00f0b125a4dc74d59b73274"

// TestConsumeToBitsPinned walks four apps' executors through a seeded
// sequence of operating points. Each stretch ends at the Span boundary or
// 1 ms ahead, whichever is first; some run a full 1 ms across boundaries
// (as the fixed-tick oracle does) and some stop at a random interior
// instant (as window edges do).
func TestConsumeToBitsPinned(t *testing.T) {
	cases := []struct {
		name string
		w    *workload.Workload
	}{
		{"LAMMPS", apps.LAMMPS(apps.DefaultRanks, 30)},
		{"AMG", apps.AMG(apps.DefaultRanks, 5)},
		{"QMCPACK-DMC", apps.QMCPACK(apps.DefaultRanks, 1, 1, 20).SubsetPhase("dmc")},
		{"STREAM", apps.STREAM(apps.DefaultRanks, 30)},
	}
	h := sha256.New()
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	for i, c := range cases {
		bank := counters.NewBank(c.w.Ranks)
		e, err := workload.NewExec(c.w, bank, uint64(11+i))
		if err != nil {
			t.Fatal(err)
		}
		rng := simtime.NewRNG(uint64(97 + i))
		effHz, memFactor := 3.3e9, 1.0
		events := 0
		for step := 0; step < 6000 && !e.Done(); step++ {
			if rng.Intn(8) == 0 {
				effHz = 0.8e9 + 2.5e9*rng.Float64()
				memFactor = 1
				if rng.Intn(2) == 0 {
					memFactor += 2 * rng.Float64()
				}
			}
			sp := e.Span(effHz, memFactor)
			to := e.At() + time.Millisecond
			switch rng.Intn(4) {
			case 0: // a full 1 ms, across any boundary
			case 1: // a random interior instant of the stretch
				if sp.HasBoundary && sp.Boundary < to {
					to = sp.Boundary
				}
				if d := to - e.At(); d > 1 {
					to = e.At() + 1 + time.Duration(rng.Intn(int(d-1)))
				}
			default:
				if sp.HasBoundary && sp.Boundary < to {
					to = sp.Boundary
				}
			}
			if ev, ok := e.ConsumeTo(to, effHz, memFactor); ok {
				u64(uint64(ev.At))
				h.Write([]byte(ev.Phase))
				u64(uint64(ev.PhaseIdx))
				u64(uint64(ev.Iter))
				f64(ev.Progress)
				f64(ev.WorkUnits)
				u64(uint64(ev.Duration))
				events++
			}
		}
		if !e.Done() {
			t.Fatalf("%s: not done after the walk (%d events)", c.name, events)
		}
		for core := 0; core < bank.Cores(); core++ {
			for _, ev := range []counters.Event{counters.TotIns, counters.TotCyc, counters.L3TCM, counters.RefCyc, counters.StallCyc} {
				u64(bank.Read(core, ev))
			}
		}
		for _, l := range e.RankLoads() {
			f64(l.WorkSeconds)
			f64(l.SpinSeconds)
			f64(l.SleepSeconds)
		}
		t.Logf("%s: %d events, %.3f virtual s", c.name, events, e.At().Seconds())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != consumeToBitsPinned {
		t.Fatalf("ConsumeTo bits drifted: digest %s, pinned %s", got, consumeToBitsPinned)
	}
}
