package counters

import (
	"sync"
	"testing"
	"time"
)

func TestBankAddRead(t *testing.T) {
	b := NewBank(4)
	b.CoreCells(0, 1)[TotIns] += 100
	b.CoreCells(0, 1)[TotIns] += 50
	b.CoreCells(3, 1)[TotIns] += 25
	if got := b.Read(0, TotIns); got != 150 {
		t.Fatalf("Read = %d", got)
	}
	if got := b.Total(TotIns); got != 175 {
		t.Fatalf("Total = %d", got)
	}
	if got := b.Total(L3TCM); got != 0 {
		t.Fatalf("untouched Total = %d", got)
	}
}

func TestCoreCellsView(t *testing.T) {
	b := NewBank(4)
	c := b.CoreCells(1, 2)
	if len(c) != 2*Stride {
		t.Fatalf("len = %d, want %d", len(c), 2*Stride)
	}
	c[Stride+int(L3TCM)] += 7 // core 2
	c[int(TotIns)] += 3       // core 1
	if b.Read(2, L3TCM) != 7 || b.Read(1, TotIns) != 3 || b.Total(TotIns) != 3 {
		t.Fatalf("view writes landed elsewhere: core2 L3 %d, core1 ins %d, total ins %d",
			b.Read(2, L3TCM), b.Read(1, TotIns), b.Total(TotIns))
	}
	if got := len(b.CoreCells(4, 0)); got != 0 {
		t.Fatalf("empty view len = %d", got)
	}
	for _, r := range [][2]int{{-1, 1}, {0, -1}, {3, 2}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CoreCells(%d, %d) did not panic", r[0], r[1])
				}
			}()
			b.CoreCells(r[0], r[1])
		}()
	}
}

func TestBankZeroCoresPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBank(0) did not panic")
		}
	}()
	NewBank(0)
}

func TestBankConcurrentAdd(t *testing.T) {
	b := NewBank(8)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.CoreCells(c, 1)[TotCyc]++
			}
		}(c)
	}
	wg.Wait()
	if got := b.Total(TotCyc); got != 8000 {
		t.Fatalf("concurrent Total = %d, want 8000", got)
	}
}

func TestEventSetDeltas(t *testing.T) {
	b := NewBank(2)
	b.CoreCells(0, 1)[TotIns] += 1000 // pre-existing counts must not leak into deltas
	es := NewEventSet(b, TotIns, L3TCM)
	es.Start(0)
	b.CoreCells(0, 1)[TotIns] += 500
	b.CoreCells(1, 1)[TotIns] += 500
	b.CoreCells(1, 1)[L3TCM] += 10
	r := es.Stop(2 * time.Second)
	if r.Deltas[TotIns] != 1000 {
		t.Fatalf("TotIns delta = %d", r.Deltas[TotIns])
	}
	if r.Deltas[L3TCM] != 10 {
		t.Fatalf("L3TCM delta = %d", r.Deltas[L3TCM])
	}
	if r.Elapsed != 2*time.Second {
		t.Fatalf("Elapsed = %v", r.Elapsed)
	}
}

func TestEventSetStopBeforeStartPanics(t *testing.T) {
	es := NewEventSet(NewBank(1), TotIns)
	defer func() {
		if recover() == nil {
			t.Fatal("Stop before Start did not panic")
		}
	}()
	es.Stop(time.Second)
}

func TestEmptyEventSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty event set did not panic")
		}
	}()
	NewEventSet(NewBank(1))
}

func TestReadingMIPS(t *testing.T) {
	r := Reading{Deltas: map[Event]uint64{TotIns: 2_000_000}, Elapsed: time.Second}
	if got := r.MIPS(); got != 2 {
		t.Fatalf("MIPS = %v", got)
	}
	r.Elapsed = 0
	if got := r.MIPS(); got != 0 {
		t.Fatalf("zero-interval MIPS = %v", got)
	}
}

func TestReadingIPC(t *testing.T) {
	r := Reading{Deltas: map[Event]uint64{TotIns: 300, TotCyc: 100}}
	if got := r.IPC(); got != 3 {
		t.Fatalf("IPC = %v", got)
	}
	r.Deltas[TotCyc] = 0
	if got := r.IPC(); got != 0 {
		t.Fatalf("zero-cycle IPC = %v", got)
	}
}

func TestReadingMPO(t *testing.T) {
	r := Reading{Deltas: map[Event]uint64{TotIns: 1000, L3TCM: 30}}
	if got := r.MPO(); got != 0.03 {
		t.Fatalf("MPO = %v", got)
	}
	r.Deltas[TotIns] = 0
	if got := r.MPO(); got != 0 {
		t.Fatalf("zero-ins MPO = %v", got)
	}
}

func TestEventNames(t *testing.T) {
	if TotIns.String() != "PAPI_TOT_INS" || L3TCM.String() != "PAPI_L3_TCM" {
		t.Fatal("event names wrong")
	}
	if Event(99).String() != "Event(99)" {
		t.Fatal("unknown event name wrong")
	}
}
