package counters

import (
	"sync"
	"testing"
	"time"
)

func TestBankAddRead(t *testing.T) {
	b := NewBank(4)
	b.Add(0, TotIns, 100)
	b.Add(0, TotIns, 50)
	b.Add(3, TotIns, 25)
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
				b.Add(c, TotCyc, 1)
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
	b.Add(0, TotIns, 1000) // pre-existing counts must not leak into deltas
	es := NewEventSet(b, TotIns, L3TCM)
	es.Start(0)
	b.Add(0, TotIns, 500)
	b.Add(1, TotIns, 500)
	b.Add(1, L3TCM, 10)
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
