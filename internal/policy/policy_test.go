package policy

import (
	"math"
	"testing"
	"time"

	"progresscap/internal/msr"
	"progresscap/internal/rapl"
)

func TestConstantScheme(t *testing.T) {
	s := Constant{Watts: 90}
	if s.CapAt(0) != 90 || s.CapAt(time.Hour) != 90 {
		t.Fatal("constant cap varies")
	}
}

func TestNoCapScheme(t *testing.T) {
	if (NoCap{}).CapAt(time.Minute) != Uncapped {
		t.Fatal("NoCap capped")
	}
}

func TestLinearScheme(t *testing.T) {
	l := Linear{Delay: 5 * time.Second, StartW: 200, MinW: 80, RateWPerSec: 10}
	if l.CapAt(0) != Uncapped || l.CapAt(4*time.Second) != Uncapped {
		t.Fatal("linear scheme capped during delay")
	}
	if got := l.CapAt(5 * time.Second); got != 200 {
		t.Fatalf("cap at start of ramp = %v", got)
	}
	if got := l.CapAt(10 * time.Second); got != 150 {
		t.Fatalf("cap at +5 s = %v, want 150", got)
	}
	if got := l.CapAt(time.Hour); got != 80 {
		t.Fatalf("cap at floor = %v, want 80", got)
	}
}

func TestLinearMonotoneNonIncreasing(t *testing.T) {
	l := Linear{Delay: 2 * time.Second, StartW: 180, MinW: 60, RateWPerSec: 7}
	prev := math.Inf(1)
	for sec := 2; sec < 40; sec++ {
		w := l.CapAt(time.Duration(sec) * time.Second)
		if w > prev {
			t.Fatalf("cap increased at %ds: %v > %v", sec, w, prev)
		}
		prev = w
	}
}

func TestStepScheme(t *testing.T) {
	s := Step{HighW: Uncapped, LowW: 100, HighFor: 10 * time.Second, LowFor: 10 * time.Second}
	if s.CapAt(0) != Uncapped || s.CapAt(9*time.Second) != Uncapped {
		t.Fatal("high phase wrong")
	}
	if s.CapAt(10*time.Second) != 100 || s.CapAt(19*time.Second) != 100 {
		t.Fatal("low phase wrong")
	}
	if s.CapAt(20*time.Second) != Uncapped { // period wraps
		t.Fatal("period wrap wrong")
	}
	if s.CapAt(35*time.Second) != 100 {
		t.Fatal("second low phase wrong")
	}
}

func TestStepZeroPeriodDegradesToLow(t *testing.T) {
	s := Step{LowW: 42}
	if s.CapAt(time.Second) != 42 {
		t.Fatal("zero-period step should hold low value")
	}
}

func TestJaggedScheme(t *testing.T) {
	j := Jagged{StartW: 200, LowW: 100, FallFor: 10 * time.Second, UncappedFor: 2 * time.Second}
	if j.CapAt(0) != Uncapped || j.CapAt(time.Second) != Uncapped {
		t.Fatal("uncapped tooth top wrong")
	}
	if got := j.CapAt(2 * time.Second); got != 200 {
		t.Fatalf("start of fall = %v", got)
	}
	if got := j.CapAt(7 * time.Second); math.Abs(got-150) > 1e-9 {
		t.Fatalf("mid fall = %v, want 150", got)
	}
	if got := j.CapAt(12 * time.Second); got != Uncapped { // wrapped to next tooth
		t.Fatalf("tooth wrap = %v, want uncapped", got)
	}
}

func TestJaggedNeverBelowLow(t *testing.T) {
	j := Jagged{StartW: 180, LowW: 90, FallFor: 7 * time.Second, UncappedFor: time.Second}
	for ms := 0; ms < 30000; ms += 100 {
		w := j.CapAt(time.Duration(ms) * time.Millisecond)
		if w != Uncapped && w < 90-1e-9 {
			t.Fatalf("cap %v below LowW at %dms", w, ms)
		}
	}
}

func TestDaemonAppliesSchemeThroughMSR(t *testing.T) {
	dev := msr.NewDevice(24, nil)
	d, err := NewDaemon(rapl.Writer{Dev: dev}, Constant{Watts: 120}, time.Second, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	raw, err := dev.Read(msr.PkgPowerLimit)
	if err != nil {
		t.Fatal(err)
	}
	pl := msr.DecodePowerLimit(raw, msr.DefaultUnits())
	if !pl.Enabled || math.Abs(pl.Watts-120) > 0.5 {
		t.Fatalf("programmed limit = %+v", pl)
	}
	if d.Applied() != 1 {
		t.Fatalf("Applied = %d", d.Applied())
	}
}

func TestDaemonAnchorsSchemeAtFirstApply(t *testing.T) {
	dev := msr.NewDevice(24, nil)
	lin := Linear{Delay: 0, StartW: 200, MinW: 100, RateWPerSec: 10}
	d, err := NewDaemon(rapl.Writer{Dev: dev}, lin, time.Second, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// First Apply at t=100s must see elapsed 0, i.e. StartW.
	if err := d.Apply(100 * time.Second); err != nil {
		t.Fatal(err)
	}
	raw, _ := dev.Read(msr.PkgPowerLimit)
	pl := msr.DecodePowerLimit(raw, msr.DefaultUnits())
	if math.Abs(pl.Watts-200) > 0.5 {
		t.Fatalf("first cap = %v, want 200", pl.Watts)
	}
	// 5 s later: 150 W.
	if err := d.Apply(105 * time.Second); err != nil {
		t.Fatal(err)
	}
	raw, _ = dev.Read(msr.PkgPowerLimit)
	pl = msr.DecodePowerLimit(raw, msr.DefaultUnits())
	if math.Abs(pl.Watts-150) > 0.5 {
		t.Fatalf("cap after 5 s = %v, want 150", pl.Watts)
	}
}

func TestDaemonRecordsCapTrace(t *testing.T) {
	dev := msr.NewDevice(24, nil)
	d, _ := NewDaemon(rapl.Writer{Dev: dev}, Step{HighW: Uncapped, LowW: 90, HighFor: 2 * time.Second, LowFor: 2 * time.Second},
		time.Second, 10*time.Millisecond)
	for sec := 0; sec < 6; sec++ {
		if err := d.Apply(time.Duration(sec) * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	tr := d.CapTrace()
	if tr.Len() != 6 {
		t.Fatalf("trace length = %d", tr.Len())
	}
	want := []float64{0, 0, 90, 90, 0, 0}
	for i, w := range want {
		if tr.At(i).V != w {
			t.Fatalf("trace[%d] = %v, want %v", i, tr.At(i).V, w)
		}
	}
}

func TestNewDaemonValidation(t *testing.T) {
	dev := msr.NewDevice(1, nil)
	if _, err := NewDaemon(rapl.Writer{Dev: dev}, nil, time.Second, time.Second); err == nil {
		t.Fatal("nil scheme accepted")
	}
	if _, err := NewDaemon(rapl.Writer{Dev: dev}, NoCap{}, 0, time.Second); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := NewDaemon(rapl.Writer{Dev: dev}, NoCap{}, time.Second, 0); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestDaemonSurfacesWhitelistFailure(t *testing.T) {
	// A device whose whitelist blocks the power limit (a locked-down
	// msr-safe configuration) must surface the write failure through
	// Apply rather than silently not capping.
	dev := msr.NewDevice(4, map[uint32]uint64{})
	d, err := NewDaemon(rapl.Writer{Dev: dev}, Constant{Watts: 100}, time.Second, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(0); err == nil {
		t.Fatal("Apply succeeded against a read-only whitelist")
	}
	if d.Applied() != 0 {
		t.Fatalf("Applied = %d after a failed write", d.Applied())
	}
	if d.CapTrace().Len() != 0 {
		t.Fatal("cap trace recorded a failed application")
	}
}

func TestDaemonRetriesTransientEIO(t *testing.T) {
	// One transient EIO on the daemon's first device access (the unit
	// register read that precedes the power-limit write) must not abort
	// the run: the write is retried and the cap still latches.
	dev := msr.NewDevice(4, nil)
	accesses := 0
	dev.SetFaultHook(func(op msr.FaultOp, addr uint32) msr.FaultClass {
		accesses++
		if accesses == 1 {
			return msr.FaultEIO
		}
		return msr.FaultNone
	})
	d, err := NewDaemon(rapl.Writer{Dev: dev}, Constant{Watts: 70}, time.Second, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(0); err != nil {
		t.Fatalf("Apply after one transient EIO: %v", err)
	}
	dev.SetFaultHook(nil)
	if w, err := rapl.ReadLimit(dev); err != nil || math.Abs(w-70) > 0.5 {
		t.Fatalf("programmed cap = %v W (err %v), want 70", w, err)
	}
	if d.Applied() != 1 {
		t.Fatalf("Applied = %d", d.Applied())
	}
}

func TestSchemeNames(t *testing.T) {
	names := map[string]Scheme{
		"linear-decrease": Linear{},
		"step-function":   Step{},
		"jagged-edge":     Jagged{},
		"uncapped":        NoCap{},
	}
	for want, s := range names {
		if s.Name() != want {
			t.Errorf("%T.Name() = %q, want %q", s, s.Name(), want)
		}
	}
}
