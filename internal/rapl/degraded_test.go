package rapl

import (
	"testing"
	"time"

	"progresscap/internal/msr"
	"progresscap/internal/powercap"
)

func TestEnergyReaderSurvivesSeededWrap(t *testing.T) {
	r := newRig(t)
	// Seed the counter just below the 32-bit wrap, prime a reader, then
	// advance the hardware past the wrap point.
	r.ctl.SeedEnergy(0xFFFF_FF00)
	er := NewEnergyReader(r.dev)
	r.dev.Poke(msr.PkgEnergyStatus, (0xFFFF_FF00+0x200)&0xFFFF_FFFF)

	u := msr.DecodeUnits(must(r.dev.Read(msr.RaplPowerUnit)))
	got := er.Advance()
	want := float64(0x200) * u.EnergyUnit()
	if diff := got - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("wrapped delta = %v J, want %v J (naive cumulative read breaks here)", got, want)
	}
}

func TestEnergyReaderRetriesAndCarriesLastGood(t *testing.T) {
	dev := msr.NewDevice(1, nil)
	er := NewEnergyReader(dev)

	// Transient EIO: fail exactly the first access, retry succeeds.
	calls := 0
	dev.SetFaultHook(func(op msr.FaultOp, addr uint32) msr.FaultClass {
		if op == msr.OpRead && addr == msr.PkgEnergyStatus {
			calls++
			if calls == 1 {
				return msr.FaultEIO
			}
		}
		return msr.FaultNone
	})
	dev.Poke(msr.PkgEnergyStatus, 100)
	if dj := er.Advance(); dj <= 0 {
		t.Fatalf("Advance with one transient EIO = %v, want the 100-unit delta", dj)
	}
	if er.Failures() != 0 {
		t.Fatalf("failures = %d after recoverable EIO", er.Failures())
	}

	// Persistent EIO: the interval defers; next good read recovers it.
	dev.SetFaultHook(func(op msr.FaultOp, addr uint32) msr.FaultClass {
		if op == msr.OpRead && addr == msr.PkgEnergyStatus {
			return msr.FaultEIO
		}
		return msr.FaultNone
	})
	dev.Poke(msr.PkgEnergyStatus, 200)
	if dj := er.Advance(); dj != 0 {
		t.Fatalf("Advance under persistent EIO = %v, want 0", dj)
	}
	if er.Failures() != 1 {
		t.Fatalf("failures = %d, want 1", er.Failures())
	}
	dev.SetFaultHook(nil)
	dev.Poke(msr.PkgEnergyStatus, 300)
	u := msr.DecodeUnits(must(dev.Read(msr.RaplPowerUnit)))
	got := er.Advance()
	want := 200 * u.EnergyUnit() // 100 → 300: outage energy recovered
	if diff := got - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("recovered delta = %v J, want %v J (outage energy not lost)", got, want)
	}
}

func TestWriterRetry(t *testing.T) {
	dev := msr.NewDevice(1, nil)
	w := Writer{Dev: dev}
	fails := 0
	dev.SetFaultHook(func(op msr.FaultOp, addr uint32) msr.FaultClass {
		if op == msr.OpWrite && addr == msr.PkgPowerLimit && fails > 0 {
			fails--
			return msr.FaultEIO
		}
		return msr.FaultNone
	})

	fails = 1 // one transient failure: retry absorbs it
	if err := w.WriteCap(0, 90, time.Second); err != nil {
		t.Fatalf("transient EIO not absorbed: %v", err)
	}
	if got := mustCap(t, dev); got != 90 {
		t.Fatalf("limit after retry = %v W, want 90", got)
	}

	fails = 2 // persistent failure: surfaces
	if err := w.WriteCap(0, 80, time.Second); err != msr.ErrIO {
		t.Fatalf("persistent EIO err = %v, want ErrIO", err)
	}
}

// TestWriterRetriesUnitReadEIO covers the soak's failure mode: WriteLimit
// reads the unit register before it writes, so one EIO on that read
// must be retried like a failed write and the cap must still latch.
func TestWriterRetriesUnitReadEIO(t *testing.T) {
	dev := msr.NewDevice(1, nil)
	fails := 1
	dev.SetFaultHook(func(op msr.FaultOp, addr uint32) msr.FaultClass {
		if op == msr.OpRead && addr == msr.RaplPowerUnit && fails > 0 {
			fails--
			return msr.FaultEIO
		}
		return msr.FaultNone
	})
	if err := (Writer{Dev: dev}).WriteCap(0, 70, 10*time.Millisecond); err != nil {
		t.Fatalf("unit-read EIO not absorbed: %v", err)
	}
	if got := mustCap(t, dev); got != 70 {
		t.Fatalf("limit after retry = %v W, want 70", got)
	}
}

// TestWriterAbsorbsPark checks that a park (every backend down) is the
// one outcome of an actuated write the Writer swallows: it returns nil
// and the outage stays visible in the actuator's counters.
func TestWriterAbsorbsPark(t *testing.T) {
	a := NewActuator(ActuatorConfig{
		Backends: []Backend{
			&fakeBackend{name: "sysfs", writeErrs: []error{powercap.ErrPerm}},
			&fakeBackend{name: "msr", writeErrs: []error{powercap.ErrNoEnt}},
		},
		SafeCapW: 40,
	})
	if err := (Writer{Act: a}).WriteCap(0, 90, 10*time.Millisecond); err != nil {
		t.Fatalf("park not absorbed: %v", err)
	}
	if p := a.Counters().Parks; p != 1 {
		t.Fatalf("Parks = %d, want 1", p)
	}
}

func TestReadLimit(t *testing.T) {
	dev := msr.NewDevice(1, nil)
	if err := WriteLimit(dev, 85, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := mustCap(t, dev); got != 85 {
		t.Fatalf("ReadLimit = %v W, want 85", got)
	}
	if err := WriteLimit(dev, 0, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := mustCap(t, dev); got != 0 {
		t.Fatalf("ReadLimit of a disabled limit = %v W, want 0", got)
	}
}

func mustCap(t *testing.T, dev *msr.Device) float64 {
	t.Helper()
	w, err := ReadLimit(dev)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func must(v uint64, err error) uint64 {
	if err != nil {
		panic(err)
	}
	return v
}
