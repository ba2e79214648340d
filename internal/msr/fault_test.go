package msr

import (
	"testing"

	"progresscap/internal/snap"
)

// staleReads is a fault hook that serves every read stale while *on is
// true and leaves writes alone.
func staleReads(on *bool) FaultHook {
	return func(op FaultOp, addr uint32) FaultClass {
		if op == OpRead && *on {
			return FaultStale
		}
		return FaultNone
	}
}

// TestFaultStaleServesPreviousReadPerScope: a stale read returns the
// value of the previous successful read of the same register in the same
// scope — the package image for package registers, the core's own image
// for per-core ones — not the current value.
func TestFaultStaleServesPreviousReadPerScope(t *testing.T) {
	d := NewDevice(3, nil)
	stale := false
	d.SetFaultHook(staleReads(&stale))

	d.Poke(PkgEnergyStatus, 100)
	d.PokeCore(0, PerfStatus, RatioFromMHz(1000))
	d.PokeCore(1, PerfStatus, RatioFromMHz(2000))
	d.PokeCore(2, PerfStatus, RatioFromMHz(3000))
	if v, err := d.Read(PkgEnergyStatus); err != nil || v != 100 {
		t.Fatalf("fresh energy read = %v, %v", v, err)
	}
	for c := 0; c < 2; c++ { // core 2 is never read
		if _, err := d.ReadCore(c, PerfStatus); err != nil {
			t.Fatal(err)
		}
	}

	d.Poke(PkgEnergyStatus, 200)
	d.PokeAllCores(PerfStatus, RatioFromMHz(3300))
	stale = true
	if v, err := d.Read(PkgEnergyStatus); err != nil || v != 100 {
		t.Fatalf("stale energy read = %v, %v; want the previous read, 100", v, err)
	}
	// A package register reads the package image from any core.
	if v, err := d.ReadCore(2, PkgEnergyStatus); err != nil || v != 100 {
		t.Fatalf("stale energy read via core 2 = %v, %v; want 100", v, err)
	}
	for c, want := range []float64{1000, 2000} {
		if v, err := d.ReadCore(c, PerfStatus); err != nil || MHzFromRatio(v) != want {
			t.Fatalf("stale core %d PerfStatus = %v, %v; want its own previous read, %v MHz", c, MHzFromRatio(v), err, want)
		}
	}
	// A stale read refreshes nothing: the image stays at the last good read.
	if v, _ := d.Read(PkgEnergyStatus); v != 100 {
		t.Fatalf("second stale energy read = %v, want 100", v)
	}

	stale = false
	if v, err := d.Read(PkgEnergyStatus); err != nil || v != 200 {
		t.Fatalf("healthy energy read = %v, %v; want 200", v, err)
	}
	stale = true
	if v, _ := d.Read(PkgEnergyStatus); v != 200 {
		t.Fatalf("stale read after a healthy one = %v, want 200", v)
	}
}

// TestFaultStaleBeforeAnyReadFallsThrough: with no previous read in its
// scope, a stale access serves the current value, and that read becomes
// the image later stale reads serve.
func TestFaultStaleBeforeAnyReadFallsThrough(t *testing.T) {
	d := NewDevice(2, nil)
	stale := true
	d.SetFaultHook(staleReads(&stale))

	d.Poke(PkgEnergyStatus, 42)
	if v, err := d.Read(PkgEnergyStatus); err != nil || v != 42 {
		t.Fatalf("first stale read = %v, %v; want the current value, 42", v, err)
	}
	d.PokeCore(1, PerfStatus, RatioFromMHz(1800))
	if v, err := d.ReadCore(1, PerfStatus); err != nil || MHzFromRatio(v) != 1800 {
		t.Fatalf("first stale core read = %v, %v; want 1800 MHz", MHzFromRatio(v), err)
	}

	d.Poke(PkgEnergyStatus, 43)
	if v, _ := d.Read(PkgEnergyStatus); v != 42 {
		t.Fatalf("stale read after the fall-through = %v, want 42", v)
	}
	// Core 0's image is still empty, so its first stale read falls through.
	d.PokeAllCores(PerfStatus, RatioFromMHz(2400))
	if v, err := d.ReadCore(0, PerfStatus); err != nil || MHzFromRatio(v) != 2400 {
		t.Fatalf("core 0 first stale read = %v, %v; want 2400 MHz", MHzFromRatio(v), err)
	}
	if v, _ := d.ReadCore(1, PerfStatus); MHzFromRatio(v) != 1800 {
		t.Fatalf("core 1 stale read = %v MHz, want 1800", MHzFromRatio(v))
	}

	// A register that was never set still errors, hook or not.
	if _, err := d.Read(DramEnergyStatus); err == nil {
		t.Fatal("stale read of an unset register succeeded")
	}
}

// TestFaultEIOWriteLeavesRegisterUntouched: an EIO write fails with
// ErrIO and changes neither the value nor the write sequence nor the
// write count.
func TestFaultEIOWriteLeavesRegisterUntouched(t *testing.T) {
	d := NewDevice(2, nil)
	if err := d.Write(PkgPowerLimit, 0x8078); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCore(1, PerfCtl, RatioFromMHz(2000)); err != nil {
		t.Fatal(err)
	}
	seqLimit, seqCtl := d.WriteSeq(PkgPowerLimit), d.WriteSeq(PerfCtl)
	writes, _ := d.Counts()

	d.SetFaultHook(func(op FaultOp, addr uint32) FaultClass {
		if op == OpWrite {
			return FaultEIO
		}
		return FaultNone
	})
	if err := d.Write(PkgPowerLimit, 0x80F0); err != ErrIO {
		t.Fatalf("power-limit write err = %v, want ErrIO", err)
	}
	if err := d.WriteCore(1, PerfCtl, RatioFromMHz(1200)); err != ErrIO {
		t.Fatalf("PerfCtl write err = %v, want ErrIO", err)
	}
	if v, err := d.Read(PkgPowerLimit); err != nil || v != 0x8078 {
		t.Fatalf("power limit = %#x, %v; want 0x8078", v, err)
	}
	if v, err := d.ReadCore(1, PerfCtl); err != nil || MHzFromRatio(v) != 2000 {
		t.Fatalf("PerfCtl = %v MHz, %v; want 2000", MHzFromRatio(v), err)
	}
	if d.WriteSeq(PkgPowerLimit) != seqLimit || d.WriteSeq(PerfCtl) != seqCtl {
		t.Fatal("an EIO write advanced a write sequence")
	}
	if w, _ := d.Counts(); w != writes {
		t.Fatalf("write count = %d after EIO writes, want %d", w, writes)
	}
}

// TestSnapshotRestorePreservesStaleImagesAndSetRegisters: a restored
// device serves the same stale images and holds exactly the same set of
// registers as the one it was captured from, including registers that
// were never set there.
func TestSnapshotRestorePreservesStaleImagesAndSetRegisters(t *testing.T) {
	src := NewDevice(2, nil)
	stale := false
	src.SetFaultHook(staleReads(&stale))
	src.Poke(PkgEnergyStatus, 7)
	src.PokeCore(1, PerfStatus, RatioFromMHz(1500))
	if _, err := src.Read(PkgEnergyStatus); err != nil {
		t.Fatal(err)
	}
	if _, err := src.ReadCore(1, PerfStatus); err != nil {
		t.Fatal(err)
	}
	if err := src.Write(PkgPowerLimit, 0x8078); err != nil {
		t.Fatal(err)
	}
	src.Poke(PkgEnergyStatus, 9)
	src.PokeCore(1, PerfStatus, RatioFromMHz(2500))

	dst := NewDevice(2, nil)
	dst.Poke(DramEnergyStatus, 1) // set here, unset in the snapshot
	dst.PokeCore(0, PerfStatus, RatioFromMHz(900))
	if _, err := snap.Copy(dst, src); err != nil {
		t.Fatal(err)
	}
	if w, r := dst.Counts(); w != 1 || r != 2 {
		t.Fatalf("restored Counts = %d,%d; want 1,2", w, r)
	}
	dstStale := true
	dst.SetFaultHook(staleReads(&dstStale))

	if v, err := dst.Read(PkgEnergyStatus); err != nil || v != 7 {
		t.Fatalf("restored stale energy = %v, %v; want 7", v, err)
	}
	if v, err := dst.ReadCore(1, PerfStatus); err != nil || MHzFromRatio(v) != 1500 {
		t.Fatalf("restored stale core 1 = %v MHz, %v; want 1500", MHzFromRatio(v), err)
	}
	dstStale = false
	if v, err := dst.Read(PkgEnergyStatus); err != nil || v != 9 {
		t.Fatalf("restored energy = %v, %v; want 9", v, err)
	}
	if v, err := dst.Read(PkgPowerLimit); err != nil || v != 0x8078 {
		t.Fatalf("restored power limit = %#x, %v", v, err)
	}
	if dst.WriteSeq(PkgPowerLimit) != 1 {
		t.Fatalf("restored write seq = %d, want 1", dst.WriteSeq(PkgPowerLimit))
	}
	for _, c := range []struct {
		core int
		addr uint32
	}{{0, DramEnergyStatus}, {0, PerfStatus}, {0, PerfCtl}, {1, ClockModulation}} {
		if _, err := dst.ReadCore(c.core, c.addr); err == nil {
			t.Fatalf("register %#x on core %d is set after Restore; the snapshot never set it", c.addr, c.core)
		}
	}
}
