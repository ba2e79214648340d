package msr

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestDeviceReadDefaults(t *testing.T) {
	d := NewDevice(24, nil)
	if d.Cores() != 24 {
		t.Fatalf("Cores = %d", d.Cores())
	}
	v, err := d.Read(RaplPowerUnit)
	if err != nil {
		t.Fatal(err)
	}
	u := DecodeUnits(v)
	if u != DefaultUnits() {
		t.Fatalf("units = %+v, want %+v", u, DefaultUnits())
	}
}

func TestDeviceUnimplementedRead(t *testing.T) {
	d := NewDevice(1, nil)
	if _, err := d.Read(0xDEAD); err == nil {
		t.Fatal("read of unimplemented register succeeded")
	}
}

func TestDeviceWhitelistedWrite(t *testing.T) {
	d := NewDevice(2, nil)
	pl := EncodePowerLimit(PowerLimit{Watts: 120, Enabled: true, WindowSeconds: 0.01}, DefaultUnits())
	if err := d.Write(PkgPowerLimit, pl); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(PkgPowerLimit)
	if err != nil {
		t.Fatal(err)
	}
	if got != pl {
		t.Fatalf("readback = %#x, want %#x", got, pl)
	}
}

func TestDeviceNonWhitelistedRegisterRejected(t *testing.T) {
	d := NewDevice(1, nil)
	err := d.Write(PkgEnergyStatus, 1)
	var nw *ErrNotWhitelisted
	if !errors.As(err, &nw) {
		t.Fatalf("err = %v, want ErrNotWhitelisted", err)
	}
	if nw.Addr != PkgEnergyStatus || nw.Bits != 0 {
		t.Fatalf("err detail = %+v", nw)
	}
}

// TestDeviceUnimplementedRegisterNotWritable: a whitelist entry for an
// address the device does not implement grants nothing — the write fails
// as not whitelisted and no register appears.
func TestDeviceUnimplementedRegisterNotWritable(t *testing.T) {
	d := NewDevice(1, map[uint32]uint64{0xDEAD: ^uint64(0), PkgPowerLimit: 0xFF})
	err := d.Write(0xDEAD, 1)
	var nw *ErrNotWhitelisted
	if !errors.As(err, &nw) || nw.Addr != 0xDEAD || nw.Bits != 0 {
		t.Fatalf("err = %v, want ErrNotWhitelisted for 0xdead", err)
	}
	if _, err := d.Read(0xDEAD); err == nil {
		t.Fatal("read of the unimplemented register succeeded")
	}
	if d.WriteSeq(0xDEAD) != 0 {
		t.Fatal("rejected write advanced a write sequence")
	}
	if err := d.Write(PkgPowerLimit, 0x7F); err != nil {
		t.Fatalf("whitelisted write failed: %v", err)
	}
}

// TestDevicePokeUnimplementedPanics: the hardware side only pokes
// registers the device implements.
func TestDevicePokeUnimplementedPanics(t *testing.T) {
	for name, poke := range map[string]func(d *Device){
		"Poke":         func(d *Device) { d.Poke(0xDEAD, 1) },
		"PokeCore":     func(d *Device) { d.PokeCore(0, 0xDEAD, 1) },
		"PokeAllCores": func(d *Device) { d.PokeAllCores(0xDEAD, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s of an unimplemented register did not panic", name)
				}
			}()
			poke(NewDevice(2, nil))
		}()
	}
}

func TestDeviceNonWhitelistedBitsRejected(t *testing.T) {
	d := NewDevice(1, nil)
	// Bit 63 of PKG_POWER_LIMIT (lock bit) is outside the whitelist mask.
	err := d.Write(PkgPowerLimit, 1<<63)
	var nw *ErrNotWhitelisted
	if !errors.As(err, &nw) {
		t.Fatalf("err = %v, want ErrNotWhitelisted", err)
	}
	if nw.Bits != 1<<63 {
		t.Fatalf("offending bits = %#x", nw.Bits)
	}
}

func TestDevicePerCoreIsolation(t *testing.T) {
	d := NewDevice(4, nil)
	if err := d.WriteCore(1, PerfCtl, RatioFromMHz(2600)); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCore(2, PerfCtl, RatioFromMHz(1200)); err != nil {
		t.Fatal(err)
	}
	v1, err := d.ReadCore(1, PerfCtl)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := d.ReadCore(2, PerfCtl)
	if err != nil {
		t.Fatal(err)
	}
	if MHzFromRatio(v1) != 2600 || MHzFromRatio(v2) != 1200 {
		t.Fatalf("core values = %v, %v", MHzFromRatio(v1), MHzFromRatio(v2))
	}
}

func TestDeviceCoreRangeChecks(t *testing.T) {
	d := NewDevice(2, nil)
	if _, err := d.ReadCore(2, PerfStatus); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := d.WriteCore(-1, PerfCtl, 0); err == nil {
		t.Fatal("out-of-range write accepted")
	}
}

func TestDevicePokeBypassesWhitelist(t *testing.T) {
	d := NewDevice(1, nil)
	d.Poke(PkgEnergyStatus, 12345)
	v, err := d.Read(PkgEnergyStatus)
	if err != nil || v != 12345 {
		t.Fatalf("Read = %v, %v", v, err)
	}
	d.PokeCore(0, PerfStatus, RatioFromMHz(3300))
	v, err = d.ReadCore(0, PerfStatus)
	if err != nil || MHzFromRatio(v) != 3300 {
		t.Fatalf("PerfStatus = %v, %v", v, err)
	}
}

// TestPokeAllCores: one call reaches every core's copy of a per-core
// register, touches no other register, and — being hardware-side, like
// any poke — advances neither the write sequence nor the write count.
func TestPokeAllCores(t *testing.T) {
	d := NewDevice(4, nil)
	if err := d.WriteCore(2, PerfCtl, RatioFromMHz(1200)); err != nil {
		t.Fatal(err)
	}
	seq := d.WriteSeq(PerfStatus)
	writes, _ := d.Counts()
	d.PokeAllCores(PerfStatus, RatioFromMHz(2100))
	for c := 0; c < d.Cores(); c++ {
		v, err := d.ReadCore(c, PerfStatus)
		if err != nil || MHzFromRatio(v) != 2100 {
			t.Fatalf("core %d PerfStatus = %v, %v; want 2100 MHz", c, MHzFromRatio(v), err)
		}
	}
	if v, err := d.ReadCore(2, PerfCtl); err != nil || MHzFromRatio(v) != 1200 {
		t.Fatalf("PerfCtl = %v, %v; the poke leaked into another register", MHzFromRatio(v), err)
	}
	if d.WriteSeq(PerfStatus) != seq {
		t.Fatal("PokeAllCores advanced the write sequence")
	}
	if w, _ := d.Counts(); w != writes {
		t.Fatalf("PokeAllCores counted as %d policy writes", w-writes)
	}
	// A package-scope register has one copy, poked as Poke would.
	d.PokeAllCores(PkgEnergyStatus, 77)
	if v, err := d.Read(PkgEnergyStatus); err != nil || v != 77 {
		t.Fatalf("PkgEnergyStatus = %v, %v; want 77", v, err)
	}
}

func TestDeviceCounts(t *testing.T) {
	d := NewDevice(1, nil)
	_, _ = d.Read(RaplPowerUnit)
	_ = d.Write(PkgPowerLimit, 0)
	w, r := d.Counts()
	if w != 1 || r != 1 {
		t.Fatalf("Counts = %d,%d", w, r)
	}
}

func TestDeviceZeroCoresPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDevice(0) did not panic")
		}
	}()
	NewDevice(0, nil)
}

func TestPowerLimitRoundTrip(t *testing.T) {
	u := DefaultUnits()
	in := PowerLimit{Watts: 97.5, Enabled: true, Clamp: true, WindowSeconds: 0.009765625}
	out := DecodePowerLimit(EncodePowerLimit(in, u), u)
	if math.Abs(out.Watts-in.Watts) > u.PowerUnit()/2 {
		t.Fatalf("watts = %v, want %v", out.Watts, in.Watts)
	}
	if out.Enabled != in.Enabled || out.Clamp != in.Clamp {
		t.Fatalf("flags = %+v", out)
	}
	if math.Abs(out.WindowSeconds-in.WindowSeconds) > in.WindowSeconds/8 {
		t.Fatalf("window = %v, want ~%v", out.WindowSeconds, in.WindowSeconds)
	}
}

func TestPowerLimitSaturation(t *testing.T) {
	u := DefaultUnits()
	out := DecodePowerLimit(EncodePowerLimit(PowerLimit{Watts: 1e9}, u), u)
	if out.Watts != float64(0x7FFF)*u.PowerUnit() {
		t.Fatalf("saturated watts = %v", out.Watts)
	}
}

// Property: encode/decode round-trips watts within half a power unit for
// the representable range, and flags exactly.
func TestPowerLimitRoundTripProperty(t *testing.T) {
	u := DefaultUnits()
	maxW := float64(0x7FFF) * u.PowerUnit()
	prop := func(rawW uint16, en, cl bool) bool {
		w := float64(rawW) / 65535 * maxW
		in := PowerLimit{Watts: w, Enabled: en, Clamp: cl, WindowSeconds: 0.01}
		out := DecodePowerLimit(EncodePowerLimit(in, u), u)
		return math.Abs(out.Watts-w) <= u.PowerUnit()/2+1e-9 &&
			out.Enabled == en && out.Clamp == cl
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUnitsValues(t *testing.T) {
	u := DefaultUnits()
	if u.PowerUnit() != 0.125 {
		t.Fatalf("PowerUnit = %v", u.PowerUnit())
	}
	if math.Abs(u.EnergyUnit()-6.103515625e-5) > 1e-12 {
		t.Fatalf("EnergyUnit = %v", u.EnergyUnit())
	}
	if math.Abs(u.TimeUnit()-9.765625e-4) > 1e-12 {
		t.Fatalf("TimeUnit = %v", u.TimeUnit())
	}
}

func TestEnergyCounterAccumulates(t *testing.T) {
	u := DefaultUnits()
	c := NewEnergyCounter(u)
	prev := c.Raw()
	c.AddJoules(10)
	got := DeltaJoules(prev, c.Raw(), u)
	if math.Abs(got-10) > 2*u.EnergyUnit() {
		t.Fatalf("delta = %v, want ~10", got)
	}
}

func TestEnergyCounterFractionCarry(t *testing.T) {
	u := DefaultUnits()
	c := NewEnergyCounter(u)
	// Add 10000 slivers each smaller than one energy unit.
	sliver := u.EnergyUnit() / 3
	for i := 0; i < 10000; i++ {
		c.AddJoules(sliver)
	}
	want := sliver * 10000
	got := DeltaJoules(0, c.Raw(), u)
	if math.Abs(got-want) > 2*u.EnergyUnit() {
		t.Fatalf("accumulated %v, want ~%v (truncation lost energy)", got, want)
	}
}

func TestEnergyCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative energy did not panic")
		}
	}()
	NewEnergyCounter(DefaultUnits()).AddJoules(-1)
}

func TestDeltaJoulesWraparound(t *testing.T) {
	u := DefaultUnits()
	prev := uint64(0xFFFFFFF0)
	cur := uint64(0x10)
	want := float64(0x20) * u.EnergyUnit()
	if got := DeltaJoules(prev, cur, u); math.Abs(got-want) > 1e-12 {
		t.Fatalf("wrap delta = %v, want %v", got, want)
	}
}

func TestRatioRoundTrip(t *testing.T) {
	for _, mhz := range []float64{1000, 1600, 2600, 3300} {
		if got := MHzFromRatio(RatioFromMHz(mhz)); got != mhz {
			t.Fatalf("ratio round trip %v -> %v", mhz, got)
		}
	}
	// Values quantize to 100 MHz.
	if got := MHzFromRatio(RatioFromMHz(2550)); got != 2600 && got != 2500 {
		t.Fatalf("2550 quantized to %v", got)
	}
}

func TestClockModDutyCycle(t *testing.T) {
	if (ClockMod{Enabled: false, Level: 8}).DutyCycle() != 1 {
		t.Fatal("disabled modulation should be full duty")
	}
	if (ClockMod{Enabled: true, Level: 0}).DutyCycle() != 1 {
		t.Fatal("reserved level 0 should be full duty")
	}
	if got := (ClockMod{Enabled: true, Level: 8}).DutyCycle(); got != 0.5 {
		t.Fatalf("level 8 duty = %v, want 0.5", got)
	}
}

func TestClockModRoundTrip(t *testing.T) {
	for lvl := uint(0); lvl < 16; lvl++ {
		for _, en := range []bool{false, true} {
			in := ClockMod{Enabled: en, Level: lvl}
			if out := DecodeClockMod(EncodeClockMod(in)); out != in {
				t.Fatalf("round trip %+v -> %+v", in, out)
			}
		}
	}
}

// TestWriteSeqTracksOnlySuccessfulPolicyWrites: the deadman's freshness
// signal must advance on whitelisted writes only — not on hardware
// Pokes, not on EIO-failed writes, not on whitelist violations.
func TestWriteSeqTracksOnlySuccessfulPolicyWrites(t *testing.T) {
	d := NewDevice(2, nil)
	if d.WriteSeq(PkgPowerLimit) != 0 {
		t.Fatal("fresh device has nonzero write seq")
	}
	if err := d.Write(PkgPowerLimit, 0x8078); err != nil {
		t.Fatal(err)
	}
	if d.WriteSeq(PkgPowerLimit) != 1 {
		t.Fatalf("seq = %d after one write", d.WriteSeq(PkgPowerLimit))
	}
	// Hardware-side Poke must not advance the sequence.
	d.Poke(PkgPowerLimit, 0x1234)
	if d.WriteSeq(PkgPowerLimit) != 1 {
		t.Fatal("Poke advanced the write sequence")
	}
	// A non-whitelisted write must not advance it.
	if err := d.Write(PkgEnergyStatus, 1); err == nil {
		t.Fatal("energy status write allowed")
	}
	if d.WriteSeq(PkgEnergyStatus) != 0 {
		t.Fatal("rejected write advanced the sequence")
	}
	// An EIO-failed write must not advance it.
	d.SetFaultHook(func(op FaultOp, addr uint32) FaultClass {
		if op == OpWrite {
			return FaultEIO
		}
		return FaultNone
	})
	if err := d.Write(PkgPowerLimit, 0x8078); err != ErrIO {
		t.Fatalf("expected EIO, got %v", err)
	}
	if d.WriteSeq(PkgPowerLimit) != 1 {
		t.Fatal("failed write advanced the sequence")
	}
}
