// Package msr emulates the model-specific register interface the paper's
// power-policy tool uses through libmsr and the msr-safe kernel module.
//
// The emulated device exposes the package-domain RAPL registers
// (RAPL_POWER_UNIT, PKG_POWER_LIMIT, PKG_ENERGY_STATUS), the P-state
// registers (IA32_PERF_STATUS / IA32_PERF_CTL), and the clock-modulation
// register used for dynamic duty cycle modulation (DDCM). Writes go
// through an msr-safe style whitelist of per-register write masks, so the
// policy daemon manipulates power exactly the way the real tool does: by
// encoding bit fields into registers, never by touching simulator state
// directly.
package msr

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Register addresses (Intel SDM numbering).
const (
	RaplPowerUnit    uint32 = 0x606 // MSR_RAPL_POWER_UNIT
	PkgPowerLimit    uint32 = 0x610 // MSR_PKG_POWER_LIMIT
	PkgEnergyStatus  uint32 = 0x611 // MSR_PKG_ENERGY_STATUS
	DramEnergyStatus uint32 = 0x619 // MSR_DRAM_ENERGY_STATUS
	PerfStatus       uint32 = 0x198 // IA32_PERF_STATUS (per core)
	PerfCtl          uint32 = 0x199 // IA32_PERF_CTL (per core)
	ClockModulation  uint32 = 0x19A // IA32_CLOCK_MODULATION (per core)
)

// Register slots. The device implements exactly the seven registers
// above, and its register file is dense: every scope (the package, and
// each core) holds one value per slot plus a bit per slot saying whether
// the register is set. A slot's scope is fixed: the first four registers
// are package-wide, the last three are replicated per core.
const (
	slotPowerUnit = iota
	slotPkgLimit
	slotPkgEnergy
	slotDramEnergy
	slotPerfStatus // first per-core slot
	slotPerfCtl
	slotClockMod
	numSlots
)

// slotOf maps a register address to its slot; ok is false for an
// address the device does not implement.
func slotOf(addr uint32) (slot int, ok bool) {
	switch addr {
	case RaplPowerUnit:
		return slotPowerUnit, true
	case PkgPowerLimit:
		return slotPkgLimit, true
	case PkgEnergyStatus:
		return slotPkgEnergy, true
	case DramEnergyStatus:
		return slotDramEnergy, true
	case PerfStatus:
		return slotPerfStatus, true
	case PerfCtl:
		return slotPerfCtl, true
	case ClockModulation:
		return slotClockMod, true
	}
	return 0, false
}

// regFile is one scope's register image: a value per slot and a bit per
// slot recording whether that register holds a value.
type regFile struct {
	val [numSlots]uint64
	set uint8
}

func (r *regFile) get(slot int) (uint64, bool) {
	return r.val[slot], r.set&(1<<slot) != 0
}

func (r *regFile) put(slot int, v uint64) {
	r.val[slot] = v
	r.set |= 1 << slot
}

// ErrNotWhitelisted is wrapped by write errors for registers or bits the
// whitelist does not allow.
type ErrNotWhitelisted struct {
	Addr uint32
	Bits uint64 // offending bits, 0 when the whole register is blocked
}

func (e *ErrNotWhitelisted) Error() string {
	if e.Bits == 0 {
		return fmt.Sprintf("msr: register 0x%x is not writable", e.Addr)
	}
	return fmt.Sprintf("msr: write to 0x%x touches non-whitelisted bits %#x", e.Addr, e.Bits)
}

// ErrIO is the transient I/O error an MSR access can fail with, the
// emulated analogue of the EIO an msr-safe read/write occasionally
// returns on real hardware. Callers should treat it as retryable.
var ErrIO = errors.New("msr: transient I/O error (EIO)")

// FaultOp distinguishes reads from writes for the fault hook.
type FaultOp int

// Fault hook operations.
const (
	OpRead FaultOp = iota
	OpWrite
)

// FaultClass is the fault a hook asks the device to exhibit for one
// access.
type FaultClass int

// Injectable access faults.
const (
	// FaultNone performs the access normally.
	FaultNone FaultClass = iota
	// FaultStale serves the value of the previous successful read of the
	// same register instead of the current one (no effect on writes, or
	// when the register was never read).
	FaultStale
	// FaultEIO fails the access with ErrIO without touching the register.
	FaultEIO
)

// FaultHook lets a fault-injection layer perturb individual accesses.
// It must be deterministic for reproducible runs.
type FaultHook func(op FaultOp, addr uint32) FaultClass

// Device is an emulated MSR file for one package with n cores.
// It is safe for concurrent use.
type Device struct {
	mu sync.Mutex
	// cores is construction configuration.
	cores int `snap:"-"`
	pkg   regFile
	core  []regFile
	// writeMask holds each whitelisted register's writable-bit mask; a
	// register whose bit is unset is not writable at all.
	writeMask regFile `snap:"-"`
	writes    uint64
	reads     uint64
	// writeSeq counts successful whitelisted writes per register — the
	// freshness signal the RAPL deadman watches to tell a live policy
	// daemon (which re-arms its cap) from a dead one (whose stale cap
	// must expire). Pokes are hardware-side and do not advance it.
	writeSeq [numSlots]uint64

	// faultHook is the fault layer's, installed by SetFaults on a resumed
	// engine.
	faultHook FaultHook `snap:"-"`
	// stalePkg and staleCore hold, per register scope, the value returned
	// by the previous successful read — what a FaultStale access serves.
	stalePkg  regFile
	staleCore []regFile
}

// DefaultWhitelist mirrors the msr-safe configuration the paper's setup
// needs: the power limit is fully writable (both the PL1 and PL2
// windows), P-state control and clock modulation are writable,
// everything else is read-only.
func DefaultWhitelist() map[uint32]uint64 {
	return map[uint32]uint64{
		PkgPowerLimit:   0x00FFFFFF_00FFFFFF, // PL1 + PL2: power, enable, clamp, window
		PerfCtl:         0x0000FF00,          // target ratio
		ClockModulation: 0x0000001F,          // duty level + enable
	}
}

// NewDevice returns a device for cores cores using the given write
// whitelist (register -> writable-bit mask). A nil whitelist uses
// DefaultWhitelist; entries for registers the device does not implement
// are ignored, so writes to those fail as not whitelisted. The RAPL unit
// register is initialized to standard Skylake units.
func NewDevice(cores int, whitelist map[uint32]uint64) *Device {
	if cores <= 0 {
		panic("msr: device needs at least one core")
	}
	if whitelist == nil {
		whitelist = DefaultWhitelist()
	}
	d := &Device{
		cores:     cores,
		core:      make([]regFile, cores),
		staleCore: make([]regFile, cores),
	}
	for addr, mask := range whitelist {
		if slot, ok := slotOf(addr); ok {
			d.writeMask.put(slot, mask)
		}
	}
	d.pkg.put(slotPowerUnit, DefaultUnits().encode())
	d.pkg.put(slotPkgLimit, 0)
	d.pkg.put(slotPkgEnergy, 0)
	return d
}

// scope returns the register image and the stale-read image that hold a
// slot as seen from core cpu.
func (d *Device) scope(cpu, slot int) (regs, stale *regFile) {
	if slot >= slotPerfStatus {
		return &d.core[cpu], &d.staleCore[cpu]
	}
	return &d.pkg, &d.stalePkg
}

// mustSlot is slotOf for the hardware side, which only ever pokes
// registers the device implements.
func mustSlot(addr uint32) int {
	slot, ok := slotOf(addr)
	if !ok {
		panic(fmt.Sprintf("msr: Poke of unimplemented register 0x%x", addr))
	}
	return slot
}

// Cores returns the number of cores the device models.
func (d *Device) Cores() int { return d.cores }

// SetFaultHook installs (or, with nil, removes) the access fault hook.
// Without a hook the device behaves perfectly; installing one is the only
// way accesses can fail transiently.
func (d *Device) SetFaultHook(h FaultHook) {
	d.mu.Lock()
	d.faultHook = h
	d.mu.Unlock()
}

// Read returns the value of a package-scope MSR.
func (d *Device) Read(addr uint32) (uint64, error) {
	return d.ReadCore(0, addr)
}

// ReadCore returns the value of an MSR as seen from the given core.
// Package-scope registers ignore the core index (after validation).
func (d *Device) ReadCore(cpu int, addr uint32) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cpu < 0 || cpu >= d.cores {
		return 0, fmt.Errorf("msr: core %d out of range [0,%d)", cpu, d.cores)
	}
	d.reads++
	slot, ok := slotOf(addr)
	regs, stale := d.scope(cpu, slot)
	v, set := regs.get(slot)
	if !ok || !set {
		return 0, fmt.Errorf("msr: read of unimplemented register 0x%x", addr)
	}
	if d.faultHook != nil {
		switch d.faultHook(OpRead, addr) {
		case FaultEIO:
			return 0, ErrIO
		case FaultStale:
			if old, seen := stale.get(slot); seen {
				return old, nil
			}
		}
	}
	stale.put(slot, v)
	return v, nil
}

// Write stores a value into a package-scope MSR, enforcing the whitelist.
func (d *Device) Write(addr uint32, v uint64) error {
	return d.WriteCore(0, addr, v)
}

// WriteCore stores a value into an MSR on the given core, enforcing the
// whitelist: the register must be whitelisted, and the write may only
// change whitelisted bits.
func (d *Device) WriteCore(cpu int, addr uint32, v uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cpu < 0 || cpu >= d.cores {
		return fmt.Errorf("msr: core %d out of range [0,%d)", cpu, d.cores)
	}
	if d.faultHook != nil && d.faultHook(OpWrite, addr) == FaultEIO {
		return ErrIO
	}
	slot, ok := slotOf(addr)
	mask, whitelisted := d.writeMask.get(slot)
	if !ok || !whitelisted {
		return &ErrNotWhitelisted{Addr: addr}
	}
	regs, _ := d.scope(cpu, slot)
	if changed := (regs.val[slot] ^ v) &^ mask; changed != 0 {
		return &ErrNotWhitelisted{Addr: addr, Bits: changed}
	}
	d.writes++
	d.writeSeq[slot]++
	regs.put(slot, v)
	return nil
}

// WriteSeq returns how many successful whitelisted writes the register
// has received. Failed writes (EIO, whitelist violations) and hardware
// Pokes do not count, so a consumer watching the sequence sees exactly
// the policy side's live re-arms.
func (d *Device) WriteSeq(addr uint32) uint64 {
	slot, ok := slotOf(addr)
	if !ok {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writeSeq[slot]
}

// Poke bypasses the whitelist; it is how the hardware side of the
// simulation (the RAPL emulator) updates read-only registers like energy
// status and PERF_STATUS. Policy code must never call it, and it panics
// on a register the device does not implement.
func (d *Device) Poke(addr uint32, v uint64) {
	d.PokeCore(0, addr, v)
}

// PokeCore is Poke for per-core registers.
func (d *Device) PokeCore(cpu int, addr uint32, v uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cpu < 0 || cpu >= d.cores {
		panic(fmt.Sprintf("msr: Poke on core %d out of range", cpu))
	}
	slot := mustSlot(addr)
	regs, _ := d.scope(cpu, slot)
	regs.put(slot, v)
}

// PokeAllCores is PokeCore on every core under one lock, the way the
// hardware side publishes a package-wide value into a per-core register
// such as PERF_STATUS. A package-scope register is simply poked once.
func (d *Device) PokeAllCores(addr uint32, v uint64) {
	slot := mustSlot(addr)
	d.mu.Lock()
	defer d.mu.Unlock()
	if slot < slotPerfStatus {
		d.pkg.put(slot, v)
		return
	}
	for i := range d.core {
		d.core[i].put(slot, v)
	}
}

// Counts returns the number of whitelisted writes and reads performed,
// for instrumentation-overhead accounting.
func (d *Device) Counts() (writes, reads uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes, d.reads
}

// Units describes the RAPL unit register: power in 1/2^PowerBits W,
// energy in 1/2^EnergyBits J, time in 1/2^TimeBits s.
type Units struct {
	PowerBits  uint
	EnergyBits uint
	TimeBits   uint
}

// DefaultUnits returns the standard Skylake-server units: 1/8 W,
// ~61 µJ, ~977 µs.
func DefaultUnits() Units {
	return Units{PowerBits: 3, EnergyBits: 14, TimeBits: 10}
}

func (u Units) encode() uint64 {
	return uint64(u.PowerBits&0xF) |
		uint64(u.EnergyBits&0x1F)<<8 |
		uint64(u.TimeBits&0xF)<<16
}

// DecodeUnits parses the RAPL_POWER_UNIT register value.
func DecodeUnits(v uint64) Units {
	return Units{
		PowerBits:  uint(v & 0xF),
		EnergyBits: uint(v >> 8 & 0x1F),
		TimeBits:   uint(v >> 16 & 0xF),
	}
}

// PowerUnit returns the power LSB in watts.
func (u Units) PowerUnit() float64 { return 1 / float64(uint64(1)<<u.PowerBits) }

// EnergyUnit returns the energy LSB in joules.
func (u Units) EnergyUnit() float64 { return 1 / float64(uint64(1)<<u.EnergyBits) }

// TimeUnit returns the time LSB in seconds.
func (u Units) TimeUnit() float64 { return 1 / float64(uint64(1)<<u.TimeBits) }

// PowerLimit is the decoded PKG_POWER_LIMIT PL1 window.
type PowerLimit struct {
	Watts         float64
	Enabled       bool
	Clamp         bool
	WindowSeconds float64
}

// EncodePowerLimits packs the PL1 (sustained, low 32 bits) and PL2
// (burst, high 32 bits) windows into the PKG_POWER_LIMIT register.
func EncodePowerLimits(pl1, pl2 PowerLimit, u Units) uint64 {
	return EncodePowerLimit(pl1, u) | EncodePowerLimit(pl2, u)<<32
}

// DecodePowerLimits unpacks both windows of PKG_POWER_LIMIT.
func DecodePowerLimits(v uint64, u Units) (pl1, pl2 PowerLimit) {
	return DecodePowerLimit(v&0xFFFFFFFF, u), DecodePowerLimit(v>>32, u)
}

// EncodePowerLimit packs a power limit into the register format using the
// given units. The power field saturates at its 15-bit range; the time
// window uses the Y * (1 + Z/4) SDM encoding.
func EncodePowerLimit(pl PowerLimit, u Units) uint64 {
	powerRaw := uint64(math.Round(pl.Watts / u.PowerUnit()))
	if powerRaw > 0x7FFF {
		powerRaw = 0x7FFF
	}
	v := powerRaw
	if pl.Enabled {
		v |= 1 << 15
	}
	if pl.Clamp {
		v |= 1 << 16
	}
	y, z := encodeTimeWindow(pl.WindowSeconds, u)
	v |= uint64(y&0x1F) << 17
	v |= uint64(z&0x3) << 22
	return v
}

// DecodePowerLimit unpacks a PKG_POWER_LIMIT value.
func DecodePowerLimit(v uint64, u Units) PowerLimit {
	y := uint(v >> 17 & 0x1F)
	z := uint(v >> 22 & 0x3)
	return PowerLimit{
		Watts:         float64(v&0x7FFF) * u.PowerUnit(),
		Enabled:       v>>15&1 == 1,
		Clamp:         v>>16&1 == 1,
		WindowSeconds: u.TimeUnit() * float64(uint64(1)<<y) * (1 + float64(z)/4),
	}
}

// encodeTimeWindow finds (Y, Z) with window ≈ 2^Y * (1 + Z/4) * timeUnit.
func encodeTimeWindow(seconds float64, u Units) (y, z uint) {
	if seconds <= 0 {
		return 0, 0
	}
	target := seconds / u.TimeUnit()
	bestY, bestZ, bestErr := uint(0), uint(0), math.Inf(1)
	for yy := uint(0); yy < 32; yy++ {
		for zz := uint(0); zz < 4; zz++ {
			val := float64(uint64(1)<<yy) * (1 + float64(zz)/4)
			if err := math.Abs(val - target); err < bestErr {
				bestY, bestZ, bestErr = yy, zz, err
			}
		}
	}
	return bestY, bestZ
}

// EnergyCounter maintains a RAPL-style 32-bit wrapping energy counter.
type EnergyCounter struct {
	// units is construction configuration.
	units Units  `snap:"-"`
	raw   uint64 // full-resolution accumulated energy in energy units
	frac  float64
}

// NewEnergyCounter returns a counter using the given units.
func NewEnergyCounter(u Units) *EnergyCounter {
	return &EnergyCounter{units: u}
}

// AddJoules accumulates energy; fractional units carry over so no energy
// is lost to truncation.
func (c *EnergyCounter) AddJoules(j float64) {
	if j < 0 {
		panic("msr: negative energy")
	}
	units := j/c.units.EnergyUnit() + c.frac
	whole := math.Floor(units)
	c.frac = units - whole
	c.raw += uint64(whole)
}

// Raw returns the register image: the low 32 bits of the accumulated
// count, as the hardware exposes it.
func (c *EnergyCounter) Raw() uint64 { return c.raw & 0xFFFFFFFF }

// SeedRaw positions the counter at an arbitrary raw value. A node does
// not boot with a zeroed energy counter, so consumers must tolerate an
// early 32-bit wraparound; fault plans use this to start the counter just
// below the wrap point.
func (c *EnergyCounter) SeedRaw(raw uint64) { c.raw = raw }

// EnergyWrapModulus is the modulus of the hardware energy counters: the
// register image wraps at 32 bits regardless of the unit scale.
const EnergyWrapModulus = uint64(1) << 32

// WrapDelta returns the forward distance from prev to cur on a counter
// that wraps at modulus, assuming the counter advanced by less than one
// full modulus between the two observations (reads must be frequent
// enough that it wraps at most once, as with real RAPL). It is the one
// wrap-math primitive shared by every energy consumer: the register-level
// readers (32-bit raw counts) and the powercap sysfs backend (µJ values
// wrapping at max_energy_range_uj). modulus must be nonzero.
func WrapDelta(prev, cur, modulus uint64) uint64 {
	prev %= modulus
	cur %= modulus
	if cur >= prev {
		return cur - prev
	}
	return modulus - prev + cur
}

// DeltaJoules returns the energy consumed between two successive register
// reads, handling 32-bit wraparound exactly once (reads must be frequent
// enough that the counter wraps at most once between them, as with real
// RAPL).
func DeltaJoules(prev, cur uint64, u Units) float64 {
	return float64(WrapDelta(prev, cur, EnergyWrapModulus)) * u.EnergyUnit()
}

// RatioFromMHz converts a core frequency to the 100 MHz bus-ratio encoding
// used by PERF_STATUS/PERF_CTL.
func RatioFromMHz(mhz float64) uint64 {
	r := uint64(math.Round(mhz / 100))
	if r > 0xFF {
		r = 0xFF
	}
	return r << 8
}

// MHzFromRatio decodes a PERF_STATUS/PERF_CTL value to MHz.
func MHzFromRatio(v uint64) float64 {
	return float64(v>>8&0xFF) * 100
}

// ClockMod is the decoded IA32_CLOCK_MODULATION register (extended
// 6.25 %-granularity form).
type ClockMod struct {
	Enabled bool
	Level   uint // 1..15, duty cycle = Level/16; 0 is reserved
}

// DutyCycle returns the effective duty cycle in (0, 1]. Disabled or
// reserved-level modulation means full duty.
func (c ClockMod) DutyCycle() float64 {
	if !c.Enabled || c.Level == 0 {
		return 1
	}
	return float64(c.Level) / 16
}

// EncodeClockMod packs the register value.
func EncodeClockMod(c ClockMod) uint64 {
	v := uint64(c.Level & 0xF)
	if c.Enabled {
		v |= 1 << 4
	}
	return v
}

// DecodeClockMod unpacks the register value.
func DecodeClockMod(v uint64) ClockMod {
	return ClockMod{Enabled: v>>4&1 == 1, Level: uint(v & 0xF)}
}
