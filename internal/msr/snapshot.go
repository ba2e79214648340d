// Checkpoint accessors for the emulated MSR device and the wrapping
// energy counters. The register file, access statistics, write sequences
// (the deadman's freshness signal), and per-scope stale-read images are
// all semantic state a forked run must inherit bit-exactly; the write
// whitelist and fault hook are construction/installation-time wiring the
// restoring engine re-creates itself.

package msr

import "slices"

// DeviceState is a deep copy of a Device's mutable state, in the
// device's dense layout: each register image carries which registers are
// set alongside their values.
type DeviceState struct {
	Pkg       regFile
	Core      []regFile
	Writes    uint64
	Reads     uint64
	WriteSeq  [numSlots]uint64
	StalePkg  regFile
	StaleCore []regFile
}

// Snapshot captures the device's register file and access accounting.
func (d *Device) Snapshot() DeviceState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DeviceState{
		Pkg:       d.pkg,
		Core:      slices.Clone(d.core),
		Writes:    d.writes,
		Reads:     d.reads,
		WriteSeq:  d.writeSeq,
		StalePkg:  d.stalePkg,
		StaleCore: slices.Clone(d.staleCore),
	}
}

// Restore pours a captured register file back. The state must come from
// a device with the same core count.
func (d *Device) Restore(s DeviceState) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(s.Core) != d.cores || len(s.StaleCore) != d.cores {
		panic("msr: device state core count mismatch")
	}
	d.pkg = s.Pkg
	copy(d.core, s.Core)
	d.writes = s.Writes
	d.reads = s.Reads
	d.writeSeq = s.WriteSeq
	d.stalePkg = s.StalePkg
	copy(d.staleCore, s.StaleCore)
}

// EnergyCounterState is the full-resolution position of an EnergyCounter
// (Raw here is the unmasked accumulator, not the 32-bit register image).
type EnergyCounterState struct {
	Raw  uint64
	Frac float64
}

// Snapshot captures the counter's position.
func (c *EnergyCounter) Snapshot() EnergyCounterState {
	return EnergyCounterState{Raw: c.raw, Frac: c.frac}
}

// Restore pours a captured position back. Units stay as constructed.
func (c *EnergyCounter) Restore(s EnergyCounterState) {
	c.raw = s.Raw
	c.frac = s.Frac
}
