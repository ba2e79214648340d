package msr

import (
	"math"
	"testing"
)

// TestWrapDelta pins the shared wrap-math primitive on both moduli it is
// deployed with: the 32-bit register image and the µJ-scale powercap
// range.
func TestWrapDelta(t *testing.T) {
	const ujMod = (uint64(1) << 32) * 1_000_000 >> 14 // max_energy_range_uj for EnergyBits=14
	cases := []struct {
		name           string
		prev, cur, mod uint64
		want           uint64
	}{
		{"no-wrap", 100, 250, EnergyWrapModulus, 150},
		{"equal", 7, 7, EnergyWrapModulus, 0},
		{"wrap-once", EnergyWrapModulus - 10, 5, EnergyWrapModulus, 15},
		{"wrap-at-edge", EnergyWrapModulus - 1, 0, EnergyWrapModulus, 1},
		{"high-bits-ignored", (1 << 40) | 100, (1 << 41) | 250, EnergyWrapModulus, 150},
		{"uj-no-wrap", 1_000_000, 3_500_000, ujMod, 2_500_000},
		{"uj-wrap", ujMod - 1_000, 2_000, ujMod, 3_000},
	}
	for _, c := range cases {
		if got := WrapDelta(c.prev, c.cur, c.mod); got != c.want {
			t.Errorf("%s: WrapDelta(%d, %d, %d) = %d, want %d", c.name, c.prev, c.cur, c.mod, got, c.want)
		}
	}
}

// TestWrapDeltaMatchesDeltaJoules proves the refactored DeltaJoules is
// numerically identical to the pre-helper wrap arithmetic across the
// wrap boundary, so no cached energy accounting shifted.
func TestWrapDeltaMatchesDeltaJoules(t *testing.T) {
	u := DefaultUnits()
	legacy := func(prev, cur uint64) float64 {
		prev &= 0xFFFFFFFF
		cur &= 0xFFFFFFFF
		var d uint64
		if cur >= prev {
			d = cur - prev
		} else {
			d = (1<<32 - prev) + cur
		}
		return float64(d) * u.EnergyUnit()
	}
	for _, pair := range [][2]uint64{
		{0, 0}, {0, 1}, {12345, 999999}, {0xFFFFFFFF, 0}, {0xFFFFFF00, 0x80},
		{1 << 33, (1 << 33) + 500}, {0xFFFFFFFE, 0xFFFFFFFF},
	} {
		got := DeltaJoules(pair[0], pair[1], u)
		want := legacy(pair[0], pair[1])
		if math.Abs(got-want) > 0 {
			t.Errorf("DeltaJoules(%d, %d) = %g, legacy %g", pair[0], pair[1], got, want)
		}
	}
}
