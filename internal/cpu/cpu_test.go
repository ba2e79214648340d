package cpu

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateRejectsBadValues(t *testing.T) {
	bad := []Config{
		{Cores: 0, MinMHz: 1000, NomMHz: 2000, MaxMHz: 3000, StepMHz: 100},
		{Cores: 1, MinMHz: 1000, NomMHz: 2000, MaxMHz: 3000, StepMHz: 0},
		{Cores: 1, MinMHz: 0, NomMHz: 2000, MaxMHz: 3000, StepMHz: 100},
		{Cores: 1, MinMHz: 2500, NomMHz: 2000, MaxMHz: 3000, StepMHz: 100},
		{Cores: 1, MinMHz: 1000, NomMHz: 3500, MaxMHz: 3000, StepMHz: 100},
		{Cores: 1, MinMHz: 1050, NomMHz: 2000, MaxMHz: 3000, StepMHz: 100},
		{Cores: 1, MinMHz: 1000, NomMHz: 2000, MaxMHz: 3250, StepMHz: 100},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: bad config validated", i)
		}
	}
}

func TestLadder(t *testing.T) {
	l := DefaultConfig().Ladder()
	if l[0] != 1000 || l[len(l)-1] != 3300 {
		t.Fatalf("ladder ends = %v, %v", l[0], l[len(l)-1])
	}
	if len(l) != 24 { // 1000..3300 step 100
		t.Fatalf("ladder length = %d, want 24", len(l))
	}
	for i := 1; i < len(l); i++ {
		if math.Abs(l[i]-l[i-1]-100) > 1e-9 {
			t.Fatalf("ladder step at %d: %v -> %v", i, l[i-1], l[i])
		}
	}
}

func TestQuantize(t *testing.T) {
	c := DefaultConfig()
	cases := []struct{ in, want float64 }{
		{3300, 3300}, {5000, 3300}, {1000, 1000}, {500, 1000},
		{2650, 2600}, {2699, 2600}, {2600, 2600},
	}
	for _, tc := range cases {
		if got := c.Quantize(tc.in); got != tc.want {
			t.Errorf("Quantize(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// Property: Quantize output is always on the ladder and never exceeds the
// request (when the request is above the minimum).
func TestQuantizeProperty(t *testing.T) {
	c := DefaultConfig()
	onLadder := make(map[float64]bool)
	for _, f := range c.Ladder() {
		onLadder[f] = true
	}
	prop := func(raw uint16) bool {
		req := float64(raw) // 0..65535 MHz
		got := c.Quantize(req)
		if !onLadder[got] {
			return false
		}
		if req >= c.MinMHz && got > req {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDomainStartsUncapped(t *testing.T) {
	d, err := NewDomain(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.CurrentMHz() != 3300 || d.Duty() != 1 || d.EffectiveMHz() != 3300 {
		t.Fatalf("initial state: f=%v duty=%v", d.CurrentMHz(), d.Duty())
	}
}

func TestDomainRejectsBadConfig(t *testing.T) {
	if _, err := NewDomain(Config{}); err == nil {
		t.Fatal("NewDomain accepted zero config")
	}
}

func TestDomainSetTarget(t *testing.T) {
	d, _ := NewDomain(DefaultConfig())
	if got := d.SetTargetMHz(2345); got != 2300 {
		t.Fatalf("granted %v, want 2300", got)
	}
	if d.CurrentMHz() != 2300 {
		t.Fatalf("CurrentMHz = %v", d.CurrentMHz())
	}
}

func TestDomainDutyClamping(t *testing.T) {
	d, _ := NewDomain(DefaultConfig())
	if got := d.SetDuty(2); got != 1 {
		t.Fatalf("duty clamp high = %v", got)
	}
	if got := d.SetDuty(0); got != 1.0/16 {
		t.Fatalf("duty clamp low = %v", got)
	}
	d.SetDuty(0.5)
	d.SetTargetMHz(2000)
	if d.EffectiveMHz() != 1000 {
		t.Fatalf("EffectiveMHz = %v, want 1000", d.EffectiveMHz())
	}
}

func TestUncoreDefaults(t *testing.T) {
	u := NewUncore()
	if u.BWScale() != 1 || u.MemTimeFactor() != 1 {
		t.Fatalf("initial uncore: %v, %v", u.BWScale(), u.MemTimeFactor())
	}
}

func TestUncoreScaleAndFactor(t *testing.T) {
	u := NewUncore()
	if got := u.SetBWScale(0.5); got != 0.5 {
		t.Fatalf("SetBWScale = %v", got)
	}
	if u.MemTimeFactor() != 2 {
		t.Fatalf("MemTimeFactor = %v, want 2", u.MemTimeFactor())
	}
	if got := u.SetBWScale(0.01); got != 0.1 {
		t.Fatalf("floor clamp = %v, want 0.1", got)
	}
	if got := u.SetBWScale(5); got != 1 {
		t.Fatalf("ceiling clamp = %v, want 1", got)
	}
}
