package fault

import (
	"strings"
	"testing"
	"time"
)

func TestValidateAcceptsZeroPlan(t *testing.T) {
	if err := (Plan{}).Validate(); err != nil {
		t.Fatalf("zero plan should validate: %v", err)
	}
}

func TestValidateAcceptsRealisticPlan(t *testing.T) {
	p := Plan{
		Seed: 7,
		PubSub: PubSubPlan{
			DropRate:  0.1,
			DelayRate: 0.05,
			MaxDelay:  150 * time.Millisecond,
			Blackouts: []Window{{From: 2 * time.Second, To: 4 * time.Second}},
		},
		MSR:      MSRPlan{StaleReadRate: 0.02, ReadEIORate: 0.01, EnergyWrapRaw: 1 << 31},
		Counters: CounterPlan{GlitchRate: 0.01, GlitchScale: 512},
		Nodes: map[string]NodePlan{
			"n0": {CrashAt: 5 * time.Second, RecoverAt: 9 * time.Second},
			"n1": {SlowAt: 3 * time.Second, SlowFactor: 0.5},
		},
		Managers: map[string]ManagerPlan{
			"m0": {PauseAt: 4 * time.Second, ResumeAt: 8 * time.Second},
		},
		Partitions: []Partition{{
			Window: Window{From: 6 * time.Second, To: 10 * time.Second},
			A:      []string{"n0"},
			B:      []string{"m0", "m1"},
		}},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("realistic plan should validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"negative crash", Plan{Nodes: map[string]NodePlan{"n0": {CrashAt: -time.Second}}}, "negative"},
		{"recover before crash", Plan{Nodes: map[string]NodePlan{"n0": {CrashAt: 5 * time.Second, RecoverAt: 2 * time.Second}}}, "not after"},
		{"recover without crash", Plan{Nodes: map[string]NodePlan{"n0": {RecoverAt: 2 * time.Second}}}, "without a crash"},
		{"slow factor zero", Plan{Nodes: map[string]NodePlan{"n0": {SlowAt: time.Second}}}, "SlowFactor"},
		{"slow factor above one", Plan{Nodes: map[string]NodePlan{"n0": {SlowAt: time.Second, SlowFactor: 1.5}}}, "SlowFactor"},
		{"negative kill", Plan{Managers: map[string]ManagerPlan{"m0": {KillAt: -1}}}, "negative"},
		{"resume before pause", Plan{Managers: map[string]ManagerPlan{"m0": {PauseAt: 5 * time.Second, ResumeAt: 5 * time.Second}}}, "not after"},
		{"resume without pause", Plan{Managers: map[string]ManagerPlan{"m0": {ResumeAt: 5 * time.Second}}}, "without a pause"},
		{"empty partition window", Plan{Partitions: []Partition{{
			Window: Window{From: 2 * time.Second, To: 2 * time.Second}, A: []string{"a"}, B: []string{"b"},
		}}}, "empty or inverted"},
		{"inverted partition window", Plan{Partitions: []Partition{{
			Window: Window{From: 4 * time.Second, To: 2 * time.Second}, A: []string{"a"}, B: []string{"b"},
		}}}, "empty or inverted"},
		{"negative window start", Plan{Partitions: []Partition{{
			Window: Window{From: -time.Second, To: 2 * time.Second}, A: []string{"a"}, B: []string{"b"},
		}}}, "negative"},
		{"empty partition side", Plan{Partitions: []Partition{{
			Window: Window{From: time.Second, To: 2 * time.Second}, A: []string{"a"},
		}}}, "empty side"},
		{"actor on both sides", Plan{Partitions: []Partition{{
			Window: Window{From: time.Second, To: 2 * time.Second}, A: []string{"a"}, B: []string{"a", "b"},
		}}}, "both sides"},
		{"drop rate above one", Plan{PubSub: PubSubPlan{DropRate: 1.5}}, "outside [0, 1]"},
		{"negative delay rate", Plan{PubSub: PubSubPlan{DelayRate: -0.1}}, "outside [0, 1]"},
		{"negative max delay", Plan{PubSub: PubSubPlan{MaxDelay: -time.Second}}, "negative"},
		{"blackout empty", Plan{PubSub: PubSubPlan{Blackouts: []Window{{From: time.Second, To: time.Second}}}}, "empty or inverted"},
		{"stale rate above one", Plan{MSR: MSRPlan{StaleReadRate: 2}}, "outside [0, 1]"},
		{"glitch rate negative", Plan{Counters: CounterPlan{GlitchRate: -1}}, "outside [0, 1]"},
		{"glitch scale negative", Plan{Counters: CounterPlan{GlitchRate: 0.1, GlitchScale: -2}}, "negative"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.plan.Validate()
			if err == nil {
				t.Fatalf("plan %+v should be rejected", c.plan)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}
