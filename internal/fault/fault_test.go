package fault

import (
	"testing"
	"time"

	"progresscap/internal/counters"
	"progresscap/internal/msr"
	"progresscap/internal/pubsub"
)

func msg(i byte) pubsub.Message {
	return pubsub.Message{Topic: "progress.app", Payload: []byte{i}}
}

func TestZeroPlanIsPassthrough(t *testing.T) {
	inj := NewInjector(Plan{})
	ps := inj.PubSub()
	if ps.Enabled() {
		t.Fatal("zero plan reports enabled")
	}
	for i := 0; i < 100; i++ {
		out := ps.Intercept(time.Duration(i)*time.Millisecond, msg(byte(i)))
		if len(out) != 1 || out[0].Payload[0] != byte(i) {
			t.Fatalf("publish %d perturbed: %v", i, out)
		}
	}
	if d, dl, du, b := ps.Stats(); d|dl|du|b != 0 {
		t.Fatalf("zero plan accumulated stats: %d %d %d %d", d, dl, du, b)
	}
	if inj.MSR().Hook() != nil {
		t.Fatal("zero plan produced an MSR hook")
	}
	if inj.Counters().Hook() != nil {
		t.Fatal("zero plan produced a counters hook")
	}
	if inj.Node("n0") != nil {
		t.Fatal("zero plan produced a node injector")
	}
}

func TestPubSubDeterminism(t *testing.T) {
	plan := Plan{
		Seed: 42,
		PubSub: PubSubPlan{
			DropRate:  0.2,
			DelayRate: 0.2,
			MaxDelay:  50 * time.Millisecond,
			DupRate:   0.1,
		},
	}
	trace := func() []int {
		ps := NewInjector(plan).PubSub()
		var out []int
		for i := 0; i < 500; i++ {
			now := time.Duration(i) * 10 * time.Millisecond
			n := len(ps.Intercept(now, msg(byte(i))))
			n += len(ps.Due(now))
			out = append(out, n)
		}
		return out
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("publish %d: run A delivered %d, run B delivered %d", i, a[i], b[i])
		}
	}
}

func TestPubSubDropRate(t *testing.T) {
	ps := NewInjector(Plan{Seed: 7, PubSub: PubSubPlan{DropRate: 0.3}}).PubSub()
	const n = 5000
	kept := 0
	for i := 0; i < n; i++ {
		kept += len(ps.Intercept(0, msg(0)))
	}
	got := 1 - float64(kept)/n
	if got < 0.25 || got > 0.35 {
		t.Fatalf("drop rate %.3f, want ≈0.30", got)
	}
}

func TestPubSubDelayReleasesInOrder(t *testing.T) {
	ps := NewInjector(Plan{Seed: 3, PubSub: PubSubPlan{
		DelayRate: 1.0, MaxDelay: 100 * time.Millisecond,
	}}).PubSub()
	for i := 0; i < 20; i++ {
		if out := ps.Intercept(time.Duration(i)*time.Millisecond, msg(byte(i))); out != nil {
			t.Fatalf("delayed publish %d delivered immediately", i)
		}
	}
	if ps.Pending() != 20 {
		t.Fatalf("pending = %d, want 20", ps.Pending())
	}
	got := ps.Due(10 * time.Second)
	if len(got) != 20 {
		t.Fatalf("released %d, want 20", len(got))
	}
	if ps.Pending() != 0 {
		t.Fatalf("pending after release = %d", ps.Pending())
	}
	// Nothing due in the past stays queued.
	ps2 := NewInjector(Plan{Seed: 3, PubSub: PubSubPlan{
		DelayRate: 1.0, MaxDelay: time.Hour,
	}}).PubSub()
	ps2.Intercept(0, msg(1))
	if out := ps2.Due(time.Microsecond); len(out) != 0 {
		t.Fatalf("released %d messages before due time", len(out))
	}
}

func TestPubSubBlackout(t *testing.T) {
	ps := NewInjector(Plan{PubSub: PubSubPlan{
		Blackouts: []Window{{From: time.Second, To: 2 * time.Second}},
	}}).PubSub()
	if out := ps.Intercept(500*time.Millisecond, msg(0)); len(out) != 1 {
		t.Fatal("message before blackout lost")
	}
	if out := ps.Intercept(1500*time.Millisecond, msg(1)); out != nil {
		t.Fatal("message during blackout delivered")
	}
	if out := ps.Intercept(2*time.Second, msg(2)); len(out) != 1 {
		t.Fatal("message at blackout end lost (window is half-open)")
	}
}

func TestMSRHookEIOAndStale(t *testing.T) {
	dev := msr.NewDevice(1, nil)
	inj := NewInjector(Plan{Seed: 11, MSR: MSRPlan{ReadEIORate: 1.0}})
	dev.SetFaultHook(inj.MSR().Hook())
	if _, err := dev.Read(msr.PkgEnergyStatus); err != msr.ErrIO {
		t.Fatalf("read err = %v, want ErrIO", err)
	}

	// Stale: first read records, hardware advances, faulted read serves old.
	dev2 := msr.NewDevice(1, nil)
	if _, err := dev2.Read(msr.PkgEnergyStatus); err != nil {
		t.Fatal(err)
	}
	dev2.Poke(msr.PkgEnergyStatus, 999)
	inj2 := NewInjector(Plan{Seed: 11, MSR: MSRPlan{StaleReadRate: 1.0}})
	dev2.SetFaultHook(inj2.MSR().Hook())
	v, err := dev2.Read(msr.PkgEnergyStatus)
	if err != nil || v != 0 {
		t.Fatalf("stale read = %d, %v; want previous value 0", v, err)
	}

	// Write EIO blocks actuation.
	dev3 := msr.NewDevice(1, nil)
	inj3 := NewInjector(Plan{Seed: 11, MSR: MSRPlan{WriteEIORate: 1.0}})
	dev3.SetFaultHook(inj3.MSR().Hook())
	if err := dev3.Write(msr.PkgPowerLimit, 0); err != msr.ErrIO {
		t.Fatalf("write err = %v, want ErrIO", err)
	}
}

func TestCounterHookGlitchAndOverflow(t *testing.T) {
	bank := counters.NewBank(1)
	bank.CoreCells(0, 1)[counters.TotIns] += 1000
	inj := NewInjector(Plan{Seed: 5, Counters: CounterPlan{GlitchRate: 1.0, GlitchScale: 10}})
	bank.SetReadHook(inj.Counters().Hook())
	a := bank.Read(0, counters.TotIns) // spike
	b := bank.Read(0, counters.TotIns) // backwards jump
	if a != 10000 {
		t.Fatalf("spike read = %d, want 10000", a)
	}
	if b != 500 {
		t.Fatalf("backwards read = %d, want 500", b)
	}
	if inj.Counters().Glitches() != 2 {
		t.Fatalf("glitches = %d, want 2", inj.Counters().Glitches())
	}

	bank2 := counters.NewBank(1)
	bank2.CoreCells(0, 1)[counters.TotIns] += 100
	inj2 := NewInjector(Plan{Counters: CounterPlan{OverflowOffset: ^uint64(0) - 50}})
	bank2.SetReadHook(inj2.Counters().Hook())
	if v := bank2.Read(0, counters.TotIns); v != 49 {
		t.Fatalf("overflowed read = %d, want 49 (wrapped)", v)
	}
}

func TestNodeFaults(t *testing.T) {
	inj := NewInjector(Plan{Nodes: map[string]NodePlan{
		"n0": {CrashAt: 5 * time.Second},
		"n1": {SlowAt: 2 * time.Second, SlowFactor: 0.5},
	}})
	n0, n1 := inj.Node("n0"), inj.Node("n1")
	if n0.Crashed(4 * time.Second) {
		t.Fatal("n0 crashed early")
	}
	if !n0.Crashed(5 * time.Second) {
		t.Fatal("n0 not crashed at CrashAt")
	}
	if f := n1.FreqCeilingFrac(time.Second); f != 1 {
		t.Fatalf("n1 ceiling before SlowAt = %v", f)
	}
	if f := n1.FreqCeilingFrac(3 * time.Second); f != 0.5 {
		t.Fatalf("n1 ceiling after SlowAt = %v", f)
	}
	if inj.Node("n2") != nil {
		t.Fatal("unplanned node has an injector")
	}
}

func TestSplitStreamsAreIndependent(t *testing.T) {
	// Enabling the MSR class must not change pubsub decisions: the fault
	// classes draw from split streams, not one shared one.
	planA := Plan{Seed: 9, PubSub: PubSubPlan{DropRate: 0.5}}
	planB := planA
	planB.MSR = MSRPlan{ReadEIORate: 0.5}

	run := func(p Plan) []int {
		inj := NewInjector(p)
		ps := inj.PubSub()
		if h := inj.MSR().Hook(); h != nil {
			// Interleave MSR draws with pubsub draws.
			for i := 0; i < 50; i++ {
				h(msr.OpRead, msr.PkgEnergyStatus)
			}
		}
		var out []int
		for i := 0; i < 200; i++ {
			out = append(out, len(ps.Intercept(0, msg(byte(i)))))
		}
		return out
	}
	a, b := run(planA), run(planB)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("publish %d: MSR plan changed pubsub decision (%d vs %d)", i, a[i], b[i])
		}
	}
}
