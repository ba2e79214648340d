package progress

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"progresscap/internal/pubsub"
)

func TestReportMarshalRoundTrip(t *testing.T) {
	in := Report{App: "lammps", Phase: "verlet", Value: 40000, At: 1500 * time.Millisecond}
	out, err := UnmarshalReport(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestReportRoundTripProperty(t *testing.T) {
	prop := func(value float64, at uint32, appRaw, phaseRaw uint8) bool {
		if math.IsNaN(value) {
			return true
		}
		app := string(make([]byte, appRaw%20))
		phase := string(make([]byte, phaseRaw%20))
		in := Report{App: app, Phase: phase, Value: value, At: time.Duration(at)}
		out, err := UnmarshalReport(in.Marshal())
		return err == nil && out == in
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		make([]byte, 17),
		append(make([]byte, 16), 200), // app length exceeds payload
	}
	for i, b := range cases {
		if _, err := UnmarshalReport(b); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestMarshalLongNamePanics(t *testing.T) {
	long := make([]byte, 300)
	defer func() {
		if recover() == nil {
			t.Fatal("300-byte app name did not panic")
		}
	}()
	Report{App: string(long)}.Marshal()
}

// busAdapter adapts pubsub.Bus to the Publisher interface.
type busAdapter struct{ bus *pubsub.Bus }

func (a busAdapter) PublishPayload(topic string, payload []byte) int {
	return a.bus.Publish(pubsub.Message{Topic: topic, Payload: payload})
}

func TestReporterPublishesOnAppTopic(t *testing.T) {
	bus := pubsub.NewBus()
	sub := bus.Subscribe(Topic("amg"), 16)
	other := bus.Subscribe(Topic("lammps"), 16)

	r := NewReporter("amg", busAdapter{bus})
	r.Publish("solve", 1, time.Second)
	if r.Sent() != 1 {
		t.Fatalf("Sent = %d", r.Sent())
	}
	m, ok := sub.TryRecv()
	if !ok {
		t.Fatal("subscriber missed report")
	}
	rep, err := UnmarshalReport(m.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if rep.App != "amg" || rep.Phase != "solve" || rep.Value != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if _, ok := other.TryRecv(); ok {
		t.Fatal("cross-app leakage")
	}
}

func TestMonitorAggregatesWindow(t *testing.T) {
	m := NewMonitor(time.Second)
	// LAMMPS-style: 20 reports of 40000 units inside one second.
	for i := 0; i < 20; i++ {
		m.Offer(Report{Value: 40000, Phase: "verlet"})
	}
	s := m.Flush(time.Second)
	if s.Rate != 800000 {
		t.Fatalf("rate = %v, want 800000", s.Rate)
	}
	if s.Reports != 20 || s.Phase != "verlet" {
		t.Fatalf("sample = %+v", s)
	}
}

func TestMonitorEmptyWindowIsZero(t *testing.T) {
	m := NewMonitor(time.Second)
	m.Offer(Report{Value: 5})
	m.Flush(time.Second)
	s := m.Flush(2 * time.Second) // nothing offered: the OpenMC artifact
	if s.Rate != 0 || s.Reports != 0 {
		t.Fatalf("empty window sample = %+v", s)
	}
	if len(m.Samples()) != 2 {
		t.Fatalf("samples = %d", len(m.Samples()))
	}
}

func TestMonitorSubSecondWindow(t *testing.T) {
	m := NewMonitor(500 * time.Millisecond)
	m.Offer(Report{Value: 3})
	s := m.Flush(500 * time.Millisecond)
	if s.Rate != 6 { // 3 units / 0.5 s
		t.Fatalf("rate = %v, want 6", s.Rate)
	}
}

func TestMonitorTotalsAndMeanRate(t *testing.T) {
	m := NewMonitor(time.Second)
	for w := 1; w <= 4; w++ {
		m.Offer(Report{Value: float64(w)})
		m.Flush(time.Duration(w) * time.Second)
	}
	if m.TotalUnits() != 10 || m.Reports() != 4 {
		t.Fatalf("totals = %v units, %d reports", m.TotalUnits(), m.Reports())
	}
	if m.MeanRate() != 2.5 {
		t.Fatalf("MeanRate = %v", m.MeanRate())
	}
	if got := m.Rates(); len(got) != 4 || got[2] != 3 {
		t.Fatalf("Rates = %v", got)
	}
}

func TestMonitorBadWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window did not panic")
		}
	}()
	NewMonitor(0)
}

func TestCategoryString(t *testing.T) {
	if Category1.String() != "1" || Category3.String() != "3" {
		t.Fatal("category strings wrong")
	}
}

func TestClassifySteady(t *testing.T) {
	vals := make([]float64, 30)
	for i := range vals {
		vals[i] = 1080 + float64(i%3) // tiny wobble
	}
	if got := Classify(vals); got != Steady {
		t.Fatalf("steady series classified %v", got)
	}
}

func TestClassifyFluctuating(t *testing.T) {
	// AMG-style: alternating 2.5 and 3.0 iterations/s (CV ≈ 0.09).
	var vals []float64
	for i := 0; i < 30; i++ {
		if i%2 == 0 {
			vals = append(vals, 2.5)
		} else {
			vals = append(vals, 3.0)
		}
	}
	if got := Classify(vals); got != Fluctuating {
		t.Fatalf("fluctuating series classified %v", got)
	}
}

func TestClassifyPhased(t *testing.T) {
	// QMCPACK-style: three sustained levels.
	var vals []float64
	for i := 0; i < 10; i++ {
		vals = append(vals, 8)
	}
	for i := 0; i < 10; i++ {
		vals = append(vals, 12)
	}
	for i := 0; i < 10; i++ {
		vals = append(vals, 16)
	}
	if got := Classify(vals); got != Phased {
		t.Fatalf("phased series classified %v", got)
	}
}

func TestClassifyIgnoresZeroArtifacts(t *testing.T) {
	// OpenMC-style: steady 100k particles/s with occasional zeros.
	var vals []float64
	for i := 0; i < 30; i++ {
		if i%7 == 3 {
			vals = append(vals, 0)
		} else {
			vals = append(vals, 100000)
		}
	}
	if got := Classify(vals); got != Steady {
		t.Fatalf("zero-artifact series classified %v", got)
	}
}

func TestClassifyShortSeries(t *testing.T) {
	if got := Classify([]float64{5, 9}); got != Steady {
		t.Fatalf("short series classified %v", got)
	}
	if got := Classify(nil); got != Steady {
		t.Fatalf("nil series classified %v", got)
	}
}

func TestBehaviorString(t *testing.T) {
	if Steady.String() != "steady" || Fluctuating.String() != "fluctuating" || Phased.String() != "phased" {
		t.Fatal("behavior strings wrong")
	}
	if Behavior(9).String() != "unknown" {
		t.Fatal("unknown behavior string wrong")
	}
}

func TestMonitorNextFlushAt(t *testing.T) {
	m := NewMonitor(time.Second)
	if got := m.NextFlushAt(); got != time.Second {
		t.Fatalf("fresh monitor NextFlushAt = %v, want 1s", got)
	}
	m.Flush(time.Second)
	if got := m.NextFlushAt(); got != 2*time.Second {
		t.Fatalf("after flush at 1s, NextFlushAt = %v, want 2s", got)
	}
	// A late (off-grid) flush restarts the window from where it happened.
	m.Flush(2500 * time.Millisecond)
	if got := m.NextFlushAt(); got != 3500*time.Millisecond {
		t.Fatalf("after flush at 2.5s, NextFlushAt = %v, want 3.5s", got)
	}
}

// recyclingPublisher hands the Reporter back the one buffer it last
// published, the way the engine's bus publisher recycles payloads once
// they are decoded.
type recyclingPublisher struct{ buf []byte }

func (p *recyclingPublisher) PublishPayload(topic string, payload []byte) int {
	p.buf = payload
	return 1
}

func (p *recyclingPublisher) AcquirePayload(n int) []byte {
	if cap(p.buf) < n {
		return make([]byte, 0, n)
	}
	return p.buf[:0]
}

// TestReporterRecycledPublishAllocatesNothing: a Reporter whose
// Publisher supplies recycled buffers allocates no payload of its own.
func TestReporterRecycledPublishAllocatesNothing(t *testing.T) {
	pub := &recyclingPublisher{}
	r := NewReporter("lammps", pub)
	r.Publish("verlet", 40000, time.Second)
	if allocs := testing.AllocsPerRun(100, func() { r.Publish("verlet", 40000, time.Second) }); allocs != 0 {
		t.Fatalf("a recycled publish allocates %v times per report", allocs)
	}
	if rep, err := UnmarshalReport(pub.buf); err != nil || rep.App != "lammps" || rep.Value != 40000 {
		t.Fatalf("last payload decodes to %+v, %v", rep, err)
	}
}

// TestMonitorWindowAllocatesNothing: the monitor folds its open window
// as reports arrive, so neither a steady window nor a window larger than
// any before it allocates once the outlier-guard history is full.
func TestMonitorWindowAllocatesNothing(t *testing.T) {
	m := NewMonitor(time.Second)
	now := time.Duration(0)
	window := func(n int) {
		for i := 0; i < n; i++ {
			m.Offer(Report{App: "lammps", Phase: "verlet", Value: 40000})
		}
		now += time.Second
		m.Flush(now)
	}
	window(historySize)
	if allocs := testing.AllocsPerRun(100, func() { window(25) }); allocs != 0 {
		t.Fatalf("a steady window allocates %v times", allocs)
	}
	n := 512
	if allocs := testing.AllocsPerRun(4, func() { n *= 2; window(n) }); allocs != 0 {
		t.Fatalf("a window of %d reports allocates %v times", n, allocs)
	}
	if s := m.Samples()[len(m.Samples())-1]; s.Reports != n || s.Rate != float64(n)*40000 {
		t.Fatalf("last sample = %+v, want %d reports", s, n)
	}
}

// TestMonitorFlushSumsInArrivalOrder pins the rate's bits: the window's
// values summed left to right from +0, divided by the elapsed time. The
// values are chosen so that any other summation order gives other bits.
func TestMonitorFlushSumsInArrivalOrder(t *testing.T) {
	vals := []float64{0.1, 0.2, 0.3}
	if (vals[0]+vals[1])+vals[2] == vals[0]+(vals[1]+vals[2]) {
		t.Fatal("values do not tell summation orders apart")
	}
	m := NewMonitor(time.Second)
	for _, v := range vals {
		m.Offer(Report{Value: v})
	}
	const elapsed = 1.5
	s := m.Flush(1500 * time.Millisecond)
	want := ((0 + vals[0]) + vals[1]) + vals[2]
	if math.Float64bits(s.Rate) != math.Float64bits(want/elapsed) {
		t.Fatalf("rate = %b, want %b", math.Float64bits(s.Rate), math.Float64bits(want/elapsed))
	}
}
