package pubsub

import (
	"fmt"
	"testing"
	"time"
)

func TestClassifyTopic(t *testing.T) {
	cases := map[string]Lane{
		"control.quarantine":   LaneControl,
		"lease.grant.n1":       LaneControl,
		"fence.epoch":          LaneControl,
		"progress.n1":          LaneTelemetry,
		"telemetry.progress.x": LaneTelemetry,
		"leases":               LaneTelemetry, // prefix must match exactly
		"":                     LaneTelemetry,
	}
	for topic, want := range cases {
		if got := ClassifyTopic(topic); got != want {
			t.Errorf("ClassifyTopic(%q) = %v, want %v", topic, got, want)
		}
	}
	if LaneControl.String() != "control" || LaneTelemetry.String() != "telemetry" {
		t.Error("lane names wrong")
	}
}

func TestLanedQueueControlFirst(t *testing.T) {
	q := NewLanedQueue(4, 4)
	q.Push(Message{Topic: "progress.n1"}, 0)
	q.Push(Message{Topic: "lease.grant.n1"}, 0)
	q.Push(Message{Topic: "progress.n2"}, 0)

	m, lane, ok := q.Pop(time.Millisecond)
	if !ok || lane != LaneControl || m.Topic != "lease.grant.n1" {
		t.Fatalf("first pop = %q lane %v, want the control message", m.Topic, lane)
	}
	m, lane, ok = q.Pop(time.Millisecond)
	if !ok || lane != LaneTelemetry || m.Topic != "progress.n1" {
		t.Fatalf("second pop = %q lane %v, want oldest telemetry", m.Topic, lane)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	q.Pop(time.Millisecond)
	if _, _, ok := q.Pop(time.Millisecond); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestLanedQueueShedsPerLane(t *testing.T) {
	q := NewLanedQueue(2, 2)
	for i := 0; i < 5; i++ {
		q.Push(Message{Topic: "progress.n1"}, 0)
	}
	if !q.Push(Message{Topic: "control.x"}, 0) {
		t.Fatal("control shed while its lane had room")
	}
	ctl, tel := q.Stats()
	if tel.Shed != 3 || tel.Enqueued != 2 || tel.Depth != 2 {
		t.Errorf("telemetry stats = %+v, want shed 3 / enqueued 2 / depth 2", tel)
	}
	if ctl.Shed != 0 || ctl.Enqueued != 1 {
		t.Errorf("control stats = %+v, want shed 0 / enqueued 1", ctl)
	}
}

func TestLanedQueueLatencyStats(t *testing.T) {
	q := NewLanedQueue(8, 8)
	q.Push(Message{Topic: "control.a"}, 0)
	q.Push(Message{Topic: "control.b"}, time.Millisecond)
	q.Pop(10 * time.Millisecond) // a: 10 ms
	q.Pop(11 * time.Millisecond) // b: 10 ms
	st, _ := q.Stats()
	if st.P50Latency != 10*time.Millisecond || st.MaxLatency != 10*time.Millisecond {
		t.Errorf("latency stats = p50 %v max %v, want 10ms/10ms", st.P50Latency, st.MaxLatency)
	}
	if st.PeakDepth != 2 || st.Delivered != 2 {
		t.Errorf("peak/delivered = %d/%d, want 2/2", st.PeakDepth, st.Delivered)
	}
}

func TestLanedQueueValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-depth lane accepted")
		}
	}()
	NewLanedQueue(0, 8)
}

// TestControlLatencyBoundedUnderTelemetryFlood is the overload acceptance
// check: at ≥10× the normal telemetry rate, the telemetry lane sheds but
// the control lane loses nothing and its p99 delivery latency stays
// bounded by one drain interval.
func TestControlLatencyBoundedUnderTelemetryFlood(t *testing.T) {
	const (
		drainEvery  = 10 * time.Millisecond // consumer service interval
		drainBatch  = 8                     // messages served per interval
		normalRate  = 4                     // telemetry per interval, fits easily
		floodFactor = 12                    // ≥10× normal
		intervals   = 400
	)
	q := NewLanedQueue(16, 64)

	now := time.Duration(0)
	for i := 0; i < intervals; i++ {
		// One control message per interval (a lease renewal)...
		q.Push(Message{Topic: "lease.renew.n1", Payload: []byte{byte(i)}}, now)
		// ...buried under a telemetry flood.
		for j := 0; j < normalRate*floodFactor; j++ {
			q.Push(Message{Topic: fmt.Sprintf("progress.n%d", j), Payload: []byte{1}}, now)
		}
		now += drainEvery
		for k := 0; k < drainBatch; k++ {
			if _, _, ok := q.Pop(now); !ok {
				break
			}
		}
	}
	// Drain the remainder so every accepted control message is delivered.
	for {
		if _, _, ok := q.Pop(now); !ok {
			break
		}
	}

	ctl, tel := q.Stats()
	if ctl.Enqueued != intervals || ctl.Shed != 0 {
		t.Fatalf("control lane enqueued %d shed %d, want %d shed 0: control must never shed under telemetry flood",
			ctl.Enqueued, ctl.Shed, intervals)
	}
	if ctl.Delivered != intervals {
		t.Fatalf("control delivered %d of %d", ctl.Delivered, intervals)
	}
	if tel.Shed == 0 {
		t.Fatal("flood did not overload the telemetry lane; test is not exercising shedding")
	}
	// Control is served first every interval, so its p99 latency is bounded
	// by one drain interval regardless of the flood.
	if ctl.P99Latency > drainEvery {
		t.Errorf("control p99 latency %v exceeds one drain interval %v under %d× flood",
			ctl.P99Latency, drainEvery, floodFactor)
	}
	if tel.P99Latency <= ctl.P99Latency {
		t.Errorf("telemetry p99 %v not worse than control p99 %v under flood — lanes are not prioritizing",
			tel.P99Latency, ctl.P99Latency)
	}
}
