package pubsub

import (
	"fmt"
	"testing"
	"time"
)

func TestBusDeliversToMatchingSubscribers(t *testing.T) {
	b := NewBus()
	all := b.Subscribe("", 10)
	lammps := b.Subscribe("progress.lammps", 10)
	power := b.Subscribe("power.", 10)

	n := b.Publish(Message{Topic: "progress.lammps", Payload: []byte("1")})
	if n != 2 {
		t.Fatalf("delivered to %d subs, want 2", n)
	}
	if m, ok := all.TryRecv(); !ok || m.Topic != "progress.lammps" {
		t.Fatalf("all-sub recv = %v,%v", m, ok)
	}
	if _, ok := lammps.TryRecv(); !ok {
		t.Fatal("prefix sub missed matching message")
	}
	if _, ok := power.TryRecv(); ok {
		t.Fatal("non-matching sub received message")
	}
}

func TestBusDropsOnFullBuffer(t *testing.T) {
	b := NewBus()
	s := b.Subscribe("", 2)
	for i := 0; i < 5; i++ {
		b.Publish(Message{Topic: "t"})
	}
	if s.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", s.Dropped())
	}
	pub, drop := b.Stats()
	if pub != 5 || drop != 3 {
		t.Fatalf("Stats = %d,%d, want 5,3", pub, drop)
	}
	got := s.DrainInto(nil)
	if len(got) != 2 {
		t.Fatalf("drained %d, want 2", len(got))
	}
}

func TestBusTryRecvEmpty(t *testing.T) {
	b := NewBus()
	s := b.Subscribe("", 1)
	if _, ok := s.TryRecv(); ok {
		t.Fatal("TryRecv on empty buffer returned ok")
	}
}

func TestBusCloseUnregisters(t *testing.T) {
	b := NewBus()
	s := b.Subscribe("", 1)
	s.Close()
	if n := b.Publish(Message{Topic: "t"}); n != 0 {
		t.Fatalf("delivered to closed sub: %d", n)
	}
	// closed and empty: Recv returns at once with not-ok
	if _, ok := s.Recv(); ok {
		t.Fatal("Recv succeeded after Close")
	}
	s.Close() // idempotent: must not panic
}

func TestBusBadBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Subscribe(buffer=0) did not panic")
		}
	}()
	NewBus().Subscribe("", 0)
}

func TestBusManySubscribers(t *testing.T) {
	b := NewBus()
	subs := make([]*Subscription, 20)
	for i := range subs {
		subs[i] = b.Subscribe(fmt.Sprintf("app.%d.", i), 5)
	}
	for i := 0; i < 20; i++ {
		b.Publish(Message{Topic: fmt.Sprintf("app.%d.progress", i), Payload: []byte{byte(i)}})
	}
	for i, s := range subs {
		m, ok := s.TryRecv()
		if !ok || m.Payload[0] != byte(i) {
			t.Fatalf("sub %d got %v,%v", i, m, ok)
		}
		if _, ok := s.TryRecv(); ok {
			t.Fatalf("sub %d received cross-topic message", i)
		}
	}
}

func TestBusConcurrentPublish(t *testing.T) {
	b := NewBus()
	s := b.Subscribe("", 10000)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 100; i++ {
				b.Publish(Message{Topic: "t"})
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	pub, drop := b.Stats()
	if pub != 800 || drop != 0 {
		t.Fatalf("Stats = %d,%d, want 800,0", pub, drop)
	}
	if got := len(s.DrainInto(nil)); got != 800 {
		t.Fatalf("received %d, want 800", got)
	}
}

// TestSubscriptionQueueHoldsDepth: the on-demand queue accepts exactly
// its depth across several growth steps, drops the rest with full
// accounting, and drains in publish order.
func TestSubscriptionQueueHoldsDepth(t *testing.T) {
	b := NewBus()
	s := b.Subscribe("", 100)
	for i := 0; i < 150; i++ {
		b.Publish(Message{Topic: "t", Payload: []byte{byte(i)}})
	}
	if s.Pending() != 100 || s.Dropped() != 50 {
		t.Fatalf("Pending, Dropped = %d, %d; want 100, 50", s.Pending(), s.Dropped())
	}
	if _, drop := b.Stats(); drop != 50 || b.TopicDrops()["t"] != 50 {
		t.Fatalf("bus drops = %d, topic drops %v; want 50", drop, b.TopicDrops())
	}
	got := s.DrainInto(nil)
	if len(got) != 100 {
		t.Fatalf("drained %d, want 100", len(got))
	}
	for i, m := range got {
		if m.Payload[0] != byte(i) {
			t.Fatalf("message %d carries %d; order lost", i, m.Payload[0])
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after a drain", s.Pending())
	}
}

// TestSubscriptionInterleavedRecv: receiving one message at a time while
// publishing faster keeps FIFO order and the depth bound as the queue
// reclaims its received prefix, matching a reference bounded FIFO. A bus
// subscription and a LanedQueue lane run the same schedule.
func TestSubscriptionInterleavedRecv(t *testing.T) {
	const depth = 8
	b := NewBus()
	s := b.Subscribe("", depth)
	lq := NewLanedQueue(1, depth)
	for _, q := range []struct {
		name    string
		push    func(Message)
		recv    func() (Message, bool)
		pending func() int
		dropped func() uint64
	}{
		{"bus", func(m Message) { b.Publish(m) }, s.TryRecv, s.Pending, s.Dropped},
		{"lane", func(m Message) { lq.Push(m, 0) },
			func() (Message, bool) { m, _, ok := lq.Pop(0); return m, ok },
			lq.Len,
			func() uint64 { _, tel := lq.Stats(); return tel.Shed }},
	} {
		var model []byte // what the queue should hold
		var modelDrops uint64
		next := 0
		for round := 0; round < 50; round++ {
			for i := 0; i < 3; i++ {
				q.push(Message{Topic: "t", Payload: []byte{byte(next)}})
				if len(model) < depth {
					model = append(model, byte(next))
				} else {
					modelDrops++
				}
				next++
			}
			for i := 0; i < 2; i++ {
				m, ok := q.recv()
				if !ok || m.Payload[0] != model[0] {
					t.Fatalf("%s round %d: recv = %v, %v; want %d", q.name, round, m, ok, model[0])
				}
				model = model[1:]
			}
			if q.pending() != len(model) || q.dropped() != modelDrops {
				t.Fatalf("%s round %d: pending, dropped = %d, %d; want %d, %d",
					q.name, round, q.pending(), q.dropped(), len(model), modelDrops)
			}
		}
		if modelDrops == 0 {
			t.Fatalf("%s: the schedule never filled the queue", q.name)
		}
	}
}

// TestSubscriptionSteadyDrainAllocatesNothing: the queue keeps its
// capacity across drains, so once it has grown to a window's backlog a
// publish-and-drain cycle allocates nothing.
func TestSubscriptionSteadyDrainAllocatesNothing(t *testing.T) {
	b := NewBus()
	s := b.Subscribe("progress.", 1024)
	m := Message{Topic: "progress.app", Payload: []byte("x")}
	var scratch []Message
	cycle := func() {
		for i := 0; i < 25; i++ {
			b.Publish(m)
		}
		scratch = s.DrainInto(scratch[:0])
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady publish+drain allocates %v times per window", allocs)
	}
	if len(scratch) != 25 {
		t.Fatalf("drained %d, want 25", len(scratch))
	}
}

// TestSubscriptionRecvKeepsQueueOrder: Recv, TryRecv and DrainInto
// read one queue in publish order, at one depth with one drop count.
func TestSubscriptionRecvKeepsQueueOrder(t *testing.T) {
	b := NewBus()
	s := b.Subscribe("", 4)
	for i := 0; i < 3; i++ {
		b.Publish(Message{Topic: "t", Payload: []byte{byte(i)}})
	}
	if m, ok := s.Recv(); !ok || m.Payload[0] != 0 {
		t.Fatalf("Recv = %v, %v; want message 0", m, ok)
	}
	for i := 3; i < 7; i++ {
		b.Publish(Message{Topic: "t", Payload: []byte{byte(i)}})
	}
	if s.Pending() != 4 || s.Dropped() != 2 {
		t.Fatalf("Pending, Dropped = %d, %d; want 4, 2", s.Pending(), s.Dropped())
	}
	if m, ok := s.Recv(); !ok || m.Payload[0] != 1 {
		t.Fatalf("Recv = %v, %v; want message 1", m, ok)
	}
	if m, ok := s.TryRecv(); !ok || m.Payload[0] != 2 {
		t.Fatalf("TryRecv = %v, %v; want message 2", m, ok)
	}
	rest := s.DrainInto(nil)
	if len(rest) != 2 || rest[0].Payload[0] != 3 || rest[1].Payload[0] != 4 {
		t.Fatalf("DrainInto = %v, want messages 3 and 4", rest)
	}
	if _, drop := b.Stats(); drop != 2 {
		t.Fatalf("bus drops = %d, want 2", drop)
	}
}

// TestSubscriptionRecvAfterClose: messages queued before Close stay
// receivable through Recv, which then reports the end.
func TestSubscriptionRecvAfterClose(t *testing.T) {
	b := NewBus()
	s := b.Subscribe("", 4)
	b.Publish(Message{Topic: "t", Payload: []byte{7}})
	b.Publish(Message{Topic: "t", Payload: []byte{8}})
	s.Close()
	var got []byte
	for {
		m, ok := s.Recv()
		if !ok {
			break
		}
		got = append(got, m.Payload[0])
	}
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("received %v after Close, want [7 8]", got)
	}
}

// waitParked waits until n pops are blocked on q.
func waitParked[T any](t *testing.T, q *queue[T], n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		q.mu.Lock()
		w := q.waiters
		q.mu.Unlock()
		if w == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d pops parked, want %d", w, n)
		}
		time.Sleep(time.Millisecond)
	}
}

type recvResult struct {
	m  Message
	ok bool
}

// TestSubscriptionRecvBlocksUntilPublish: a Recv on an empty
// subscription parks and returns the next message published.
func TestSubscriptionRecvBlocksUntilPublish(t *testing.T) {
	b := NewBus()
	s := b.Subscribe("", 4)
	got := make(chan recvResult)
	go func() {
		m, ok := s.Recv()
		got <- recvResult{m, ok}
	}()
	waitParked(t, &s.q, 1)
	b.Publish(Message{Topic: "t", Payload: []byte{9}})
	select {
	case r := <-got:
		if !r.ok || r.m.Payload[0] != 9 {
			t.Fatalf("Recv = %v, %v; want message 9", r.m, r.ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Publish did not wake a parked Recv")
	}
}

// TestSubscriptionCloseWakesRecv: Close wakes every Recv parked on an
// empty subscription, and each reports the end.
func TestSubscriptionCloseWakesRecv(t *testing.T) {
	b := NewBus()
	s := b.Subscribe("", 4)
	got := make(chan recvResult, 2)
	for i := 0; i < 2; i++ {
		go func() {
			m, ok := s.Recv()
			got <- recvResult{m, ok}
		}()
	}
	waitParked(t, &s.q, 2)
	s.Close()
	for i := 0; i < 2; i++ {
		select {
		case r := <-got:
			if r.ok {
				t.Fatalf("Recv after Close returned %v", r.m)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not wake a parked Recv")
		}
	}
}

// TestBusCloseKeepsOtherSubscriptions: closing one subscription of
// several leaves the others registered and receiving.
func TestBusCloseKeepsOtherSubscriptions(t *testing.T) {
	b := NewBus()
	subs := []*Subscription{b.Subscribe("", 2), b.Subscribe("", 2), b.Subscribe("", 2)}
	subs[1].Close()
	if b.NumSubscribers() != 2 {
		t.Fatalf("NumSubscribers = %d, want 2", b.NumSubscribers())
	}
	if n := b.Publish(Message{Topic: "t"}); n != 2 {
		t.Fatalf("delivered to %d, want 2", n)
	}
	for _, i := range []int{0, 2} {
		if _, ok := subs[i].TryRecv(); !ok {
			t.Fatalf("subscription %d missed the message", i)
		}
	}
}
