package pubsub

import (
	"os"
	"testing"
	"time"
)

func TestBusTopicDrops(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe("", 1)
	defer sub.Close()
	// Fill the 1-deep buffer, then overflow with two topics.
	b.Publish(Message{Topic: "progress.a"})
	b.Publish(Message{Topic: "progress.a"})
	b.Publish(Message{Topic: "progress.b"})
	b.Publish(Message{Topic: "progress.b"})
	drops := b.TopicDrops()
	if drops["progress.a"] != 1 || drops["progress.b"] != 2 {
		t.Fatalf("per-topic drops = %v, want a:1 b:2", drops)
	}
	// Returned map is a copy.
	drops["progress.a"] = 99
	if b.TopicDrops()["progress.a"] != 1 {
		t.Fatal("TopicDrops exposed internal map")
	}
	if _, total := b.Stats(); total != 3 {
		t.Fatalf("global dropped = %d, want 3", total)
	}
}

// recvReconnect receives one message from a reconnecting subscriber or
// fails after a timeout.
func recvReconnect(t *testing.T, r *ReconnectingSubscriber) Message {
	t.Helper()
	select {
	case m, ok := <-r.C():
		if !ok {
			t.Fatal("reconnecting subscriber channel closed unexpectedly")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for message")
		panic("unreachable")
	}
}

func TestReconnectSurvivesKick(t *testing.T) {
	p, err := NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	r := DialReconnect(p.Addr(), ReconnectOptions{
		InitialBackoff: 5 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
	}, "progress.")
	defer r.Close()
	waitSubs(t, p, 1)

	// Normal delivery before the fault.
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.Publish(Message{Topic: "progress.app", Payload: []byte("pre")})
		select {
		case m := <-r.C():
			if string(m.Payload) != "pre" {
				t.Fatalf("got %q", m.Payload)
			}
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("pre-fault message never arrived")
			}
			continue
		}
		break
	}

	// Kick the transport; the subscriber must come back on its own.
	if n := p.KickAll(); n != 1 {
		t.Fatalf("KickAll dropped %d conns, want 1", n)
	}
	waitSubs(t, p, 1)

	// Delivery resumes on the same channel after redial.
	deadline = time.Now().Add(5 * time.Second)
	for {
		p.Publish(Message{Topic: "progress.app", Payload: []byte("post")})
		select {
		case m := <-r.C():
			// Drain any pre-kick stragglers.
			if string(m.Payload) == "post" {
				goto resumed
			}
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("post-fault message never arrived")
		}
	}
resumed:
	if r.ConnDrops() < 1 {
		t.Fatalf("ConnDrops = %d, want >= 1", r.ConnDrops())
	}
	if r.Reconnects() < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", r.Reconnects())
	}
}

func TestReconnectBeforePublisherUp(t *testing.T) {
	// Reserve an address, then close the listener so DialReconnect's first
	// attempts fail.
	p0, err := NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := p0.Addr()
	p0.Close()

	r := DialReconnect(addr, ReconnectOptions{
		InitialBackoff: 5 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
	})
	defer r.Close()

	// Bring the publisher up on the reserved address; the subscriber must
	// find it without intervention.
	var p *Publisher
	deadline := time.Now().Add(5 * time.Second)
	for {
		p, err = NewPublisher(addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer p.Close()
	waitSubs(t, p, 1)

	deadline = time.Now().Add(5 * time.Second)
	for {
		p.Publish(Message{Topic: "x", Payload: []byte("hello")})
		select {
		case m := <-r.C():
			if string(m.Payload) != "hello" {
				t.Fatalf("got %q", m.Payload)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("message never arrived after late publisher start")
		}
	}
}

func TestReconnectCloseIsIdempotent(t *testing.T) {
	p, err := NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	r := DialReconnect(p.Addr(), ReconnectOptions{})
	waitSubs(t, p, 1)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Channel closes after Close.
	select {
	case _, ok := <-r.C():
		if ok {
			// A buffered message is fine; drain until close.
			for range r.C() {
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("channel did not close")
	}
}

// TestReconnectReleasesDroppedSockets: each dropped connection's socket
// is closed when the subscriber redials, so a flapping transport does
// not leak one descriptor per drop.
func TestReconnectReleasesDroppedSockets(t *testing.T) {
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd on this platform")
		}
		return len(fds)
	}
	p, err := NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	r := DialReconnect(p.Addr(), ReconnectOptions{
		InitialBackoff: time.Millisecond,
		MaxBackoff:     5 * time.Millisecond,
	})
	defer r.Close()
	waitSubs(t, p, 1)
	before := openFDs()
	const kicks = 20
	for i := 0; i < kicks; i++ {
		p.KickAll()
		waitSubs(t, p, 1)
	}
	if grown := openFDs() - before; grown >= kicks/2 {
		t.Fatalf("%d descriptors more after %d drops and redials", grown, kicks)
	}
}
