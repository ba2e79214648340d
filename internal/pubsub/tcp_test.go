package pubsub

import (
	"testing"
	"time"
)

// waitSubs polls until the publisher sees n subscribers or times out.
func waitSubs(t *testing.T, p *Publisher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.NumSubscribers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("publisher never saw %d subscribers", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// recvOne receives one message or fails after a timeout.
func recvOne(t *testing.T, s *Subscriber) Message {
	t.Helper()
	select {
	case m, ok := <-s.C():
		if !ok {
			t.Fatal("subscriber channel closed unexpectedly")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for message")
	}
	panic("unreachable")
}

// publishUntilReceived repeatedly publishes m until sub receives a
// matching message. The TCP subscribe frame races with the first publish,
// so tests retry rather than sleep.
func publishUntilReceived(t *testing.T, p *Publisher, s *Subscriber, m Message) Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.Publish(m)
		select {
		case got, ok := <-s.C():
			if !ok {
				t.Fatal("subscriber channel closed")
			}
			return got
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("message never arrived")
		}
	}
}

func TestTCPPubSubDelivery(t *testing.T) {
	p, err := NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	s, err := Dial(p.Addr(), "progress.")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitSubs(t, p, 1)

	got := publishUntilReceived(t, p, s, Message{Topic: "progress.amg", Payload: []byte("3.0")})
	if got.Topic != "progress.amg" || string(got.Payload) != "3.0" {
		t.Fatalf("got %+v", got)
	}
}

func TestTCPPrefixFiltering(t *testing.T) {
	p, err := NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	s, err := Dial(p.Addr(), "power.")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitSubs(t, p, 1)

	// Establish that the subscription is active using a matching topic.
	publishUntilReceived(t, p, s, Message{Topic: "power.cap"})

	// Now a non-matching topic followed by a matching marker: only the
	// marker should arrive.
	p.Publish(Message{Topic: "progress.lammps"})
	p.Publish(Message{Topic: "power.marker"})
	if got := recvOne(t, s); got.Topic != "power.marker" {
		t.Fatalf("received non-matching topic first: %q", got.Topic)
	}
}

func TestTCPMultipleSubscribers(t *testing.T) {
	p, err := NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	s1, err := Dial(p.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := Dial(p.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	waitSubs(t, p, 2)

	// Both subscriptions race with the first publishes, so drive each
	// independently until its copy arrives.
	if got := publishUntilReceived(t, p, s1, Message{Topic: "x", Payload: []byte("v")}); got.Topic != "x" {
		t.Fatalf("s1 got %+v", got)
	}
	if got := publishUntilReceived(t, p, s2, Message{Topic: "x", Payload: []byte("v")}); got.Topic != "x" {
		t.Fatalf("s2 got %+v", got)
	}
}

func TestTCPSubscriberCloseStopsDelivery(t *testing.T) {
	p, err := NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	s, err := Dial(p.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	waitSubs(t, p, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Publisher drops the connection on its next write attempt.
	deadline := time.Now().Add(5 * time.Second)
	for p.NumSubscribers() > 0 {
		p.Publish(Message{Topic: "t"})
		if time.Now().After(deadline) {
			t.Fatal("publisher never noticed subscriber disconnect")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPPublishRacesDrop publishes from one goroutine while another
// tears every connection down: a send must never meet a closed queue
// (under -race, never even race its close).
func TestTCPPublishRacesDrop(t *testing.T) {
	p, err := NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 4; i++ {
		s, err := Dial(p.Addr(), "")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		go func() { // C closes once the kicked connection's read loop ends
			for range s.C() {
			}
		}()
	}
	waitSubs(t, p, 4)
	stop := make(chan struct{})
	published := make(chan struct{})
	go func() {
		defer close(published)
		for {
			select {
			case <-stop:
				return
			default:
				p.Publish(Message{Topic: "t"})
			}
		}
	}()
	if n := p.KickAll(); n != 4 {
		t.Errorf("KickAll dropped %d connections, want 4", n)
	}
	close(stop)
	<-published
	if st := p.Stats(); st.ConnsLost != 4 || st.Live != 0 {
		t.Fatalf("after KickAll: %d connections lost, %d live; want 4, 0", st.ConnsLost, st.Live)
	}
}

func TestTCPPublisherCloseClosesSubscribers(t *testing.T) {
	p, err := NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Dial(p.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitSubs(t, p, 1)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, open := <-s.C():
		if open {
			// Drain any in-flight message; channel must close eventually.
			for range s.C() {
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber channel did not close after publisher shutdown")
	}
	if p.Close() != nil { // idempotent
		t.Fatal("second Close errored")
	}
}

func TestTCPDialBadAddr(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("Dial to closed port succeeded")
	}
}

func TestTCPLateSubscribe(t *testing.T) {
	p, err := NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	s, err := Dial(p.Addr(), "a.")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitSubs(t, p, 1)
	publishUntilReceived(t, p, s, Message{Topic: "a.1"})

	if err := s.Subscribe("b."); err != nil {
		t.Fatal(err)
	}
	publishUntilReceived(t, p, s, Message{Topic: "b.1"})
}

func TestPublisherStats(t *testing.T) {
	p, err := NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	s, err := Dial(p.Addr(), "progress.")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitSubs(t, p, 1)
	publishUntilReceived(t, p, s, Message{Topic: "progress.n1", Payload: []byte("1")})

	// Wait for the subscribe frame to be processed so prefixes show up.
	deadline := time.Now().Add(5 * time.Second)
	var st PublisherStats
	for {
		st = p.Stats()
		if len(st.Subscribers) == 1 && len(st.Subscribers[0].Prefixes) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never showed registered prefixes: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if st.Accepted != 1 || st.Live != 1 || st.ConnsLost != 0 {
		t.Errorf("stats = %+v, want accepted 1, live 1, lost 0", st)
	}
	if st.Subscribers[0].Prefixes[0] != "progress." {
		t.Errorf("prefixes = %v", st.Subscribers[0].Prefixes)
	}

	// Kick and reconnect-free check: the drop is accounted even though the
	// connection is gone.
	p.KickAll()
	deadline = time.Now().Add(5 * time.Second)
	for p.NumSubscribers() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("kicked subscriber never removed")
		}
		time.Sleep(time.Millisecond)
	}
	st = p.Stats()
	if st.ConnsLost != 1 || st.Live != 0 {
		t.Errorf("after kick stats = %+v, want lost 1 live 0", st)
	}
}

func TestPublisherStatsCountsShedsAcrossConnDeath(t *testing.T) {
	p, err := NewPublisher("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	s, err := Dial(p.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitSubs(t, p, 1)
	publishUntilReceived(t, p, s, Message{Topic: "x", Payload: []byte("1")})

	// Simulate a slow subscriber: overflow its 1024-slot queue while the
	// write loop is blocked behind an unread TCP buffer. Rather than fight
	// real TCP buffering, inject drops directly through the conn snapshot.
	p.mu.Lock()
	var pc *pubConn
	for c := range p.conns {
		pc = c
	}
	p.mu.Unlock()
	pc.mu.Lock()
	pc.dropped = 7
	pc.mu.Unlock()

	if got := p.Stats().Dropped; got != 7 {
		t.Fatalf("live drops = %d, want 7", got)
	}
	p.KickAll()
	deadline := time.Now().Add(5 * time.Second)
	for p.NumSubscribers() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("kicked subscriber never removed")
		}
		time.Sleep(time.Millisecond)
	}
	if got := p.Stats().Dropped; got != 7 {
		t.Fatalf("drops after conn death = %d, want 7 (inherited)", got)
	}
}
