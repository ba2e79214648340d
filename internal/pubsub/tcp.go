package pubsub

import (
	"net"
	"sort"
	"sync"
)

// Control topic used on the wire by subscribers to register prefixes.
// Data topics never collide with it because it carries a NUL prefix.
const subscribeTopic = "\x00subscribe"

// Publisher is the TCP PUB socket: it accepts subscriber connections and
// fans published messages out to those whose registered prefixes match.
// Slow subscribers drop messages rather than backpressure the publisher.
type Publisher struct {
	ln net.Listener

	mu sync.Mutex
	// conns is copy-on-write: accept and dropConn publish a new slice
	// and no slice is written once published, so a reader ranges over
	// the one it loaded without holding mu and without copying it.
	conns     []*pubConn
	accepted  uint64
	dropped   uint64 // connections torn down (write error, kick, close)
	lostDrops uint64 // message drops inherited from torn-down connections
	closed    bool
	wg        sync.WaitGroup
}

// connDepth bounds each connection's message buffer at both ends: a
// publisher connection's outbound queue and a subscriber's channel. At
// the ~20 reports/s of one application's progress stream it rides out a
// peer stalled for most of a minute before shedding.
const connDepth = 1024

type pubConn struct {
	conn net.Conn
	// out is closed by dropConn; its lock orders every push against
	// the close.
	out queue[Message]

	mu       sync.Mutex // guards prefixes
	prefixes []string
}

// NewPublisher starts a publisher listening on addr (e.g. "127.0.0.1:0").
func NewPublisher(addr string) (*Publisher, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Publisher{ln: ln}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the publisher's listen address.
func (p *Publisher) Addr() string { return p.ln.Addr().String() }

func (p *Publisher) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		pc := &pubConn{conn: conn, out: queue[Message]{depth: connDepth}}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.conns = append(p.conns[:len(p.conns):len(p.conns)], pc)
		p.accepted++
		p.mu.Unlock()
		p.wg.Add(2)
		go p.readLoop(pc)
		go p.writeLoop(pc)
	}
}

// readLoop consumes subscribe frames from the subscriber.
func (p *Publisher) readLoop(pc *pubConn) {
	defer p.wg.Done()
	defer p.dropConn(pc)
	for {
		m, err := ReadFrame(pc.conn)
		if err != nil {
			return
		}
		if m.Topic == subscribeTopic {
			pc.mu.Lock()
			pc.prefixes = append(pc.prefixes, string(m.Payload))
			pc.mu.Unlock()
		}
	}
}

// writeLoop sends queued messages until the queue is closed and empty
// or a write fails. It encodes every frame into one reused buffer.
func (p *Publisher) writeLoop(pc *pubConn) {
	defer p.wg.Done()
	var frame []byte
	for {
		m, ok := pc.out.pop(true)
		if !ok {
			return
		}
		var err error
		if frame, err = EncodeFrame(frame[:0], m); err == nil {
			_, err = pc.conn.Write(frame)
		}
		if err != nil {
			p.dropConn(pc)
			return
		}
	}
}

// dropConn tears a connection down once, however many paths (read
// error, write error, kick, close) reach it.
func (p *Publisher) dropConn(pc *pubConn) {
	if !pc.out.close() {
		return
	}
	p.mu.Lock()
	for i, c := range p.conns {
		if c == pc {
			p.conns = append(p.conns[:i:i], p.conns[i+1:]...)
			break
		}
	}
	p.dropped++
	p.lostDrops += pc.out.drops() // final: a closed queue counts no drops
	p.mu.Unlock()
	pc.conn.Close()
}

// offer queues m on a live connection subscribed to its topic without
// blocking, counting a drop when the queue is full. It reports whether m
// was queued.
func (pc *pubConn) offer(m Message) bool {
	pc.mu.Lock()
	matched := pc.matches(m.Topic)
	pc.mu.Unlock()
	return matched && pc.out.push(m)
}

// matches reports whether topic has a registered prefix; pc.mu is held.
func (pc *pubConn) matches(topic string) bool {
	for _, pre := range pc.prefixes {
		if len(topic) >= len(pre) && topic[:len(pre)] == pre {
			return true
		}
	}
	return false
}

// Publish fans m out to matching subscribers without blocking. It returns
// the number of subscriber queues that accepted the message.
func (p *Publisher) Publish(m Message) int {
	delivered := 0
	for _, pc := range p.live() {
		if pc.offer(m) {
			delivered++
		}
	}
	return delivered
}

// KickAll forcibly disconnects every current subscriber without stopping
// the listener — the fault-injection surface for transport failures.
// Subscribers that reconnect (see DialReconnect) are accepted again. It
// returns how many connections were dropped.
func (p *Publisher) KickAll() int {
	conns := p.live()
	for _, pc := range conns {
		p.dropConn(pc)
	}
	return len(conns)
}

// live returns the current connection slice, which nobody writes.
func (p *Publisher) live() []*pubConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conns
}

// NumSubscribers returns the number of live subscriber connections.
func (p *Publisher) NumSubscribers() int { return len(p.live()) }

// SubscriberStats is one live subscriber connection's transport health.
type SubscriberStats struct {
	Remote     string   // subscriber's remote address
	Prefixes   []string // registered topic prefixes
	QueueDepth int      // messages waiting in the outbound queue
	Dropped    uint64   // messages lost to a full outbound queue
}

// PublisherStats surfaces the drop accounting that was previously
// counted per connection but never exposed: without it, a slow or
// flapping monitor silently loses progress reports and nobody can tell
// the transport from the application.
type PublisherStats struct {
	Accepted    uint64 // connections accepted over the publisher's lifetime
	ConnsLost   uint64 // connections torn down (write error, kick, close)
	Live        int    // current subscriber connections
	Dropped     uint64 // total messages shed across all subscribers, living and dead
	Subscribers []SubscriberStats
}

// Stats snapshots per-subscriber queue depth and drop counters plus the
// publisher's connection churn. Drops on connections that have since
// gone away stay counted in Dropped.
func (p *Publisher) Stats() PublisherStats {
	p.mu.Lock()
	conns := p.conns
	st := PublisherStats{
		Accepted:  p.accepted,
		ConnsLost: p.dropped,
		Live:      len(conns),
		Dropped:   p.lostDrops,
	}
	p.mu.Unlock()

	for _, pc := range conns {
		pc.mu.Lock()
		s := SubscriberStats{
			Remote:     pc.conn.RemoteAddr().String(),
			Prefixes:   append([]string(nil), pc.prefixes...),
			QueueDepth: pc.out.len(),
			Dropped:    pc.out.drops(),
		}
		pc.mu.Unlock()
		st.Dropped += s.Dropped
		st.Subscribers = append(st.Subscribers, s)
	}
	sort.Slice(st.Subscribers, func(i, j int) bool {
		return st.Subscribers[i].Remote < st.Subscribers[j].Remote
	})
	return st
}

// Close stops the publisher and disconnects all subscribers.
func (p *Publisher) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := p.conns
	p.mu.Unlock()

	err := p.ln.Close()
	for _, pc := range conns {
		p.dropConn(pc)
	}
	p.wg.Wait()
	return err
}

// Subscriber is the TCP SUB socket: it dials a Publisher, registers topic
// prefixes, and exposes received messages on a channel.
type Subscriber struct {
	conn net.Conn
	ch   chan Message
	// ownsCh is false when a ReconnectingSubscriber lends ch to each of
	// its connections in turn and closes it itself.
	ownsCh bool

	mu     sync.Mutex
	wmu    sync.Mutex
	closed bool
	quit   chan struct{} // closed by Close: the read loop stops handing off
	done   chan struct{}
}

// Dial connects to a Publisher at addr and subscribes to the given
// prefixes. At least one prefix is required ("" subscribes to everything).
func Dial(addr string, prefixes ...string) (*Subscriber, error) {
	return dial(addr, make(chan Message, connDepth), true, prefixes)
}

// dial connects a Subscriber that delivers into ch, closing ch when its
// read loop ends if ownsCh.
func dial(addr string, ch chan Message, ownsCh bool, prefixes []string) (*Subscriber, error) {
	if len(prefixes) == 0 {
		prefixes = []string{""}
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Subscriber{conn: conn, ch: ch, ownsCh: ownsCh, quit: make(chan struct{}), done: make(chan struct{})}
	for _, pre := range prefixes {
		if err := s.Subscribe(pre); err != nil {
			conn.Close()
			return nil, err
		}
	}
	go s.readLoop()
	return s, nil
}

// Subscribe registers an additional topic prefix.
func (s *Subscriber) Subscribe(prefix string) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return WriteFrame(s.conn, Message{Topic: subscribeTopic, Payload: []byte(prefix)})
}

func (s *Subscriber) readLoop() {
	if s.ownsCh {
		defer close(s.ch)
	}
	defer close(s.done)
	for {
		m, err := ReadFrame(s.conn)
		if err != nil {
			return
		}
		select {
		case s.ch <- m:
		case <-s.quit:
			return
		}
	}
}

// C returns the receive channel; it is closed when the connection drops or
// Close is called.
func (s *Subscriber) C() <-chan Message { return s.ch }

// Close disconnects the subscriber and waits for the read loop to exit.
func (s *Subscriber) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.quit)
	s.mu.Unlock()
	err := s.conn.Close()
	<-s.done
	return err
}
