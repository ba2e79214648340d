package pubsub

import (
	"slices"
	"sync"
)

// Bus is the in-process broker. It is safe for concurrent use, though the
// deterministic simulation engine drives it from a single goroutine.
type Bus struct {
	mu sync.Mutex
	// subs is in subscription order, which is the delivery order. It is
	// wiring: a resumed engine subscribes its jobs itself.
	subs       []*Subscription `snap:"-"`
	published  uint64
	dropped    uint64
	topicDrops map[string]uint64
}

// Subscription receives messages whose topic matches its prefix. Messages
// are buffered up to the subscription's depth; when the buffer is full,
// new messages for this subscription are dropped (ZeroMQ PUB/SUB
// semantics).
//
// The buffer is a queue that grows on demand up to the depth and keeps
// its capacity across drains, so a subscription costs memory in
// proportion to its backlog, not its depth. The first call to C() moves
// the subscription onto a channel of the full depth for consumers that
// block on receive.
type Subscription struct {
	// bus is wiring; prefix and depth are construction configuration.
	bus    *Bus   `snap:"-"`
	prefix string `snap:"-"`
	depth  int    `snap:"-"`
	mu     sync.Mutex
	// queue[head:] holds the buffered messages until C() is first
	// called; ch holds them from then on. Both are empty at any
	// checkpoint, which refuses undrained subscriptions, and a
	// subscription is never closed during a run.
	queue   []Message    `snap:"-"`
	head    int          `snap:"-"`
	ch      chan Message `snap:"-"`
	dropped uint64
	closed  bool `snap:"-"`
}

// Pending returns how many delivered messages are buffered and not yet
// received. The engine requires zero before checkpointing: buffered
// payloads alias recyclable buffers and do not survive a deep copy.
func (s *Subscription) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ch != nil {
		return len(s.ch)
	}
	return len(s.queue) - s.head
}

// NewBus returns an empty broker.
func NewBus() *Bus {
	return &Bus{topicDrops: make(map[string]uint64)}
}

// Subscribe registers interest in topics beginning with prefix. The empty
// prefix receives everything. buffer is the subscription queue depth; it
// must be at least 1.
func (b *Bus) Subscribe(prefix string, buffer int) *Subscription {
	if buffer < 1 {
		panic("pubsub: subscription buffer must be >= 1")
	}
	s := &Subscription{bus: b, prefix: prefix, depth: buffer}
	b.mu.Lock()
	b.subs = append(b.subs, s)
	b.mu.Unlock()
	return s
}

// Publish delivers m to every matching subscription without blocking.
// It returns the number of subscriptions that accepted the message.
func (b *Bus) Publish(m Message) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.published++
	delivered := 0
	for _, s := range b.subs {
		if !m.MatchesPrefix(s.prefix) {
			continue
		}
		if s.offer(m) {
			delivered++
			continue
		}
		b.dropped++
		b.topicDrops[m.Topic]++
	}
	return delivered
}

// offer buffers m, or counts a drop when the buffer is full.
func (s *Subscription) offer(m Message) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ch != nil {
		select {
		case s.ch <- m:
			return true
		default:
		}
	} else if len(s.queue)-s.head < s.depth {
		s.push(m)
		return true
	}
	s.dropped++
	return false
}

// push appends m to the queue, first reclaiming the received prefix or,
// when there is none, growing the queue toward the depth.
func (s *Subscription) push(m Message) {
	if len(s.queue) == cap(s.queue) {
		if s.head > 0 {
			n := copy(s.queue, s.queue[s.head:])
			clear(s.queue[n:])
			s.queue, s.head = s.queue[:n], 0
		} else {
			grown := make([]Message, len(s.queue), min(max(2*cap(s.queue), 8), s.depth))
			copy(grown, s.queue)
			s.queue = grown
		}
	}
	s.queue = append(s.queue, m)
}

// NumSubscribers returns the current subscription count. The engine uses
// it to prove no external observer holds a subscription before it recycles
// payload buffers that delivered messages still reference.
func (b *Bus) NumSubscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Stats returns the total messages published to the bus and the total
// drops across all subscriptions.
func (b *Bus) Stats() (published, dropped uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.published, b.dropped
}

// TopicDrops returns a copy of the per-topic drop counts, so a loss
// artifact (the paper's OpenMC zero reports) is attributable to the
// progress stream that suffered it rather than a global total.
func (b *Bus) TopicDrops() map[string]uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]uint64, len(b.topicDrops))
	for t, n := range b.topicDrops {
		out[t] = n
	}
	return out
}

// C returns the subscription's receive channel, which Close closes. The
// first call moves the subscription onto a channel of the full depth,
// carrying over any buffered messages in order.
func (s *Subscription) C() <-chan Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ch == nil {
		s.ch = make(chan Message, s.depth)
		for _, m := range s.queue[s.head:] {
			s.ch <- m
		}
		s.queue, s.head = nil, 0
		if s.closed {
			close(s.ch)
		}
	}
	return s.ch
}

// TryRecv returns the next buffered message without blocking. ok is false
// when the buffer is empty.
func (s *Subscription) TryRecv() (Message, bool) {
	s.mu.Lock()
	if ch := s.ch; ch != nil {
		s.mu.Unlock()
		select {
		case m, open := <-ch:
			return m, open
		default:
			return Message{}, false
		}
	}
	defer s.mu.Unlock()
	if s.head == len(s.queue) {
		return Message{}, false
	}
	m := s.queue[s.head]
	s.queue[s.head] = Message{}
	s.head++
	if s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
	}
	return m, true
}

// DrainInto appends every currently buffered message to dst and returns
// the extended slice.
func (s *Subscription) DrainInto(dst []Message) []Message {
	s.mu.Lock()
	if s.ch == nil {
		dst = append(dst, s.queue[s.head:]...)
		clear(s.queue)
		s.queue, s.head = s.queue[:0], 0
		s.mu.Unlock()
		return dst
	}
	s.mu.Unlock()
	for {
		m, ok := s.TryRecv()
		if !ok {
			return dst
		}
		dst = append(dst, m)
	}
}

// Dropped returns how many messages this subscription lost to a full
// buffer.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Prefix returns the subscription's topic prefix.
func (s *Subscription) Prefix() string { return s.prefix }

// Close unregisters the subscription and closes its channel. Close is
// idempotent.
func (s *Subscription) Close() {
	b := s.bus
	b.mu.Lock()
	if i := slices.Index(b.subs, s); i >= 0 {
		b.subs = slices.Delete(b.subs, i, i+1)
	}
	b.mu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed && s.ch != nil {
		close(s.ch)
	}
	s.closed = true
}
