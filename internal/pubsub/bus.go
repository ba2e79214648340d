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
// semantics). The buffer grows on demand, so a subscription costs memory
// in proportion to its backlog, not its depth.
type Subscription struct {
	// bus is wiring; prefix is construction configuration.
	bus    *Bus   `snap:"-"`
	prefix string `snap:"-"`
	// q is empty at any checkpoint, which refuses undrained
	// subscriptions.
	q queue[Message]
}

// Pending returns how many delivered messages are buffered and not yet
// received. The engine requires zero before checkpointing: buffered
// payloads alias recyclable buffers and do not survive a deep copy.
func (s *Subscription) Pending() int { return s.q.len() }

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
	s := &Subscription{bus: b, prefix: prefix, q: queue[Message]{depth: buffer}}
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
		if s.q.push(m) {
			delivered++
			continue
		}
		b.dropped++
		b.topicDrops[m.Topic]++
	}
	return delivered
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

// Recv returns the next buffered message, blocking until one arrives.
// After Close it returns the messages queued before Close, then ok false.
func (s *Subscription) Recv() (Message, bool) { return s.q.pop(true) }

// TryRecv returns the next buffered message without blocking. ok is false
// when the buffer is empty.
func (s *Subscription) TryRecv() (Message, bool) { return s.q.pop(false) }

// DrainInto appends every currently buffered message to dst and returns
// the extended slice.
func (s *Subscription) DrainInto(dst []Message) []Message { return s.q.drainInto(dst) }

// Dropped returns how many messages this subscription lost to a full
// buffer.
func (s *Subscription) Dropped() uint64 { return s.q.drops() }

// Close unregisters the subscription and wakes a blocked Recv. Close is
// idempotent.
func (s *Subscription) Close() {
	b := s.bus
	b.mu.Lock()
	if i := slices.Index(b.subs, s); i >= 0 {
		b.subs = slices.Delete(b.subs, i, i+1)
	}
	b.mu.Unlock()
	s.q.close()
}
