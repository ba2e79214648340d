// Checkpoint accessors. Every subscription's buffer must be empty at a
// checkpoint instant (the engine only snapshots at window boundaries,
// right after the flush drained every subscription), so only the drop
// accounting is state; Pending exposes the emptiness check.

package pubsub

// BusState is the bus's loss accounting.
type BusState struct {
	Published  uint64
	Dropped    uint64
	TopicDrops map[string]uint64
}

// Snapshot captures the bus's accounting.
func (b *Bus) Snapshot() BusState {
	b.mu.Lock()
	defer b.mu.Unlock()
	td := make(map[string]uint64, len(b.topicDrops))
	for t, n := range b.topicDrops {
		td[t] = n
	}
	return BusState{Published: b.published, Dropped: b.dropped, TopicDrops: td}
}

// Restore pours captured accounting back.
func (b *Bus) Restore(s BusState) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.published = s.Published
	b.dropped = s.Dropped
	b.topicDrops = make(map[string]uint64, len(s.TopicDrops))
	for t, n := range s.TopicDrops {
		b.topicDrops[t] = n
	}
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

// SetDropped restores the subscription's per-subscription drop count.
func (s *Subscription) SetDropped(n uint64) {
	s.mu.Lock()
	s.dropped = n
	s.mu.Unlock()
}
