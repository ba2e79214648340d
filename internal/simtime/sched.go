package simtime

import (
	"container/heap"
	"time"
)

// Event is a callback scheduled at a virtual time.
type Event struct {
	At time.Duration
	Fn func(now time.Duration)

	seq int // tie-break so same-time events fire in schedule order
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Scheduler is a deterministic event queue over virtual time. Events
// scheduled for the same instant fire in the order they were scheduled.
//
// A checkpoint carries no scheduler state: queued callbacks are closures,
// so engine checkpoints refuse a non-empty queue, and seq only breaks
// ties between queued events. clock is wiring.
type Scheduler struct {
	clock *Clock    `snap:"-"`
	queue eventHeap `snap:"-"`
	seq   int       `snap:"-"`
}

// NewScheduler returns a scheduler driving the given clock.
func NewScheduler(clock *Clock) *Scheduler {
	return &Scheduler{clock: clock}
}

// Clock returns the clock the scheduler advances.
func (s *Scheduler) Clock() *Clock { return s.clock }

// Len returns the number of pending events.
func (s *Scheduler) Len() int { return len(s.queue) }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics, as it would silently reorder causality.
func (s *Scheduler) At(t time.Duration, fn func(now time.Duration)) {
	if t < s.clock.Now() {
		panic("simtime: event scheduled in the past")
	}
	s.seq++
	heap.Push(&s.queue, &Event{At: t, Fn: fn, seq: s.seq})
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d time.Duration, fn func(now time.Duration)) {
	s.At(s.clock.Now()+d, fn)
}

// NextAt returns the time of the earliest pending event. ok is false
// when the queue is empty. It is the scheduler's contribution to an
// event-horizon computation: a macro-stepping engine advances no further
// than the returned instant in one stride.
func (s *Scheduler) NextAt() (t time.Duration, ok bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].At, true
}

// RunDue fires every event due at or before now, in (time, schedule)
// order, without touching the clock — the caller has already advanced it
// to now. Events scheduled from inside a firing callback are fired in the
// same call when they fall due at or before now. It returns the number of
// events executed.
func (s *Scheduler) RunDue(now time.Duration) int {
	n := 0
	for len(s.queue) > 0 && s.queue[0].At <= now {
		e := heap.Pop(&s.queue).(*Event)
		e.Fn(e.At)
		n++
	}
	return n
}

// Step runs the next pending event, advancing the clock to its time.
// It reports whether an event ran.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*Event)
	s.clock.AdvanceTo(e.At)
	e.Fn(e.At)
	return true
}

// RunUntil runs events up to and including limit, advancing the clock to
// limit at the end even if no event lands exactly there. It returns the
// number of events executed.
func (s *Scheduler) RunUntil(limit time.Duration) int {
	n := 0
	for len(s.queue) > 0 && s.queue[0].At <= limit {
		s.Step()
		n++
	}
	if s.clock.Now() < limit {
		s.clock.AdvanceTo(limit)
	}
	return n
}

// Drain runs every pending event in order. It returns the number executed.
// Events may schedule further events; Drain keeps going until the queue is
// empty.
func (s *Scheduler) Drain() int {
	n := 0
	for s.Step() {
		n++
	}
	return n
}
