package pubsub

import "sync"

// queue is the package's one bounded FIFO: bus subscriptions, each TCP
// subscriber connection's outbound buffer and both LanedQueue lanes are
// built on it. It holds at most depth elements, counts what overflows,
// and hands elements over in order. Its slice grows on demand up to the
// depth and keeps its capacity across drains, so a queue costs memory in
// proportion to its backlog and a steady push-and-drain cycle allocates
// nothing. Once closed it accepts nothing more; what it already holds
// stays receivable.
//
// Only the drop count travels with a checkpoint: the engine checkpoints
// only drained subscriptions.
type queue[T any] struct {
	mu sync.Mutex
	// buf[head:] holds the queued elements.
	buf     []T `snap:"-"`
	head    int `snap:"-"`
	depth   int `snap:"-"`
	dropped uint64
	closed  bool `snap:"-"`
	// waiters counts pops parked on cond, which the first blocking pop
	// makes. Push and close signal only when one is parked, so a queue
	// nobody blocks on never touches cond.
	waiters int        `snap:"-"`
	cond    *sync.Cond `snap:"-"`
}

// push appends v, first reclaiming the received prefix or, when there
// is none, growing the slice toward the depth. It reports false, and
// counts a drop, when the queue is full; a closed queue refuses v
// without counting it.
func (q *queue[T]) push(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if len(q.buf)-q.head >= q.depth {
		q.dropped++
		return false
	}
	if len(q.buf) == cap(q.buf) {
		if q.head > 0 {
			n := copy(q.buf, q.buf[q.head:])
			clear(q.buf[n:])
			q.buf, q.head = q.buf[:n], 0
		} else {
			grown := make([]T, len(q.buf), min(max(2*cap(q.buf), 8), q.depth))
			copy(grown, q.buf)
			q.buf = grown
		}
	}
	q.buf = append(q.buf, v)
	if q.waiters > 0 {
		q.cond.Signal()
	}
	return true
}

// pop removes and returns the oldest element. With block it waits while
// the queue is empty and open; ok is false when the queue is empty and,
// with block, closed.
func (q *queue[T]) pop(block bool) (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for block && q.head == len(q.buf) && !q.closed {
		if q.cond == nil {
			q.cond = sync.NewCond(&q.mu)
		}
		q.waiters++
		q.cond.Wait()
		q.waiters--
	}
	if q.head == len(q.buf) {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v, true
}

// drainInto appends every queued element to dst and returns the extended
// slice.
func (q *queue[T]) drainInto(dst []T) []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	dst = append(dst, q.buf[q.head:]...)
	clear(q.buf)
	q.buf, q.head = q.buf[:0], 0
	return dst
}

// len returns how many elements are queued.
func (q *queue[T]) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf) - q.head
}

// drops returns how many pushes the full queue refused.
func (q *queue[T]) drops() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropped
}

// close stops the queue accepting pushes and wakes every parked pop. It
// reports whether this call closed it.
func (q *queue[T]) close() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.closed = true
	if q.waiters > 0 {
		q.cond.Broadcast()
	}
	return true
}
