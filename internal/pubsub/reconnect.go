package pubsub

import (
	"sync"
	"time"

	"progresscap/internal/simtime"
)

// ReconnectOptions tunes DialReconnect's retry behaviour.
type ReconnectOptions struct {
	// InitialBackoff is the delay before the first redial attempt
	// (default 50 ms). Each failed attempt doubles it up to MaxBackoff
	// (default 2 s); a successful connection resets it.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
}

const (
	// reconnectJitter is the ± fraction applied to every backoff sleep,
	// so a fleet of monitors does not redial in lockstep after a
	// publisher restart.
	reconnectJitter = 0.2
	// reconnectSeed drives the jitter RNG, keeping even the retry
	// schedule reproducible.
	reconnectSeed = 1
)

func (o *ReconnectOptions) fillDefaults() {
	if o.InitialBackoff <= 0 {
		o.InitialBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
}

// ReconnectingSubscriber is a Subscriber that survives transport
// failures: when the connection to the publisher drops, it redials with
// jittered exponential backoff, re-registers its topic prefixes, and
// resumes delivery on the same channel, into which each connection reads
// directly. Messages published while disconnected are lost (PUB/SUB has
// no replay); the ConnDrops and Reconnects counters let consumers
// attribute the resulting silent gaps to the transport instead of the
// application.
type ReconnectingSubscriber struct {
	addr     string
	prefixes []string
	opts     ReconnectOptions
	ch       chan Message
	done     chan struct{}

	mu         sync.Mutex
	cur        *Subscriber
	closed     bool
	connDrops  uint64
	reconnects uint64
}

// DialReconnect returns a subscriber that keeps itself connected to the
// publisher at addr. Unlike Dial it never fails: if the publisher is not
// up yet, the subscriber keeps retrying in the background until Close.
func DialReconnect(addr string, opts ReconnectOptions, prefixes ...string) *ReconnectingSubscriber {
	opts.fillDefaults()
	if len(prefixes) == 0 {
		prefixes = []string{""}
	}
	r := &ReconnectingSubscriber{
		addr:     addr,
		prefixes: append([]string(nil), prefixes...),
		opts:     opts,
		ch:       make(chan Message, connDepth),
		done:     make(chan struct{}),
	}
	go r.loop()
	return r
}

// C returns the receive channel. It stays open across reconnects and is
// closed only by Close.
func (r *ReconnectingSubscriber) C() <-chan Message { return r.ch }

// ConnDrops returns how many established connections have been lost.
func (r *ReconnectingSubscriber) ConnDrops() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.connDrops
}

// Reconnects returns how many times the subscriber re-established a
// connection after a drop (the resume-from-drop counter; the initial
// connection is not counted).
func (r *ReconnectingSubscriber) Reconnects() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reconnects
}

// Close stops the reconnect loop and closes the receive channel.
func (r *ReconnectingSubscriber) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	cur := r.cur
	r.mu.Unlock()
	close(r.done)
	if cur != nil {
		cur.Close()
	}
	return nil
}

func (r *ReconnectingSubscriber) loop() {
	defer close(r.ch)
	rng := simtime.NewRNG(reconnectSeed)
	backoff := r.opts.InitialBackoff
	for {
		sub, err := dial(r.addr, r.ch, false, r.prefixes)
		if err == nil {
			r.mu.Lock()
			if r.closed {
				r.mu.Unlock()
				sub.Close()
				return
			}
			r.cur = sub
			if r.connDrops > 0 {
				r.reconnects++
			}
			r.mu.Unlock()
			backoff = r.opts.InitialBackoff

			// The stream ends when the transport drops or Close closes
			// sub; either way its read loop no longer sends on r.ch.
			<-sub.done
			sub.Close() // release the dropped connection's socket
			r.mu.Lock()
			r.cur = nil
			if r.closed {
				r.mu.Unlock()
				return
			}
			r.connDrops++
			r.mu.Unlock()
		}

		sleep := time.Duration(float64(backoff) * rng.Jitter(reconnectJitter))
		select {
		case <-time.After(sleep):
		case <-r.done:
			return
		}
		backoff *= 2
		if backoff > r.opts.MaxBackoff {
			backoff = r.opts.MaxBackoff
		}
	}
}
