package fault

import (
	"sort"
	"time"

	"progresscap/internal/pubsub"
	"progresscap/internal/simtime"
)

// delayed is a message held back by the delay fault, due for release at a
// later virtual time.
type delayed struct {
	due time.Duration
	seq uint64
	m   pubsub.Message
}

// PubSub perturbs the progress-report transport. The engine routes every
// publish through Intercept and releases delayed messages with Due each
// tick. All methods are meant for the single-threaded simulation loop and
// are not safe for concurrent use.
type PubSub struct {
	// plan is construction configuration.
	plan PubSubPlan `snap:"-"`
	rng  *simtime.RNG

	queue []delayed
	seq   uint64

	// Stats.
	dropped   uint64
	delayedN  uint64
	duplected uint64
	blackout  uint64
}

func newPubSub(plan PubSubPlan, rng *simtime.RNG) *PubSub {
	if plan.MaxDelay <= 0 {
		plan.MaxDelay = 200 * time.Millisecond
	}
	return &PubSub{plan: plan, rng: rng}
}

// Enabled reports whether the injector can perturb anything; when false,
// Intercept is pure passthrough and draws no random numbers.
func (f *PubSub) Enabled() bool { return f.plan.Enabled() }

// Intercept decides the fate of one publish at virtual time now. It
// returns the messages to deliver immediately: nil when dropped or
// delayed, {m} for passthrough, {m, m} when duplicated. Delayed messages
// are surfaced later by Due, after which they re-enter out of order
// relative to newer traffic.
func (f *PubSub) Intercept(now time.Duration, m pubsub.Message) []pubsub.Message {
	if !f.Enabled() {
		return []pubsub.Message{m}
	}
	for _, w := range f.plan.Blackouts {
		if w.Contains(now) {
			f.blackout++
			return nil
		}
	}
	if f.plan.DropRate > 0 && f.rng.Float64() < f.plan.DropRate {
		f.dropped++
		return nil
	}
	if f.plan.DelayRate > 0 && f.rng.Float64() < f.plan.DelayRate {
		f.delayedN++
		f.seq++
		hold := time.Duration(f.rng.Float64() * float64(f.plan.MaxDelay))
		f.queue = append(f.queue, delayed{due: now + hold, seq: f.seq, m: m})
		return nil
	}
	if f.plan.DupRate > 0 && f.rng.Float64() < f.plan.DupRate {
		f.duplected++
		return []pubsub.Message{m, m}
	}
	return []pubsub.Message{m}
}

// Due returns (and removes from the hold queue) every delayed message
// whose release time has arrived, in deterministic (due, arrival) order.
func (f *PubSub) Due(now time.Duration) []pubsub.Message {
	if len(f.queue) == 0 {
		return nil
	}
	var out []pubsub.Message
	rest := f.queue[:0]
	// The queue is small (bounded by in-flight delays), so a stable
	// selection sort via full ordering keeps this deterministic.
	sort.Slice(f.queue, func(i, j int) bool {
		if f.queue[i].due != f.queue[j].due {
			return f.queue[i].due < f.queue[j].due
		}
		return f.queue[i].seq < f.queue[j].seq
	})
	for _, d := range f.queue {
		if d.due <= now {
			out = append(out, d.m)
		} else {
			rest = append(rest, d)
		}
	}
	f.queue = rest
	return out
}

// NextDueAt returns the earliest release time among held-back messages.
// ok is false when nothing is queued. It is the transport injector's
// NextEventAt hook: a macro-stepping engine must not stride past a
// delayed report's due time, or the report would re-enter later than the
// fixed-tick engine delivers it.
func (f *PubSub) NextDueAt() (t time.Duration, ok bool) {
	for _, d := range f.queue {
		if !ok || d.due < t {
			t, ok = d.due, true
		}
	}
	return t, ok
}

// Pending returns how many delayed messages are still held.
func (f *PubSub) Pending() int { return len(f.queue) }

// Stats returns the injector's fault counts.
func (f *PubSub) Stats() (dropped, delayed, duplicated, blackout uint64) {
	return f.dropped, f.delayedN, f.duplected, f.blackout
}
