package pubsub

import (
	"sort"
	"sync"
	"time"
)

// Priority lanes: the overload-hardening layer of the message plane.
//
// The cluster's bus carries two very different kinds of traffic. Control
// messages (lease grants, renewals, fence updates, acks) are few but
// deadline-critical: cap-enforcement latency is bounded by how fast they
// move. Telemetry (progress reports) is voluminous and individually
// expendable — the monitor is already hardened against gaps. A single
// FIFO queue lets a telemetry flood push control traffic arbitrarily far
// back; the LanedQueue instead gives each class its own bounded queue,
// always serves control first, and sheds from the lowest-priority lane
// when capacity runs out. Control traffic is never queued behind
// telemetry, so a million progress reports cannot delay a fence update.

// Lane identifies a priority class.
type Lane int

// Lanes, highest priority first.
const (
	LaneControl Lane = iota
	LaneTelemetry
	numLanes
)

func (l Lane) String() string {
	switch l {
	case LaneControl:
		return "control"
	case LaneTelemetry:
		return "telemetry"
	default:
		return "lane(?)"
	}
}

// controlPrefixes are the topic prefixes classified into the control
// lane; everything else is telemetry.
var controlPrefixes = []string{"control.", "lease.", "fence."}

// ClassifyTopic maps a topic to its lane.
func ClassifyTopic(topic string) Lane {
	for _, pre := range controlPrefixes {
		if len(topic) >= len(pre) && topic[:len(pre)] == pre {
			return LaneControl
		}
	}
	return LaneTelemetry
}

// LaneStats is one lane's counters. Latencies are measured from Push to
// Pop in the caller's clock (virtual time in the simulation).
type LaneStats struct {
	Enqueued  uint64
	Delivered uint64
	Shed      uint64 // messages dropped because the lane was full
	Depth     int    // current queue depth
	PeakDepth int
	// P50/P99/Max delivery latency over a sliding window of recent
	// deliveries (zero when nothing was delivered yet).
	P50Latency time.Duration
	P99Latency time.Duration
	MaxLatency time.Duration
}

// latWindow bounds the per-lane latency sample ring.
const latWindow = 4096

type lanedEntry struct {
	m  Message
	at time.Duration
}

type laneQ struct {
	fifo queue[lanedEntry]

	enqueued  uint64
	delivered uint64
	peakDepth int

	lat    []time.Duration // sample ring
	latPos int
	latMax time.Duration
}

func (q *laneQ) push(e lanedEntry) bool {
	if !q.fifo.push(e) {
		return false
	}
	q.enqueued++
	if n := q.fifo.len(); n > q.peakDepth {
		q.peakDepth = n
	}
	return true
}

func (q *laneQ) pop(now time.Duration) (Message, bool) {
	e, ok := q.fifo.pop(false)
	if !ok {
		return Message{}, false
	}
	q.delivered++
	d := now - e.at
	if d < 0 {
		d = 0
	}
	if d > q.latMax {
		q.latMax = d
	}
	if len(q.lat) < latWindow {
		q.lat = append(q.lat, d)
	} else {
		q.lat[q.latPos] = d
		q.latPos = (q.latPos + 1) % latWindow
	}
	return e.m, true
}

func (q *laneQ) stats() LaneStats {
	st := LaneStats{
		Enqueued:   q.enqueued,
		Delivered:  q.delivered,
		Shed:       q.fifo.drops(),
		Depth:      q.fifo.len(),
		PeakDepth:  q.peakDepth,
		MaxLatency: q.latMax,
	}
	if len(q.lat) > 0 {
		tmp := append([]time.Duration(nil), q.lat...)
		sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
		st.P50Latency = tmp[len(tmp)*50/100]
		st.P99Latency = tmp[len(tmp)*99/100]
	}
	return st
}

// LanedQueue is a two-lane bounded priority queue. Pop always serves the
// control lane before telemetry; each lane sheds its own overflow
// (lowest-priority traffic sheds first under pressure because control is
// sized for its worst-case rate while telemetry saturates). It is safe
// for concurrent use.
type LanedQueue struct {
	mu    sync.Mutex
	lanes [numLanes]laneQ
}

// NewLanedQueue sizes the two lanes. Depths must be at least 1.
func NewLanedQueue(controlDepth, telemetryDepth int) *LanedQueue {
	if controlDepth < 1 || telemetryDepth < 1 {
		panic("pubsub: lane depths must be >= 1")
	}
	q := &LanedQueue{}
	q.lanes[LaneControl].fifo.depth = controlDepth
	q.lanes[LaneTelemetry].fifo.depth = telemetryDepth
	return q
}

// Push enqueues m on the lane its topic classifies into, stamping the
// enqueue time for latency accounting. It reports whether the message
// was accepted (false = shed, counted against the lane).
func (q *LanedQueue) Push(m Message, now time.Duration) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.lanes[ClassifyTopic(m.Topic)].push(lanedEntry{m: m, at: now})
}

// Pop dequeues the next message, control lane first. ok is false when
// both lanes are empty.
func (q *LanedQueue) Pop(now time.Duration) (m Message, lane Lane, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for l := Lane(0); l < numLanes; l++ {
		if m, ok := q.lanes[l].pop(now); ok {
			return m, l, true
		}
	}
	return Message{}, 0, false
}

// Len returns the total queued messages across lanes.
func (q *LanedQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.lanes[LaneControl].fifo.len() + q.lanes[LaneTelemetry].fifo.len()
}

// Stats returns (control, telemetry) counters.
func (q *LanedQueue) Stats() (control, telemetry LaneStats) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.lanes[LaneControl].stats(), q.lanes[LaneTelemetry].stats()
}
