// Package progress implements the paper's central abstraction: an
// application-specific *online performance* metric published at runtime
// (§III). It provides the report wire format, the source-side Reporter
// the instrumented applications use, the Monitor that aggregates raw
// reports into per-second online-performance values (§IV-B), and the
// category taxonomy from Table V.
package progress

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"
)

// Category classifies applications by how well online performance can be
// defined for them (§III-B).
type Category int

const (
	// Category1: a clear online-performance metric exists and correlates
	// with the scientific goal (QMCPACK, OpenMC, LAMMPS, STREAM).
	Category1 Category = 1
	// Category2: online performance is well defined but does not reveal
	// how far the application is from its goal (AMG, CANDLE training).
	Category2 Category = 2
	// Category3: no single reliable metric exists (URBAN, Nek5000, HACC).
	Category3 Category = 3
)

func (c Category) String() string {
	switch c {
	case Category1:
		return "1"
	case Category2:
		return "2"
	case Category3:
		return "3"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Topic returns the pub/sub topic progress reports for app are published
// on.
func Topic(app string) string { return "progress." + app }

// Report is one raw progress publication: the application completed
// Value metric units (e.g. one block, 40000 atom-timesteps) at virtual
// time At, while in the named phase.
type Report struct {
	App   string
	Phase string
	Value float64
	At    time.Duration
}

// MarshaledSize returns the encoded length of the report.
func (r Report) MarshaledSize() int { return 18 + len(r.App) + len(r.Phase) }

// Marshal encodes the report into a compact binary payload.
func (r Report) Marshal() []byte {
	return r.AppendMarshal(make([]byte, 0, r.MarshaledSize()))
}

// AppendMarshal appends the encoded report to buf and returns the
// extended slice, allocating only if buf lacks capacity. It is the
// allocation-free form of Marshal for callers that recycle payload
// buffers.
func (r Report) AppendMarshal(buf []byte) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], math.Float64bits(r.Value))
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(r.At))
	buf = append(buf, tmp[:]...)
	if len(r.App) > 255 || len(r.Phase) > 255 {
		panic("progress: name longer than 255 bytes")
	}
	buf = append(buf, byte(len(r.App)))
	buf = append(buf, r.App...)
	buf = append(buf, byte(len(r.Phase)))
	buf = append(buf, r.Phase...)
	return buf
}

// UnmarshalReport decodes a payload produced by Marshal.
func UnmarshalReport(b []byte) (Report, error) {
	return decodeReport(b, nil)
}

// Decoder decodes report payloads while interning the App and Phase
// strings: an engine run decodes tens of thousands of reports that carry
// the same handful of names, and a plain UnmarshalReport allocates two
// fresh strings per report. A Decoder is not safe for concurrent use;
// each consumer (one per engine) owns its own.
type Decoder struct {
	// names is a string-interning cache.
	names map[string]string `snap:"-"`
}

// NewDecoder returns an empty interning decoder.
func NewDecoder() *Decoder { return &Decoder{names: make(map[string]string)} }

// Unmarshal decodes a payload, reusing previously seen name strings.
func (d *Decoder) Unmarshal(b []byte) (Report, error) {
	return decodeReport(b, d)
}

// intern returns the canonical string for b, allocating only on first
// sight (the map lookup keyed by string(b) does not allocate).
func (d *Decoder) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	d.names[s] = s
	return s
}

func decodeReport(b []byte, d *Decoder) (Report, error) {
	if len(b) < 18 {
		return Report{}, fmt.Errorf("progress: payload too short (%d bytes)", len(b))
	}
	var r Report
	r.Value = math.Float64frombits(binary.BigEndian.Uint64(b[0:8]))
	r.At = time.Duration(binary.BigEndian.Uint64(b[8:16]))
	pos := 16
	appLen := int(b[pos])
	pos++
	if pos+appLen+1 > len(b) {
		return Report{}, fmt.Errorf("progress: truncated app name")
	}
	appB := b[pos : pos+appLen]
	pos += appLen
	phaseLen := int(b[pos])
	pos++
	if pos+phaseLen > len(b) {
		return Report{}, fmt.Errorf("progress: truncated phase name")
	}
	phaseB := b[pos : pos+phaseLen]
	if d != nil {
		r.App = d.intern(appB)
		r.Phase = d.intern(phaseB)
	} else {
		r.App = string(appB)
		r.Phase = string(phaseB)
	}
	return r, nil
}

// Publisher is the subset of the pub/sub layer a Reporter needs.
type Publisher interface {
	PublishPayload(topic string, payload []byte) int
}

// BufferSource is an optional second interface a Publisher can implement
// to supply recycled payload buffers. AcquirePayload returns a zero-length
// slice with capacity at least n; the Reporter fills it and hands it back
// through PublishPayload, after which ownership (and any recycling) is the
// publisher's problem. Publishers that cannot prove the payload's lifetime
// ends at delivery must not implement it.
type BufferSource interface {
	AcquirePayload(n int) []byte
}

// Reporter is the instrumentation half: the application calls Publish for
// every completed unit of work (timestep, block, batch, GMRES iteration).
// Publishing is lossy and non-blocking, like the paper's ZeroMQ sockets.
type Reporter struct {
	// app and topic are construction configuration; pub and bufs wiring.
	app   string       `snap:"-"`
	pub   Publisher    `snap:"-"`
	bufs  BufferSource `snap:"-"` // non-nil iff pub recycles payload buffers
	sent  uint64
	topic string `snap:"-"`
}

// NewReporter returns a reporter for the named application.
func NewReporter(app string, pub Publisher) *Reporter {
	bufs, _ := pub.(BufferSource)
	return &Reporter{app: app, pub: pub, bufs: bufs, topic: Topic(app)}
}

// Publish emits one progress report.
func (r *Reporter) Publish(phase string, value float64, at time.Duration) {
	r.sent++
	rep := Report{App: r.app, Phase: phase, Value: value, At: at}
	var buf []byte
	if r.bufs != nil {
		buf = r.bufs.AcquirePayload(rep.MarshaledSize())
	} else {
		buf = make([]byte, 0, rep.MarshaledSize())
	}
	r.pub.PublishPayload(r.topic, rep.AppendMarshal(buf))
}

// Sent returns how many reports have been published.
func (r *Reporter) Sent() uint64 { return r.sent }

// Sample is one aggregated online-performance observation: metric units
// per second over one aggregation window.
type Sample struct {
	At      time.Duration // end of the window
	Rate    float64       // metric units per second
	Reports int           // raw reports aggregated into this sample
	Phase   string        // phase of the last report in the window ("" if none)
}

// Monitor aggregates raw reports into per-second online performance, the
// way the paper's framework "collect[s] and average[s] once every
// second". It is fed raw reports (from a bus subscription drain) and
// closed out once per window by Flush.
type Monitor struct {
	// window is construction configuration. The open window is folded
	// as reports arrive: how many were accepted, their values summed in
	// arrival order from +0, and the last one's phase. All three are zero
	// at any checkpoint: Checkpoint refuses unflushed reports.
	window    time.Duration `snap:"-"`
	pending   int
	pendSum   float64
	pendPhase string
	samples   []Sample
	total     float64
	reports   uint64
	lastFlush time.Duration

	// Degraded-signal bookkeeping: a monitor is a trust boundary — its
	// input arrives over a lossy transport from instrumented applications,
	// so it validates before aggregating.
	rejected     uint64
	history      []float64 // ring of recently accepted values
	histPos      int
	emptyWindows int

	// medScratch is the sort buffer median reuses: the outlier guard runs
	// once per accepted report, and a fresh 32-element copy per report was
	// a measurable slice churn on the engine hot path.
	medScratch []float64 `snap:"-"`
}

// Pending returns how many raw reports await the next Flush. The engine
// requires zero before checkpointing.
func (m *Monitor) Pending() int { return m.pending }

// historySize is the outlier-guard ring length; outlierMinHistory is how
// many accepted values it needs before the guard engages (a cold monitor
// must not reject a legitimate first burst); outlierFactor is how far
// beyond the recent median a value must be to be rejected. 32× passes any
// plausible phase transition (the paper's phases differ by ~2–4×) while
// stopping counter-glitch spikes (2^10 and up).
const (
	historySize       = 32
	outlierMinHistory = 8
	outlierFactor     = 32
)

// NewMonitor returns a monitor aggregating over the given window
// (the paper uses one second).
func NewMonitor(window time.Duration) *Monitor {
	if window <= 0 {
		panic("progress: non-positive aggregation window")
	}
	return &Monitor{window: window}
}

// Window returns the aggregation window.
func (m *Monitor) Window() time.Duration { return m.window }

// Offer feeds one raw report into the current window. It returns false —
// and aggregates nothing — for reports that cannot be trusted: NaN,
// infinite, or negative values (a corrupted payload decodes to a valid
// Report struct carrying garbage), and extreme outliers relative to the
// recently accepted history (a glitched counter read published as
// progress). One poisoned report must not corrupt the rate the control
// loop steers by.
func (m *Monitor) Offer(r Report) bool {
	if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) || r.Value < 0 {
		m.rejected++
		return false
	}
	if len(m.history) >= outlierMinHistory {
		m.medScratch = append(m.medScratch[:0], m.history...)
		if med := median(m.medScratch); med > 0 && r.Value > med*outlierFactor {
			m.rejected++
			return false
		}
	}
	if len(m.history) < historySize {
		m.history = append(m.history, r.Value)
	} else {
		m.history[m.histPos] = r.Value
		m.histPos = (m.histPos + 1) % historySize
	}
	m.pending++
	m.pendSum += r.Value
	m.pendPhase = r.Phase
	m.total += r.Value
	m.reports++
	return true
}

// median returns the median of vs, sorting it in place (callers pass a
// scratch copy, never the live history ring).
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// Flush closes the window ending at now and records its Sample. Windows
// with no reports record a zero rate — exactly the artifact the paper
// observes for OpenMC, whose batch duration aliases against the
// aggregation window. The rate divisor is the actual time since the
// previous flush (so a partial final window is not under-reported),
// falling back to the nominal window for the first flush at or before
// one window of elapsed time.
func (m *Monitor) Flush(now time.Duration) Sample {
	elapsed := (now - m.lastFlush).Seconds()
	if elapsed <= 0 {
		elapsed = m.window.Seconds()
	}
	m.lastFlush = now
	s := Sample{
		At:      now,
		Rate:    m.pendSum / elapsed,
		Reports: m.pending,
		Phase:   m.pendPhase,
	}
	if s.Reports == 0 {
		m.emptyWindows++
	} else {
		m.emptyWindows = 0
	}
	m.pending, m.pendSum, m.pendPhase = 0, 0, ""
	m.samples = append(m.samples, s)
	return s
}

// NextFlushAt returns the end of the window currently being aggregated:
// the monitor's NextEventAt hook for macro-stepping drivers, which must
// not stride past a window edge without closing it.
func (m *Monitor) NextFlushAt() time.Duration { return m.lastFlush + m.window }

// EmptyWindows returns how many consecutive windows (ending with the most
// recent Flush) closed with zero reports — the staleness signal consumers
// use to distinguish "application reports slowly" (isolated zero windows,
// the OpenMC aliasing artifact) from "signal is gone" (a run of them).
func (m *Monitor) EmptyWindows() int { return m.emptyWindows }

// Rejected returns how many offered reports were refused as untrustworthy.
func (m *Monitor) Rejected() uint64 { return m.rejected }

// Samples returns every recorded sample.
func (m *Monitor) Samples() []Sample { return m.samples }

// Rates returns just the per-window rates.
func (m *Monitor) Rates() []float64 {
	out := make([]float64, len(m.samples))
	for i, s := range m.samples {
		out[i] = s.Rate
	}
	return out
}

// TotalUnits returns the sum of all report values seen.
func (m *Monitor) TotalUnits() float64 { return m.total }

// Reports returns the raw report count seen.
func (m *Monitor) Reports() uint64 { return m.reports }

// MeanRate returns total units divided by observed time (n windows).
func (m *Monitor) MeanRate() float64 {
	if len(m.samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range m.samples {
		sum += s.Rate
	}
	return sum / float64(len(m.samples))
}
