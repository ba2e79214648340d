package progress

import "fmt"

// PhaseChange reports one detected shift in the online-performance
// level.
type PhaseChange struct {
	Sample   int // index of the first sample of the new level
	OldLevel float64
	NewLevel float64
}

// PhaseDetector detects phase boundaries in an online-performance stream
// *as it arrives* — the runtime counterpart of the paper's Fig 1 (right)
// observation that QMCPACK's VMC1/VMC2/DMC phases compute blocks at
// clearly different rates. A power manager can use the events to
// re-characterize the application per phase.
//
// The detector maintains the running mean of the current level; when
// MinLen consecutive samples deviate from it by more than RelTol, it
// commits a phase change to the deviating samples' mean. Zero samples
// (reporting artifacts) are ignored.
type PhaseDetector struct {
	// relTol and minLen are construction configuration.
	relTol float64 `snap:"-"`
	minLen int     `snap:"-"`

	n       int // samples offered (excluding zeros)
	level   float64
	levelN  int
	pending []float64
	changes []PhaseChange
}

// NewPhaseDetector returns a detector. relTol is the relative deviation
// that counts as "off-level" (e.g. 0.2); minLen is how many consecutive
// off-level samples commit a phase change (e.g. 3).
func NewPhaseDetector(relTol float64, minLen int) (*PhaseDetector, error) {
	if relTol <= 0 || relTol >= 1 {
		return nil, fmt.Errorf("progress: phase detector relTol %v outside (0,1)", relTol)
	}
	if minLen < 1 {
		return nil, fmt.Errorf("progress: phase detector minLen %d < 1", minLen)
	}
	return &PhaseDetector{relTol: relTol, minLen: minLen}, nil
}

// Level returns the current phase level estimate (0 before any sample).
func (d *PhaseDetector) Level() float64 { return d.level }

// Changes returns every committed phase change.
func (d *PhaseDetector) Changes() []PhaseChange { return d.changes }

// Offer feeds one per-window rate and reports whether it committed a
// phase change.
func (d *PhaseDetector) Offer(rate float64) bool {
	if rate <= 0 {
		return false // empty-window artifact
	}
	d.n++
	if d.levelN == 0 {
		d.level = rate
		d.levelN = 1
		return false
	}
	lo := d.level * (1 - d.relTol)
	hi := d.level * (1 + d.relTol)
	if rate >= lo && rate <= hi {
		// On-level: absorb into the running mean; forgive any pending
		// outliers as noise.
		d.level = (d.level*float64(d.levelN) + rate) / float64(d.levelN+1)
		d.levelN++
		d.pending = d.pending[:0]
		return false
	}
	d.pending = append(d.pending, rate)
	if len(d.pending) < d.minLen {
		return false
	}
	// Sustained deviation: commit the new level.
	var sum float64
	for _, v := range d.pending {
		sum += v
	}
	newLevel := sum / float64(len(d.pending))
	d.changes = append(d.changes, PhaseChange{
		Sample:   d.n - len(d.pending),
		OldLevel: d.level,
		NewLevel: newLevel,
	})
	d.level = newLevel
	d.levelN = len(d.pending)
	d.pending = d.pending[:0]
	return true
}
