// Checkpoint accessors. Bank state is read and written through the
// cells directly, never through observe(): a snapshot must capture the
// simulation's ground truth without consuming fault-injection randomness,
// and a restore must not look like a read to the fault layer.

package counters

import "time"

// BankState is a flat copy of every counter cell
// (index = core*numEvents + event), matching the bank's internal layout.
type BankState struct {
	Vals []uint64
}

// SnapshotState captures every counter cell raw (no read hook applied).
func (b *Bank) SnapshotState() BankState {
	return BankState{Vals: append([]uint64(nil), b.vals...)}
}

// RestoreState pours captured cells back. The state must come from a
// bank with the same core count.
func (b *Bank) RestoreState(s BankState) {
	if len(s.Vals) != len(b.vals) {
		panic("counters: bank state size mismatch")
	}
	copy(b.vals, s.Vals)
}

// EventSetState is the mutable state of an EventSet: the values latched
// at Start (which already went through any fault hook on the donor, so
// they restore verbatim) and the interval anchor.
type EventSetState struct {
	Start map[Event]uint64
	Began time.Duration
}

// SnapshotState captures the event set's latched baseline.
func (s *EventSet) SnapshotState() EventSetState {
	var start map[Event]uint64
	if s.start != nil {
		start = make(map[Event]uint64, len(s.start))
		for e, v := range s.start {
			start[e] = v
		}
	}
	return EventSetState{Start: start, Began: s.began}
}

// RestoreState pours a captured baseline back. It replaces whatever
// Start latched, so a restored engine must not call Start again.
func (s *EventSet) RestoreState(st EventSetState) {
	if st.Start == nil {
		s.start = nil
	} else {
		s.start = make(map[Event]uint64, len(st.Start))
		for e, v := range st.Start {
			s.start[e] = v
		}
	}
	s.began = st.Began
}
