package baseline

import "repro/internal/ungapped"

// stampedDiag co-locates a diagonal's epoch stamp with its two-hit state so
// one hit touches one cache line. The earlier layout kept stamps and states
// in two parallel arrays, which doubled the random-access traffic of hit
// detection — the stage the paper singles out as memory-bound (Section II-B).
type stampedDiag struct {
	stamp uint32
	state ungapped.DiagState
}

// StampedDiags is a reusable array of per-diagonal two-hit states with
// epoch-based lazy reset: advancing the epoch invalidates every slot in O(1)
// instead of clearing the array, which matters because the db-indexed
// pipelines need one state per (subject, diagonal) of a whole index block
// and reset it for every query (Section II-B's last-hit arrays).
type StampedDiags struct {
	epoch uint32
	slots []stampedDiag
}

// Reset invalidates all states and ensures capacity for n slots.
func (sd *StampedDiags) Reset(n int) {
	if cap(sd.slots) < n {
		sd.slots = make([]stampedDiag, n)
	}
	sd.slots = sd.slots[:n]
	sd.epoch++
	if sd.epoch == 0 {
		// Stamp wrap-around: clear once and restart at epoch 1. The clear
		// covers the whole backing array, not just the current length: a
		// scratch that served a larger block earlier still holds stamps
		// beyond n, and once the epoch counter comes round again they would
		// pass for current-epoch first hits.
		full := sd.slots[:cap(sd.slots)]
		for i := range full {
			full[i].stamp = 0
		}
		sd.epoch = 1
	}
}

// Get returns the state for slot i, lazily resetting it on first access in
// the current epoch.
func (sd *StampedDiags) Get(i int) *ungapped.DiagState {
	sl := &sd.slots[i]
	if sl.stamp != sd.epoch {
		sl.stamp = sd.epoch
		sl.state.Reset()
	}
	return &sl.state
}
