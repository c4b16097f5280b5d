package search

import (
	"math/bits"

	"repro/internal/alphabet"
	"repro/internal/ungapped"
)

// Slot is the width of a last-hit slot: uint16 for queries of at most
// MaxQOff16 offsets, uint32 up to MaxQOff.
type Slot interface{ ~uint16 | ~uint32 }

// StampedLastPos is the pre-filter's last-hit array: only the position of the
// stored hit per diagonal slot — the last hit that did not overlap its
// predecessor, see CheckStamp — since the pre-filter never consults extension
// state (Algorithm 2's lastHitArr), with epoch-based lazy reset: advancing
// the epoch invalidates every slot in O(1) instead of clearing an array that
// holds one slot per diagonal of a whole index block (core lays the block's
// sequences on one axis, see dbindex) and is reset for every query.
//
// A slot packs the query offset above a 6-bit epoch, so the per-hit random
// access is one load and one store on one cache line. The width is the only
// parameter: 16-bit slots hold offsets up to MaxQOff16 and halve the
// footprint of a block's array, which the scan is bound on — roughly
// doubling the fraction of slots that survive in cache between hits; 32-bit
// slots have 26 bits of offset, more than MaxQOff. The epoch wraps every 63
// resets, forcing one array clear — microseconds, amortized to nothing.
type StampedLastPos[S Slot] struct {
	epoch uint32 // current stamp, always in [1, 63]
	slots []S
}

// MaxQOff is the largest query offset a last-hit slot can serve: a pair
// record carries offsets in 20 bits (hit.NewPair), which covers queries ~30x
// longer than the largest known protein.
const MaxQOff = 1<<20 - 1

// Every query the last-hit slots serve must also fit the ungapped kernels'
// packed positions; raising MaxQOff past ungapped.MaxQueryLen makes this
// array length negative and the build fail.
var _ [ungapped.MaxQueryLen - (MaxQOff + alphabet.W)]struct{}

// MaxQOff16 is the largest query offset a uint16 slot can record.
const MaxQOff16 = 1<<10 - 1

// Reset invalidates all slots and ensures capacity for n of them.
func (sl *StampedLastPos[S]) Reset(n int) {
	if cap(sl.slots) < n {
		sl.slots = make([]S, n)
	}
	sl.slots = sl.slots[:n]
	sl.epoch++
	if sl.epoch == 1<<6 {
		// Stamp wrap-around: clear once and restart at epoch 1. The clear
		// covers the whole backing array, not just the current length: a
		// scratch that served a larger block earlier still holds stamps
		// beyond n, and once the epoch counter comes round again they would
		// pass for current-epoch first hits.
		clear(sl.slots[:cap(sl.slots)])
		sl.epoch = 1
	}
}

// Stamp returns the word a hit at qOff stores in its slot under the current
// epoch: the query offset above the epoch's 6 bits.
func (sl *StampedLastPos[S]) Stamp(qOff int32) uint32 { return uint32(qOff)<<6 | sl.epoch }

// From returns the slots of sl from slot i on: the kernel takes one view per
// query offset, so that a hit's slot is its coordinate.
func (sl *StampedLastPos[S]) From(i int) []S { return sl.slots[i:] }

// CheckStamp performs the two-hit test for a hit on a slot whose stored
// word is v, NCBI's non-overlapping rule (ungapped.Canon.PairCheck states the
// semantics; this is its packed form), and returns the word to store back,
// nv. stamp is Stamp(qOff) and span is window - alphabet.W: the detection
// kernel works them out once per query offset instead of once per hit. With
// d the distance to the slot's stored hit:
//
//   - no stored hit this epoch: store, no pair;
//   - d < alphabet.W: the hit overlaps the stored one and is ignored — the
//     stored hit is kept, so a later hit is still measured from it;
//   - alphabet.W <= d < window: pair, store;
//   - d >= window: store, no pair.
//
// Both tests are one unsigned compare on a key: new word minus stored word
// is d<<6 when the stamps agree, and has non-zero low six bits when they do
// not, which a rotation carries to the top of the key, above any window. So
// key < W keeps the stored word (a conditional move, not a branch), and
// key-W < span is the pair verdict (an overlapping d wraps far above any
// span). key is the distance d whenever the hit pairs, and meaningless
// otherwise: the kernel stores it in the pair record. Hits arrive in
// increasing offset per slot, qOff must fit the slot (MaxQOff16, MaxQOff),
// and a span of 0 never pairs.
//
// The verdict is a 0/1 increment instead of a bool, so a caller can emit its
// pair record unconditionally and advance a write index by inc: no
// data-dependent branch between consecutive slot accesses. That matters in
// the detection kernel: neither which hits pair nor which overlap the stored
// hit has a pattern a predictor can learn, and a mispredicted branch there
// flushes the speculative window that would otherwise keep several of the
// random last-hit cache misses in flight.
//
// CheckStamp works on slot values, not on a *S, so that it is not generic:
// inlined as a generic function into the kernel's generic loop, it costs a
// load of its sub-dictionary per hit and a register, and the loop spills one
// more value (EXPERIMENTS.md, "PR-42 one detection loop").
func CheckStamp(v, stamp, span uint32) (key, nv uint32, inc int) {
	key = bits.RotateLeft32(stamp-v, -6)
	nv = stamp
	if key < alphabet.W {
		nv = v
	}
	if key-alphabet.W < span {
		inc = 1
	}
	return key, nv, inc
}
