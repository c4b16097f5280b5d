package search

import (
	"math/bits"

	"repro/internal/alphabet"
)

// StampedLastPos is the pre-filter's last-hit array: only the position of the
// stored hit per diagonal slot — the last hit that did not overlap its
// predecessor, see Check — since the pre-filter never consults extension
// state (Algorithm 2's lastHitArr), with epoch-based lazy reset —
// advancing the epoch invalidates every slot in O(1) instead of clearing an
// array that holds one slot per diagonal of a whole index block (core lays
// the block's sequences on one axis, see dbindex) and is reset for every
// query. Stamp and position are packed into one
// uint32 word — epoch in the high 12 bits, query offset in the low 20 — so
// the per-hit random access costs a single 4-byte load and store on one
// cache line, and a block's whole slot array is half the footprint of an
// int32 position plus a separate stamp. The 12-bit epoch wraps every 4095
// resets, forcing one array clear (microseconds, amortized to nothing); the
// 20-bit position caps supported query offsets at MaxQOff, far beyond any
// protein (callers guard — see core's hit detection).
type StampedLastPos struct {
	epoch uint32 // current stamp, always in [1, 0xFFF]
	slots []uint32
}

// MaxQOff is the largest query offset Check can record: positions are packed
// into 20 bits, which covers queries ~30x longer than the largest known
// protein.
const MaxQOff = 1<<20 - 1

// Reset invalidates all slots and ensures capacity for n of them.
func (sl *StampedLastPos) Reset(n int) {
	if cap(sl.slots) < n {
		sl.slots = make([]uint32, n)
	}
	sl.slots = sl.slots[:n]
	sl.epoch++
	if sl.epoch == 1<<12 {
		// Stamp wrap-around: clear once and restart at epoch 1. The clear
		// covers the whole backing array, not just the current length: a
		// scratch that served a larger block earlier still holds stamps
		// beyond n, and once the epoch counter comes round again they would
		// pass for current-epoch first hits.
		clear(sl.slots[:cap(sl.slots)])
		sl.epoch = 1
	}
}

// Check performs the two-hit test for a hit at qOff on slot i, NCBI's
// non-overlapping rule (ungapped.Canon.PairCheck states the semantics; this
// is its packed form). With d the distance to the slot's stored hit:
//
//   - no stored hit this epoch: store, no pair;
//   - d < alphabet.W: the hit overlaps the stored one and is ignored — the
//     stored hit is kept, so a later hit is still measured from it;
//   - alphabet.W <= d < window: pair, store;
//   - d >= window: store, no pair.
//
// Both tests are one unsigned compare on key = stale<<32 | uint32(d), where
// stale is non-zero exactly when the slot's stamp is not the current epoch:
// key < W keeps the stored word (a conditional move, not a branch), and
// key-W < window-W is the pair verdict (an overlapping d wraps far above
// any window). Hits arrive in increasing offset per slot and qOff must be in
// [0, MaxQOff]; a window <= alphabet.W never pairs. dist is meaningful only
// when paired.
func (sl *StampedLastPos) Check(i int, qOff int32, window int32) (dist int32, paired bool) {
	v := sl.slots[i]
	cur := sl.epoch << 20
	dist = qOff - int32(v&MaxQOff)
	key := uint64(v&^uint32(MaxQOff)^cur)<<32 | uint64(uint32(dist))
	nv := cur | uint32(qOff)
	if key < alphabet.W {
		nv = v
	}
	sl.slots[i] = nv
	return dist, key-alphabet.W < uint64(max(window-alphabet.W, 0))
}

// StampedLastPos16 is StampedLastPos squeezed into uint16 slots — query offset
// in the high 10 bits, epoch in the low 6 — for queries of at most MaxQOff16
// offsets (covering all but the very largest known proteins; the detection
// kernel falls back to the uint32 form beyond that). The point is footprint:
// the last-hit array of a whole database block is accessed randomly, one slot
// per hit, so halving it roughly doubles the fraction of slots that survive
// in cache between hits. The 6-bit epoch wraps every 63 resets, forcing one
// array clear — microseconds, amortized to nothing.
type StampedLastPos16 struct {
	epoch uint16 // current stamp, always in [1, 63]
	slots []uint16
}

// MaxQOff16 is the largest query offset StampedLastPos16 can record.
const MaxQOff16 = 1<<10 - 1

// Reset invalidates all slots and ensures capacity for n of them.
func (sl *StampedLastPos16) Reset(n int) {
	if cap(sl.slots) < n {
		sl.slots = make([]uint16, n)
	}
	sl.slots = sl.slots[:n]
	sl.epoch++
	if sl.epoch == 1<<6 {
		clear(sl.slots[:cap(sl.slots)]) // whole array: see StampedLastPos.Reset
		sl.epoch = 1
	}
}

// CheckCount is Check on the uint16 slots — the same rule and the same two
// compares; qOff must be in [0, MaxQOff16] and, unlike Check, window must lie
// in (alphabet.W, 1<<26) — with the verdict returned as a 0/1 increment
// instead of a bool, so a caller can emit its pair record unconditionally and
// advance a write index by inc: no data-dependent branch between consecutive
// slot accesses. That matters in the detection kernel: neither which hits pair
// nor which overlap the stored hit has a pattern a predictor can learn, and a
// mispredicted branch there flushes the speculative window that would
// otherwise keep several of the random last-hit cache misses in flight.
//
// The detection kernel calls CheckStamp, with the operands that do not
// change with the hit worked out once.
func (sl StampedLastPos16) CheckCount(i int, qOff int32, window int32) (inc int) {
	_, inc = CheckStamp(&sl.slots[i], sl.Stamp(qOff), uint32(window-alphabet.W))
	return inc
}

// Stamp returns the word a hit at qOff stores in its slot under the current
// epoch: the query offset in the high 10 bits, the epoch in the low 6.
func (sl StampedLastPos16) Stamp(qOff int32) uint32 { return uint32(qOff)<<6 | uint32(sl.epoch) }

// CheckStamp is CheckCount on one slot with the operands that depend only on
// the query offset and the window worked out by the caller: stamp is
// Stamp(qOff) and span is window - alphabet.W. The detection kernel computes
// them once per query offset instead of once per hit. It also returns the
// compare key, which is the distance d whenever the hit pairs (and
// meaningless otherwise): the kernel stores it in the pair record.
//
// The key costs a subtract and a rotate because the epoch sits in the low
// bits: new word minus stored word is d<<6 when the stamps agree, and has a
// non-zero low six bits when they do not, which the rotation carries to the
// top of the key, above any window.
func CheckStamp(slot *uint16, stamp uint32, span uint32) (key uint32, inc int) {
	v := uint32(*slot)
	key = bits.RotateLeft32(stamp-v, -6)
	nv := stamp
	if key < alphabet.W {
		nv = v
	}
	*slot = uint16(nv)
	if key-alphabet.W < span {
		inc = 1
	}
	return key, inc
}

// From returns the slots of sl from slot i on: the kernel takes one view per
// query offset, so that a hit's slot is its coordinate.
func (sl StampedLastPos16) From(i int) []uint16 { return sl.slots[i:] }
