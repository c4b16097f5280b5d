package search

import (
	"testing"

	"repro/internal/alphabet"
)

// check runs CheckStamp for a hit at qOff on slot i of sl under window, as
// the detection kernel does, with the verdict as a bool and the key as the
// pair's distance. A window of at most W gets a span of 0: it never pairs.
func check[S Slot](sl *StampedLastPos[S], i int, qOff, window int32) (dist int32, paired bool) {
	key, nv, inc := CheckStamp(uint32(sl.slots[i]), sl.Stamp(qOff), uint32(max(window-alphabet.W, 0)))
	sl.slots[i] = S(nv)
	return int32(key), inc == 1
}

// The two tests below (and their StampedDiags sibling in internal/baseline)
// pin the epoch wrap against a scratch that shrinks and grows again, one
// slot width each: a slot stamped while the array served a large block sits
// beyond the length of the small blocks that follow, so the wrap — which
// happens during one of the small resets — has to clear it anyway. Otherwise
// the stamp passes for the current epoch once the counter comes round, and a
// first hit on that slot pairs with a hit from an earlier query.
const (
	stampBig   = 64
	stampSmall = 8
	stampHigh  = 40 // a slot only the big length reaches
)

func TestStampedLastPos16WrapClearsBeyondLength(t *testing.T) {
	testWrapClearsBeyondLength[uint16](t)
}

func TestStampedLastPosWrapClearsBeyondLength(t *testing.T) {
	testWrapClearsBeyondLength[uint32](t)
}

func testWrapClearsBeyondLength[S Slot](t *testing.T) {
	var sl StampedLastPos[S]
	sl.Reset(stampBig)
	sl.Reset(stampBig)
	stamped := sl.epoch
	check(&sl, stampHigh, 10, 40)
	for sl.epoch != stamped-1 { // wraps on the way, at the small length
		sl.Reset(stampSmall)
	}
	sl.Reset(stampBig)
	if sl.epoch != stamped {
		t.Fatalf("epoch %d after the cycle, want %d", sl.epoch, stamped)
	}
	if _, paired := check(&sl, stampHigh, 25, 40); paired {
		t.Error("first hit of the epoch paired with a stamp from before the wrap")
	}
}
