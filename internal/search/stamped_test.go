package search

import "testing"

// The two tests below (and their StampedDiags sibling in internal/baseline)
// pin the epoch wrap against a scratch that shrinks and grows again: a slot
// stamped while the array served a large block sits beyond the length of the
// small blocks that follow, so the wrap — which happens during one of the
// small resets — has to clear it anyway. Otherwise the stamp passes for the
// current epoch once the counter comes round, and a first hit on that slot
// pairs with a hit from an earlier query.
const (
	stampBig   = 64
	stampSmall = 8
	stampHigh  = 40 // a slot only the big length reaches
)

func TestStampedLastPos16WrapClearsBeyondLength(t *testing.T) {
	var sl StampedLastPos16
	sl.Reset(stampBig)
	sl.Reset(stampBig)
	stamped := sl.epoch
	sl.CheckCount(stampHigh, 10, 40)
	for sl.epoch != stamped-1 { // wraps on the way, at the small length
		sl.Reset(stampSmall)
	}
	sl.Reset(stampBig)
	if sl.epoch != stamped {
		t.Fatalf("epoch %d after the cycle, want %d", sl.epoch, stamped)
	}
	if sl.CheckCount(stampHigh, 25, 40) != 0 {
		t.Error("first hit of the epoch paired with a stamp from before the wrap")
	}
}

func TestStampedLastPosWrapClearsBeyondLength(t *testing.T) {
	var sl StampedLastPos
	sl.Reset(stampBig)
	sl.Reset(stampBig)
	stamped := sl.epoch
	sl.Check(stampHigh, 10, 40)
	for sl.epoch != stamped-1 {
		sl.Reset(stampSmall)
	}
	sl.Reset(stampBig)
	if sl.epoch != stamped {
		t.Fatalf("epoch %d after the cycle, want %d", sl.epoch, stamped)
	}
	if _, paired := sl.Check(stampHigh, 25, 40); paired {
		t.Error("first hit of the epoch paired with a stamp from before the wrap")
	}
}
