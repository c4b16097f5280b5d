package baseline

import "testing"

// The test below (like its StampedLastPos siblings in internal/search) pins
// the epoch wrap against a scratch that shrinks and grows again: a slot
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

func TestStampedDiagsWrapClearsBeyondLength(t *testing.T) {
	var sd StampedDiags
	sd.Reset(stampBig)
	sd.Reset(stampBig)
	stamped := sd.epoch
	sd.Get(stampHigh).LastPos = 10
	sd.epoch = ^uint32(0) // 2^32 resets later
	sd.Reset(stampSmall)  // the wrap, at the small length
	for sd.epoch != stamped-1 {
		sd.Reset(stampSmall)
	}
	sd.Reset(stampBig)
	if sd.epoch != stamped {
		t.Fatalf("epoch %d after the cycle, want %d", sd.epoch, stamped)
	}
	if got := sd.Get(stampHigh).LastPos; got != -1 {
		t.Errorf("slot kept LastPos %d from before the wrap, want a fresh state", got)
	}
}
