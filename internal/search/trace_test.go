package search

import (
	"testing"
)

func TestStampedLastPosCheck(t *testing.T) {
	t.Run("uint16", testStampedLastPosCheck[uint16])
	t.Run("uint32", testStampedLastPosCheck[uint32])
}

func testStampedLastPosCheck[S Slot](t *testing.T) {
	var sl StampedLastPos[S]
	sl.Reset(8)
	// First hit on a slot: no pair, records position.
	if _, paired := check(&sl, 3, 10, 40); paired {
		t.Error("first hit paired")
	}
	// Within window: pairs.
	dist, paired := check(&sl, 3, 25, 40)
	if !paired || dist != 15 {
		t.Errorf("Check = (%d, %v), want (15, true)", dist, paired)
	}
	// Exactly at window: no pair (strict <) but position updates.
	if _, paired := check(&sl, 3, 65, 40); paired {
		t.Error("distance == window paired")
	}
	if _, paired := check(&sl, 3, 70, 40); !paired {
		t.Error("hit near updated position did not pair")
	}
	// Same offset twice: dist 0, no pair.
	if _, paired := check(&sl, 3, 70, 40); paired {
		t.Error("zero distance paired")
	}
	// Other slots unaffected.
	if _, paired := check(&sl, 4, 71, 40); paired {
		t.Error("fresh slot paired")
	}
	// Reset invalidates.
	sl.Reset(8)
	if _, paired := check(&sl, 3, 80, 40); paired {
		t.Error("slot survived reset")
	}
}

func TestSortHSPsDeterminism(t *testing.T) {
	mk := func(score, subject, qstart int) HSP {
		h := HSP{Subject: subject}
		h.Aln.Score = score
		h.Aln.QStart = qstart
		return h
	}
	hsps := []HSP{mk(10, 2, 0), mk(20, 1, 0), mk(10, 1, 5), mk(10, 1, 2)}
	SortHSPs(hsps)
	want := []HSP{mk(20, 1, 0), mk(10, 1, 2), mk(10, 1, 5), mk(10, 2, 0)}
	for i := range want {
		if hsps[i].Subject != want[i].Subject || hsps[i].Aln.Score != want[i].Aln.Score ||
			hsps[i].Aln.QStart != want[i].Aln.QStart {
			t.Fatalf("order[%d] = %+v, want %+v", i, hsps[i], want[i])
		}
	}
}
