package search

import (
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/ungapped"
)

// The two-hit rule is stated twice — ungapped.Canon.PairCheck (the semantics
// every baseline reaches through Canon.Step) and CheckStamp (the detection
// scan), which runs on two slot widths — and engine-vs-baseline identity
// holds only while the statements agree hit for hit, on the verdict and, for
// a pair, on the distance to its first hit, which decides how far the pair is
// extended. pairRuleTrio drives one hit stream through Canon and both widths.
type pairRuleTrio struct {
	canon  ungapped.Canon
	diags  []ungapped.DiagState
	wide   StampedLastPos[uint32]
	narrow StampedLastPos[uint16]
}

func newPairRuleTrio(window int) *pairRuleTrio {
	return &pairRuleTrio{canon: ungapped.Canon{P: ungapped.Params{Window: window}}}
}

// reset starts a new epoch of n slots in all three forms.
func (p *pairRuleTrio) reset(n int) {
	if cap(p.diags) < n {
		p.diags = make([]ungapped.DiagState, n)
	}
	p.diags = p.diags[:n]
	for i := range p.diags {
		p.diags[i].Reset()
	}
	p.wide.Reset(n)
	p.narrow.Reset(n)
}

// hit returns the three verdicts for one hit and the distances the three
// forms report for it: Canon's is read from the diagonal state before
// PairCheck stores the hit, as Canon.Step reads it. The uint16 form is
// consulted only when it can represent the hit (qOff <= MaxQOff16) and
// echoes the wide verdict and distance otherwise.
func (p *pairRuleTrio) hit(slot, qOff int) (canon, wide, narrow bool, dist [3]int32) {
	window := int32(p.canon.P.Window)
	dist[0] = int32(qOff) - p.diags[slot].LastPos
	canon = p.canon.PairCheck(&p.diags[slot], qOff)
	dist[1], wide = check(&p.wide, slot, int32(qOff), window)
	narrow, dist[2] = wide, dist[1]
	if qOff <= MaxQOff16 {
		dist[2], narrow = check(&p.narrow, slot, int32(qOff), window)
	}
	return canon, wide, narrow, dist
}

func TestPairRuleTable(t *testing.T) {
	const W, A = alphabet.W, 40
	type step struct {
		reset bool // start a new epoch before the hit
		qOff  int
		want  bool
	}
	run := func(offs ...int) []step { // hits that must not pair
		var s []step
		for _, o := range offs {
			s = append(s, step{qOff: o})
		}
		return s
	}
	pairs := func(o int) step { return step{qOff: o, want: true} }
	ladder := run(0)
	for o := 1; o <= 9; o++ {
		ladder = append(ladder, step{qOff: o, want: o%W == 0})
	}
	for _, c := range []struct {
		name   string
		window int
		steps  []step
	}{
		// The hit at 10+W-1 overlaps the stored hit and is ignored; the
		// stored hit stays 10, so 10+W pairs (from 10+W-1 it would overlap).
		{"d=W-1 ignored, stored hit kept", A, append(run(10, 10+W-1), pairs(10+W))},
		{"d=W pairs", A, append(run(10), pairs(10+W))},
		{"d=A-1 pairs", A, append(run(10), pairs(10+A-1))},
		// At d = A the hit is stored without pairing: the next one is
		// measured from it.
		{"d=A stored, no pair", A, append(run(10, 10+A), pairs(10+A+W))},
		{"consecutive words pair every W-th", A, ladder},
		// A slot stamped in an earlier epoch whose offset bits equal the
		// current offset reads as d = 0; it must count as a first hit and be
		// overwritten, or the hit W later finds no partner.
		{"stale slot with equal offset bits", A, []step{{qOff: 25}, {reset: true, qOff: 25}, pairs(25 + W)}},
		{"window W+1 pairs at d=W only", W + 1, append(run(10), pairs(10+W), step{qOff: 10 + 2*W + 1})},
		{"window W never pairs", W, run(10, 10+W-1, 10+W, 10+2*W)},
		{"window 0 never pairs", 0, run(10, 11, 14)},
	} {
		for _, base := range []int{0, MaxQOff16 - 100, MaxQOff - 100} {
			p := newPairRuleTrio(c.window)
			p.reset(4)
			for _, s := range c.steps {
				if s.reset {
					p.reset(4)
				}
				canon, wide, narrow, _ := p.hit(2, base+s.qOff)
				if canon != s.want || wide != s.want || narrow != s.want {
					t.Errorf("%s, base %d, hit at +%d: PairCheck %v, uint32 %v, uint16 %v, want %v",
						c.name, base, s.qOff, canon, wide, narrow, s.want)
				}
			}
		}
	}
}

// FuzzPairRuleEquivalence drives random hit streams — increasing offsets per
// slot, many slots, every window in 4..60, offsets up to MaxQOff16 (all three
// forms) or MaxQOff (the two that reach it) — through Canon and both slot
// widths and requires the same verdict for every hit, and the same distance
// for every pair, across enough epochs to take both widths through their
// 63-epoch wrap dozens of times, with the slot array shrinking and growing
// back on the way (a stamp beyond the current length must not survive a
// wrap, see stamped_test.go).
func FuzzPairRuleEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(36))
	f.Add(int64(2), uint8(0))
	f.Add(int64(3), uint8(56))
	f.Fuzz(func(t *testing.T, seed int64, w uint8) {
		rng := rand.New(rand.NewSource(seed))
		window := 4 + int(w)%57
		p := newPairRuleTrio(window)
		const maxSlots = 48
		next := make([]int, maxSlots)
		for epoch := 0; epoch < 4200; epoch++ {
			n := maxSlots
			if rng.Intn(4) == 0 {
				n = 1 + rng.Intn(maxSlots) // shrink; a later epoch grows back
			}
			p.reset(n)
			top := MaxQOff16
			if rng.Intn(8) == 0 {
				top = MaxQOff
			}
			for i := range next[:n] {
				next[i] = top - rng.Intn(3*window)
			}
			for h := rng.Intn(12); h > 0; h-- {
				slot := rng.Intn(n)
				if rng.Intn(2) == 0 {
					slot = rng.Intn(min(n, 4)) // a few busy slots, so streams get long
				}
				qOff := next[slot]
				if qOff > top {
					continue
				}
				// Gaps cluster around the two boundaries of the rule.
				switch rng.Intn(4) {
				case 0:
					next[slot] += 1 + rng.Intn(alphabet.W+1)
				case 1:
					next[slot] += window - 2 + rng.Intn(4)
				default:
					next[slot] += 1 + rng.Intn(window+4)
				}
				canon, wide, narrow, dist := p.hit(slot, qOff)
				if wide != canon || narrow != canon {
					t.Fatalf("seed %d window %d epoch %d slot %d qOff %d: PairCheck %v, uint32 %v, uint16 %v",
						seed, window, epoch, slot, qOff, canon, wide, narrow)
				}
				if canon && (dist[1] != dist[0] || dist[2] != dist[0]) {
					t.Fatalf("seed %d window %d epoch %d slot %d qOff %d: pair distance from Canon %d, uint32 %d, uint16 %d",
						seed, window, epoch, slot, qOff, dist[0], dist[1], dist[2])
				}
			}
		}
	})
}
