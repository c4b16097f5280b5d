package search

import (
	"testing"

	"repro/internal/gapped"
	"repro/internal/matrix"
	"repro/internal/stats"
	"repro/internal/ungapped"
)

// TestNewConfigTwoHitDefaults pins the ungapped stage's defaults, the gap
// trigger per matrix among them: NCBI's S1 of 22 bits through the matrix's
// own ungapped statistics, truncated to raw. It also pins the gapped stage's
// penalties and the statistics final E-values use, including the one live
// fallback: BLOSUM50 and PAM250 have no gapped row at 11/1, so every database
// built on them ranks with ungapped λ/K.
func TestNewConfigTwoHitDefaults(t *testing.T) {
	for _, tc := range []struct {
		matrix   string
		trigger  int
		gappedKA stats.Params // zero: the matrix has no 11/1 row
	}{
		{"BLOSUM62", 41, stats.Params{Lambda: 0.267, K: 0.041, H: 0.14}},
		{"BLOSUM50", 56, stats.Params{}},
		{"PAM250", 57, stats.Params{}},
	} {
		m, err := matrix.ByName(tc.matrix)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := NewConfig(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := ungapped.Params{Window: 40, XDrop: 16, Trigger: tc.trigger}
		if cfg.TwoHit != want {
			t.Errorf("%s: TwoHit = %+v, want %+v", tc.matrix, cfg.TwoHit, want)
		}
		if want := (gapped.Params{GapOpen: 11, GapExtend: 1, XDrop: 38}); cfg.Gap != want {
			t.Errorf("%s: Gap = %+v, want %+v", tc.matrix, cfg.Gap, want)
		}
		// Final E-values come from the gapped statistics of the 11/1 row;
		// a matrix without one falls back to its ungapped λ/K.
		wantKA := tc.gappedKA
		if wantKA == (stats.Params{}) {
			wantKA = cfg.UngappedKA
		}
		if cfg.GappedKA != wantKA {
			t.Errorf("%s: GappedKA = %+v, want %+v", tc.matrix, cfg.GappedKA, wantKA)
		}
		// S1 is the last raw score at or below 22 bits: S1+1 is above.
		ka := cfg.UngappedKA
		if b := ka.BitScore(tc.trigger); b > ungapped.GapTriggerBits {
			t.Errorf("%s: S1 %d is %.2f bits, above %d", tc.matrix, tc.trigger, b, ungapped.GapTriggerBits)
		}
		if b := ka.BitScore(tc.trigger + 1); b <= ungapped.GapTriggerBits {
			t.Errorf("%s: S1+1 %d is %.2f bits, not above %d", tc.matrix, tc.trigger+1, b, ungapped.GapTriggerBits)
		}
	}
}
