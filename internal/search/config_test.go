package search

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/ungapped"
)

// TestNewConfigTwoHitDefaults pins the ungapped stage's defaults, the gap
// trigger per matrix among them: NCBI's S1 of 22 bits through the matrix's
// own ungapped statistics, truncated to raw.
func TestNewConfigTwoHitDefaults(t *testing.T) {
	for _, tc := range []struct {
		matrix  string
		trigger int
	}{
		{"BLOSUM62", 41},
		{"BLOSUM50", 56},
		{"PAM250", 57},
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
