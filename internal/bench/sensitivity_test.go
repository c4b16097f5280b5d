package bench

import "testing"

// TestPlantedHomologRecall is the floor under the engine's sensitivity: on
// the four planted worlds of the sensitivity experiment at small scale
// (355 000 residues, 64 ladder queries each, seed 7, about two seconds) every
// related pair whose optimal alignment has E <= 1e-3 must be reported, and
// pooled recall of the related pairs with SW E <= 10 may not fall more than
// two points below what NCBI's two-hit rule measured when it was adopted
// (503 of 539). Byte-identity tests cannot see a change that makes every
// engine lose the same hits; this one can.
func TestPlantedHomologRecall(t *testing.T) {
	const measured = 503.0 / 539.0
	s := SmallScale()
	var found, gold int
	for _, w := range SensitivityWorlds(s)[1:] {
		r, err := MeasureSensitivity(w, s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Gold3 == 0 || r.Found3 != r.Gold3 {
			t.Errorf("%s: %d of %d related pairs with SW E <= 1e-3 reported (missed E-values %v)", w.Name, r.Found3, r.Gold3, r.MissedStrong)
		}
		found, gold = found+r.Found10, gold+r.Gold10
	}
	if recall := float64(found) / float64(gold); recall < measured-0.02 {
		t.Errorf("pooled recall at SW E <= 10 is %d/%d = %.4f, below the floor %.4f - 0.02", found, gold, recall, measured)
	}
}
