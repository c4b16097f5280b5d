package qdfa

import (
	"testing"
	"testing/quick"

	"repro/internal/alphabet"
	"repro/internal/matrix"
	"repro/internal/neighbor"
	"repro/internal/qindex"
	"repro/internal/seqgen"
)

// nbr returns the BLOSUM62 neighbor enumerator at the default threshold.
func nbr() *neighbor.Enumerator { return neighbor.New(matrix.Blosum62, neighbor.DefaultThreshold) }

type hitRec struct {
	sOff int
	qOff int32
}

// scanWithQindex reproduces the lookup-table scan for comparison.
func scanWithQindex(ix *qindex.Index, subject []alphabet.Code) []hitRec {
	var out []hitRec
	for sOff := 0; sOff+alphabet.W <= len(subject); sOff++ {
		w := alphabet.WordAt(subject, sOff)
		if !ix.Present(w) {
			continue
		}
		for _, q := range ix.Positions(w) {
			out = append(out, hitRec{sOff, q})
		}
	}
	return out
}

func TestScanMatchesQindex(t *testing.T) {
	g := seqgen.New(seqgen.UniprotProfile(), 101)
	query := g.Sequence(256)
	d := Build(query, nbr())
	ix := qindex.Build(query, nbr())
	for trial := 0; trial < 10; trial++ {
		subject := g.Sequence(100 + trial*50)
		want := scanWithQindex(ix, subject)
		var got []hitRec
		d.Scan(subject, func(sOff int, qOff int32) {
			got = append(got, hitRec{sOff, qOff})
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d hits vs qindex %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d hit %d: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestScanPropertyEquivalence(t *testing.T) {
	check := func(seed int64, qlen, slen uint8) bool {
		g := seqgen.New(seqgen.UniprotProfile(), seed)
		query := g.Sequence(int(qlen)%100 + alphabet.W)
		subject := g.Sequence(int(slen) % 150)
		d := Build(query, nbr())
		ix := qindex.Build(query, nbr())
		want := scanWithQindex(ix, subject)
		var got []hitRec
		d.Scan(subject, func(sOff int, qOff int32) {
			got = append(got, hitRec{sOff, qOff})
		})
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestShortInputs(t *testing.T) {
	d := Build(alphabet.MustEncode("ARN"), nbr())
	for _, s := range []string{"", "A", "AR"} {
		count := 0
		d.Scan(alphabet.MustEncode(s), func(int, int32) { count++ })
		if count != 0 {
			t.Errorf("subject %q produced %d hits", s, count)
		}
	}
	dEmpty := Build(nil, nbr())
	count := 0
	dEmpty.Scan(alphabet.MustEncode("ARNDCQ"), func(int, int32) { count++ })
	if count != 0 {
		t.Errorf("empty query produced %d hits", count)
	}
}

func TestSizeMatchesQindexPositions(t *testing.T) {
	g := seqgen.New(seqgen.EnvNRProfile(), 55)
	query := g.Sequence(200)
	d := Build(query, nbr())
	ix := qindex.Build(query, nbr())
	if d.TotalPositions() != ix.TotalPositions() {
		t.Errorf("DFA has %d positions, qindex %d", d.TotalPositions(), ix.TotalPositions())
	}
	// The DFA needs no pv bitset, so it is never larger.
	if d.SizeBytes() > ix.SizeBytes() {
		t.Errorf("DFA (%d B) larger than lookup table (%d B)", d.SizeBytes(), ix.SizeBytes())
	}
}
