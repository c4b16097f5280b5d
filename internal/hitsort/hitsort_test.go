package hitsort

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/hit"
)

// randomHits builds hits with keys confined to keyBits bits and a payload
// that records original position, for stability checks.
func randomHits(rng *rand.Rand, n, keyBits int) []hit.Hit {
	mask := uint32(1)<<uint(keyBits) - 1
	hits := make([]hit.Hit, n)
	for i := range hits {
		hits[i] = hit.Hit{Key: rng.Uint32() & mask, QOff: int32(i)}
	}
	return hits
}

// checkStableSorted verifies key order and stability (QOff increasing within
// equal keys, since QOff was assigned in input order).
func checkStableSorted(t *testing.T, hits []hit.Hit, name string) {
	t.Helper()
	for i := 1; i < len(hits); i++ {
		if hits[i].Key < hits[i-1].Key {
			t.Fatalf("%s: keys out of order at %d", name, i)
		}
		if hits[i].Key == hits[i-1].Key && hits[i].QOff < hits[i-1].QOff {
			t.Fatalf("%s: stability violated at %d", name, i)
		}
	}
}

func sorters() map[string]func([]hit.Hit, int) {
	return map[string]func([]hit.Hit, int){
		"LSD":   func(h []hit.Hit, keyBits int) { LSD(h, keyBits, nil) },
		"MSD":   func(h []hit.Hit, keyBits int) { MSD(h, keyBits, nil) },
		"Merge": func(h []hit.Hit, _ int) { Merge(h, nil) },
		"TwoLevelBin": func(h []hit.Hit, keyBits int) {
			// Treat the low half of the key as the diagonal field.
			diagBits := uint32(keyBits / 2)
			if diagBits == 0 {
				diagBits = 1
			}
			numDiags := 1 << diagBits
			numSeqs := 1 << (uint(keyBits) - uint(diagBits))
			TwoLevelBin(h, diagBits, numSeqs, numDiags, nil)
		},
	}
}

func TestSortersAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, sorter := range sorters() {
		for _, n := range []int{0, 1, 2, 3, 100, 1000, 10000} {
			for _, keyBits := range []int{4, 12, 22, 32} {
				in := randomHits(rng, n, keyBits)
				want := append([]hit.Hit(nil), in...)
				sort.SliceStable(want, func(i, j int) bool { return want[i].Key < want[j].Key })
				sorter(in, keyBits)
				if len(in) != len(want) {
					t.Fatalf("%s: length changed", name)
				}
				for i := range in {
					if in[i] != want[i] {
						t.Fatalf("%s n=%d bits=%d: mismatch at %d: %v vs %v",
							name, n, keyBits, i, in[i], want[i])
					}
				}
			}
		}
	}
}

func TestStability(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for name, sorter := range sorters() {
		// Few distinct keys force many ties.
		hits := make([]hit.Hit, 5000)
		for i := range hits {
			hits[i] = hit.Hit{Key: uint32(rng.Intn(16)), QOff: int32(i)}
		}
		sorter(hits, 4)
		checkStableSorted(t, hits, name)
	}
}

func TestAlreadySorted(t *testing.T) {
	for name, sorter := range sorters() {
		hits := make([]hit.Hit, 1000)
		for i := range hits {
			hits[i] = hit.Hit{Key: uint32(i), QOff: int32(i)}
		}
		sorter(hits, 10)
		checkStableSorted(t, hits, name)
	}
}

func TestReverseSorted(t *testing.T) {
	for name, sorter := range sorters() {
		hits := make([]hit.Hit, 1000)
		for i := range hits {
			hits[i] = hit.Hit{Key: uint32(1000 - i), QOff: int32(i)}
		}
		sorter(hits, 10)
		checkStableSorted(t, hits, name)
	}
}

func TestAllEqualKeys(t *testing.T) {
	for name, sorter := range sorters() {
		hits := make([]hit.Hit, 777)
		for i := range hits {
			hits[i] = hit.Hit{Key: 5, QOff: int32(i)}
		}
		sorter(hits, 4)
		checkStableSorted(t, hits, name)
		for i := range hits {
			if hits[i].QOff != int32(i) {
				t.Fatalf("%s: equal-key input permuted at %d", name, i)
			}
		}
	}
}

func TestLSDReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scratch := make([]hit.Hit, 10000)
	for trial := 0; trial < 5; trial++ {
		hits := randomHits(rng, 10000, 22)
		LSD(hits, 22, scratch)
		checkStableSorted(t, hits, "LSD+scratch")
	}
}

func TestLSDOnPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pairs := make([]hit.Pair, 2000)
	for i := range pairs {
		pairs[i] = hit.Pair{Key: rng.Uint32() & 0xFFFF, QOff: int32(i)}
	}
	LSD(pairs, 16, nil)
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Key < pairs[i-1].Key {
			t.Fatalf("pairs out of order at %d", i)
		}
		if pairs[i].Key == pairs[i-1].Key && pairs[i].QOff < pairs[i-1].QOff {
			t.Fatalf("pair stability violated at %d", i)
		}
	}
}

func TestKeyBitsNarrowerThanKeys(t *testing.T) {
	// If keyBits understates the real key width, LSD must still sort the
	// bits it was told about; here all keys fit in 8 bits so passes beyond
	// the first are no-ops.
	hits := []hit.Hit{{Key: 200}, {Key: 3}, {Key: 100}}
	LSD(hits, 8, nil)
	if !IsSorted(hits) {
		t.Error("8-bit sort failed")
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted([]hit.Hit{{Key: 1}, {Key: 1}, {Key: 2}}) {
		t.Error("sorted slice reported unsorted")
	}
	if IsSorted([]hit.Hit{{Key: 2}, {Key: 1}}) {
		t.Error("unsorted slice reported sorted")
	}
	if !IsSorted([]hit.Hit{}) || !IsSorted([]hit.Hit{{Key: 9}}) {
		t.Error("trivial slices reported unsorted")
	}
}

func TestTwoLevelBinWithReusesCounts(t *testing.T) {
	coder, err := hit.NewKeyCoder(512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	n := 5000
	scratch := make([]hit.Hit, n)
	var counts []int
	for trial := 0; trial < 4; trial++ {
		hits := make([]hit.Hit, n)
		for i := range hits {
			hits[i] = hit.Hit{Key: coder.Encode(rng.Intn(512), rng.Intn(1024)), QOff: int32(i)}
		}
		want := append([]hit.Hit(nil), hits...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Key < want[j].Key })
		counts = TwoLevelBinWith(hits, coder.DiagBits, 512, 1024, scratch, counts)
		for i := range hits {
			if hits[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d", trial, i)
			}
		}
	}
	// With buffers warmed, re-sorting must not allocate at all.
	hits := make([]hit.Hit, n)
	refill := func() {
		for i := range hits {
			hits[i] = hit.Hit{Key: coder.Encode(rng.Intn(512), rng.Intn(1024)), QOff: int32(i)}
		}
	}
	refill()
	allocs := testing.AllocsPerRun(10, func() {
		counts = TwoLevelBinWith(hits, coder.DiagBits, 512, 1024, scratch, counts)
	})
	if allocs != 0 {
		t.Errorf("TwoLevelBinWith allocates %.1f objects per sort with warm buffers, want 0", allocs)
	}
	// The count buffer must be sized for the larger of the two passes.
	if len(counts) == 0 || cap(counts) < 1025 {
		t.Errorf("returned counts cap %d, want >= 1025", cap(counts))
	}
}

func TestTwoLevelBinMatchesLSDOnRealisticKeys(t *testing.T) {
	// Realistic block shape: 512 sequences x 1024 diagonals.
	coder, err := hit.NewKeyCoder(512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	n := 20000
	a := make([]hit.Hit, n)
	for i := range a {
		a[i] = hit.Hit{Key: coder.Encode(rng.Intn(512), rng.Intn(1024)), QOff: int32(i)}
	}
	b := append([]hit.Hit(nil), a...)
	LSD(a, coder.KeyBits(), nil)
	TwoLevelBin(b, coder.DiagBits, 512, 1024, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("TwoLevelBin diverges from LSD at %d", i)
		}
	}
}
