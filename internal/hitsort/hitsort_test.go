package hitsort

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/hit"
)

// randomHits builds hits with keys confined to keyBits bits and a payload
// that records original position, for stability checks.
func randomHits(rng *rand.Rand, n, keyBits int) []hit.Pair {
	mask := uint32(1)<<uint(keyBits) - 1
	hits := make([]hit.Pair, n)
	for i := range hits {
		hits[i] = hit.Pair{Key: rng.Uint32() & mask, QOff: int32(i)}
	}
	return hits
}

// checkStableSorted verifies key order and stability (QOff increasing within
// equal keys, since QOff was assigned in input order).
func checkStableSorted(t *testing.T, hits []hit.Pair, name string) {
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

// sorters are the sort the engine runs and the generic form kept as its
// oracle.
func sorters() map[string]func([]hit.Pair, int) {
	return map[string]func([]hit.Pair, int){
		"LSD":      func(h []hit.Pair, keyBits int) { LSD(h, keyBits, nil) },
		"LSDPairs": func(h []hit.Pair, keyBits int) { LSDPairs(h, keyBits, nil) },
	}
}

func TestSortersAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, sorter := range sorters() {
		for _, n := range []int{0, 1, 2, 3, 100, 1000, 10000} {
			for _, keyBits := range []int{4, 12, 22, 32} {
				in := randomHits(rng, n, keyBits)
				want := append([]hit.Pair(nil), in...)
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
		hits := make([]hit.Pair, 5000)
		for i := range hits {
			hits[i] = hit.Pair{Key: uint32(rng.Intn(16)), QOff: int32(i)}
		}
		sorter(hits, 4)
		checkStableSorted(t, hits, name)
	}
}

func TestAlreadySorted(t *testing.T) {
	for name, sorter := range sorters() {
		hits := make([]hit.Pair, 1000)
		for i := range hits {
			hits[i] = hit.Pair{Key: uint32(i), QOff: int32(i)}
		}
		sorter(hits, 10)
		checkStableSorted(t, hits, name)
	}
}

func TestReverseSorted(t *testing.T) {
	for name, sorter := range sorters() {
		hits := make([]hit.Pair, 1000)
		for i := range hits {
			hits[i] = hit.Pair{Key: uint32(1000 - i), QOff: int32(i)}
		}
		sorter(hits, 10)
		checkStableSorted(t, hits, name)
	}
}

func TestAllEqualKeys(t *testing.T) {
	for name, sorter := range sorters() {
		hits := make([]hit.Pair, 777)
		for i := range hits {
			hits[i] = hit.Pair{Key: 5, QOff: int32(i)}
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
	scratch := make([]hit.Pair, 10000)
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
	hits := []hit.Pair{{Key: 200}, {Key: 3}, {Key: 100}}
	LSD(hits, 8, nil)
	if !IsSorted(hits) {
		t.Error("8-bit sort failed")
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted([]hit.Pair{{Key: 1}, {Key: 1}, {Key: 2}}) {
		t.Error("sorted slice reported unsorted")
	}
	if IsSorted([]hit.Pair{{Key: 2}, {Key: 1}}) {
		t.Error("unsorted slice reported sorted")
	}
	if !IsSorted([]hit.Pair{}) || !IsSorted([]hit.Pair{{Key: 9}}) {
		t.Error("trivial slices reported unsorted")
	}
}
