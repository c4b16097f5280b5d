package hitsort

import (
	"math/rand"
	"testing"

	"repro/internal/hit"
)

func randomPairs(rng *rand.Rand, n, keyBits int) []hit.Pair {
	mask := uint32(1)<<uint(keyBits) - 1
	if keyBits >= 32 {
		mask = ^uint32(0)
	}
	ps := make([]hit.Pair, n)
	for i := range ps {
		ps[i] = hit.Pair{Key: rng.Uint32() & mask, QOff: int32(i)}
	}
	return ps
}

// TestLSDPairsMatchesGeneric pins the specialized fused-histogram sort to
// the generic LSD across sizes straddling the insertion cutoff and key
// widths straddling every digit-plan boundary. Both sorts are stable, so
// the outputs must be byte-identical, not merely key-ordered.
func TestLSDPairsMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for _, n := range []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 500, 4096} {
		for _, keyBits := range []int{1, 7, maxDigitBits, maxDigitBits + 1, 2 * maxDigitBits, 2*maxDigitBits + 1, 30, 32} {
			in := randomPairs(rng, n, keyBits)
			want := append([]hit.Pair(nil), in...)
			LSD(want, keyBits, nil)
			got := append([]hit.Pair(nil), in...)
			LSDPairs(got, keyBits, nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d keyBits=%d: index %d: %+v vs %+v", n, keyBits, i, got[i], want[i])
				}
			}
		}
	}
}

// FuzzLSDPairsEquivalence fuzzes the specialized pair sort against the
// generic LSD on arbitrary key streams; run under `make fuzz`.
func FuzzLSDPairsEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 16)
	f.Add([]byte{0xFF, 0xFF, 0, 0}, 11)
	f.Fuzz(func(t *testing.T, raw []byte, keyBits int) {
		if keyBits < 1 || keyBits > 32 {
			return
		}
		if len(raw) > 1<<16 {
			return
		}
		mask := ^uint32(0)
		if keyBits < 32 {
			mask = uint32(1)<<uint(keyBits) - 1
		}
		n := len(raw) / 4
		in := make([]hit.Pair, n)
		for i := 0; i < n; i++ {
			k := uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24
			in[i] = hit.Pair{Key: k & mask, QOff: int32(i)}
		}
		want := append([]hit.Pair(nil), in...)
		LSD(want, keyBits, nil)
		got := append([]hit.Pair(nil), in...)
		LSDPairs(got, keyBits, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("keyBits=%d index %d: %+v vs %+v", keyBits, i, got[i], want[i])
			}
		}
	})
}

// BenchmarkDiagonalSort measures the diagonal reorder at a realistic task
// grain: ~19k pairs with ~19-bit (sequence, diagonal) keys is what one
// (block, query) task of the stage-budget workload pushes through the sort.
func BenchmarkDiagonalSort(b *testing.B) {
	const n, keyBits = 19000, 19
	rng := rand.New(rand.NewSource(139))
	src := randomPairs(rng, n, keyBits)
	work := make([]hit.Pair, n)
	scratch := make([]hit.Pair, n)
	b.Run("lsd_pairs", func(b *testing.B) {
		b.SetBytes(int64(n * 8)) // a hit.Pair is 8 bytes
		for i := 0; i < b.N; i++ {
			copy(work, src)
			LSDPairs(work, keyBits, scratch)
		}
	})
	b.Run("generic_lsd", func(b *testing.B) {
		b.SetBytes(int64(n * 8)) // a hit.Pair is 8 bytes
		for i := 0; i < b.N; i++ {
			copy(work, src)
			LSD(work, keyBits, scratch)
		}
	})
}

// TestDiagonalSortZeroAlloc pins the warm-scratch sort at zero allocations
// per call — the per-task reorder must never touch the heap at steady state.
func TestDiagonalSortZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	src := randomPairs(rng, 20000, 19)
	work := make([]hit.Pair, len(src))
	scratch := make([]hit.Pair, len(src))
	if allocs := testing.AllocsPerRun(10, func() {
		copy(work, src)
		LSDPairs(work, 19, scratch)
	}); allocs != 0 {
		t.Errorf("LSDPairs with warm scratch allocates %.1f objects per sort, want 0", allocs)
	}
}
