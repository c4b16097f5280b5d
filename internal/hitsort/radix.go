// The concrete radix sort for the hot record, the 8-byte hit.Pair: the sort
// the engine runs. The generic LSD in hitsort.go is its oracle and nothing
// more, because Go generics reach SortKey through a gcshape dictionary — an
// indirect call per record per pass — and it always runs ceil(keyBits/8)
// fixed 8-bit passes. The specialized sort here reads the key field directly,
// builds every pass's histogram in one fused counting scan, and picks digit
// widths from keyBits (one pass up to 11 bits, two passes up to 22, three up
// to 32) so the typical 15–20-bit (sequence, diagonal) key needs two scatter
// passes instead of three. Small inputs fall back to stable insertion sort,
// which beats clearing histograms for the many (block, query) tasks whose pair
// buffers hold a few dozen records.
//
// All variants are stable, so for any input they produce byte-identical
// output to the generic LSD (pinned by the equivalence tests and fuzz
// targets in radix_test.go). Keys must fit in keyBits bits — the KeyCoder
// contract; wider stray bits are ignored rather than read out of range.
package hitsort

import "repro/internal/hit"

// radixCutoff is the size below which insertion sort wins over clearing and
// filling histogram arrays.
const radixCutoff = 64

// maxDigitBits caps one pass's digit width; 2048-entry count arrays still
// live comfortably on the stack.
const maxDigitBits = 11

// radixPlan splits keyBits into up to three digit widths, low digit first.
// Width 0 means the pass is unused.
func radixPlan(keyBits int) (w0, w1, w2 int) {
	switch {
	case keyBits <= maxDigitBits:
		return keyBits, 0, 0
	case keyBits <= 2*maxDigitBits:
		return (keyBits + 1) / 2, keyBits - (keyBits+1)/2, 0
	default:
		w0 = (keyBits + 2) / 3
		w1 = (keyBits - w0 + 1) / 2
		return w0, w1, keyBits - w0 - w1
	}
}

// LSDPairs sorts pairs stably by key, equivalent to LSD[hit.Pair] for keys
// that fit in keyBits (<= 0 or > 32 means the full 32 bits). The scratch slice is reused if large enough; the
// sorted result always lands in items.
func LSDPairs(items []hit.Pair, keyBits int, scratch []hit.Pair) {
	n := len(items)
	if n < 2 {
		return
	}
	if keyBits <= 0 || keyBits > 32 {
		keyBits = 32
	}
	if n <= radixCutoff {
		insertionPairs(items)
		return
	}
	if cap(scratch) < n {
		scratch = make([]hit.Pair, n)
	}
	scratch = scratch[:n]
	w0, w1, w2 := radixPlan(keyBits)
	var counts [3][1 << maxDigitBits]int32

	// Fused histogramming: one scan fills every pass's counts.
	m0 := uint32(1)<<w0 - 1
	m1 := uint32(1)<<w1 - 1
	m2 := uint32(1)<<w2 - 1
	for i := range items {
		k := items[i].Key
		counts[0][k&m0]++
		counts[1][(k>>w0)&m1]++
		counts[2][(k>>(w0+w1))&m2]++
	}

	src, dst := items, scratch
	for p, pass := range [3]struct {
		shift int
		mask  uint32
		width int
	}{{0, m0, w0}, {w0, m1, w1}, {w0 + w1, m2, w2}} {
		if pass.width == 0 {
			continue
		}
		c := counts[p][:uint32(1)<<pass.width]
		// Skip passes where every key shares the digit.
		if c[(src[0].Key>>pass.shift)&pass.mask] == int32(n) {
			continue
		}
		sum := int32(0)
		for d := range c {
			v := c[d]
			c[d] = sum
			sum += v
		}
		for i := range src {
			d := (src[i].Key >> pass.shift) & pass.mask
			dst[c[d]] = src[i]
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &items[0] {
		copy(items, src)
	}
}

// insertionPairs is stable binary-free insertion sort on the concrete type.
func insertionPairs(items []hit.Pair) {
	for i := 1; i < len(items); i++ {
		v := items[i]
		j := i - 1
		for j >= 0 && items[j].Key > v.Key {
			items[j+1] = items[j]
			j--
		}
		items[j+1] = v
	}
}
