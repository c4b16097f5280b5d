// Package hitsort implements the hit reordering of Section IV-B: a stable
// LSD radix sort on the packed (sequence, diagonal) key. LSDPairs (radix.go)
// is the sort the engine runs; the generic LSD here is its oracle. The
// alternatives the paper weighs it against (MSD radix sort, merge sort, and
// the earlier prototype's two-level binning of Section VI) were measured once
// and deleted; the sorter and prefilter ablation table in EXPERIMENTS.md
// holds the numbers. The sort must be stable because hit detection emits
// pairs in query-offset order and the extension stage's cover test depends on
// that order being preserved within each (sequence, diagonal) group.
package hitsort

// Keyed is any record sortable by a packed 32-bit radix key.
type Keyed interface {
	SortKey() uint32
}

// LSD sorts items stably by key using least-significant-digit radix sort
// with 8-bit digits, skipping passes above keyBits. keyBits <= 0 sorts the
// full 32 bits. The scratch slice is reused if large enough, and the sorted
// result is always left in items.
func LSD[T Keyed](items []T, keyBits int, scratch []T) {
	if len(items) < 2 {
		return
	}
	if keyBits <= 0 || keyBits > 32 {
		keyBits = 32
	}
	passes := (keyBits + 7) / 8
	if cap(scratch) < len(items) {
		scratch = make([]T, len(items))
	}
	scratch = scratch[:len(items)]
	src, dst := items, scratch
	for pass := 0; pass < passes; pass++ {
		shift := uint(pass * 8)
		var counts [256]int
		for i := range src {
			counts[(src[i].SortKey()>>shift)&0xFF]++
		}
		// Skip passes where all keys share the digit (common for the top
		// digits of narrow keys).
		if counts[(src[0].SortKey()>>shift)&0xFF] == len(src) {
			continue
		}
		sum := 0
		for d := 0; d < 256; d++ {
			c := counts[d]
			counts[d] = sum
			sum += c
		}
		for i := range src {
			d := (src[i].SortKey() >> shift) & 0xFF
			dst[counts[d]] = src[i]
			counts[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &items[0] {
		copy(items, src)
	}
}

// IsSorted reports whether items are in non-decreasing key order.
func IsSorted[T Keyed](items []T) bool {
	for i := 1; i < len(items); i++ {
		if items[i].SortKey() < items[i-1].SortKey() {
			return false
		}
	}
	return true
}
