package hit

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKeyCoderRoundTrip(t *testing.T) {
	k, err := NewKeyCoder(1000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	check := func(seq, diag uint16) bool {
		s := int(seq) % 1000
		d := int(diag) % 4096
		gotSeq, gotDiag := k.Decode(k.Encode(s, d))
		return gotSeq == s && gotDiag == d
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyOrderingIsSeqMajor(t *testing.T) {
	k, err := NewKeyCoder(100, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Sorting keys numerically must order by sequence first, then diagonal.
	if k.Encode(1, 0) <= k.Encode(0, 255) {
		t.Error("key for (1,0) not greater than (0,255)")
	}
	if k.Encode(5, 10) >= k.Encode(5, 11) {
		t.Error("diagonal ordering broken within a sequence")
	}
}

func TestNewKeyCoderRejectsOverflow(t *testing.T) {
	if _, err := NewKeyCoder(1<<20, 1<<20); err == nil {
		t.Error("accepted 40-bit key space")
	}
	if _, err := NewKeyCoder(0, 10); err == nil {
		t.Error("accepted zero sequences")
	}
	if _, err := NewKeyCoder(10, 0); err == nil {
		t.Error("accepted zero diagonals")
	}
}

func TestEncodeChecked(t *testing.T) {
	k, _ := NewKeyCoder(10, 100)
	if _, err := k.EncodeChecked(10, 0); err == nil {
		t.Error("accepted out-of-range sequence")
	}
	if _, err := k.EncodeChecked(0, 100); err == nil {
		t.Error("accepted out-of-range diagonal")
	}
	got, err := k.EncodeChecked(9, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got != k.Encode(9, 99) {
		t.Error("EncodeChecked disagrees with Encode")
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {256, 8}, {257, 9}, {4096, 12},
	}
	for _, c := range cases {
		if got := bitsFor(c.n); got != c.want {
			t.Errorf("bitsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestKeyBits(t *testing.T) {
	k, _ := NewKeyCoder(1000, 4096) // 10 + 12 bits
	if k.KeyBits() != 22 {
		t.Errorf("KeyBits = %d, want 22", k.KeyBits())
	}
}

func TestTightKeySpaceFits(t *testing.T) {
	// 16 bits + 16 bits exactly fills the key.
	k, err := NewKeyCoder(1<<16, 1<<16)
	if err != nil {
		t.Fatalf("exact 32-bit key space rejected: %v", err)
	}
	s, d := k.Decode(k.Encode(65535, 65535))
	if s != 65535 || d != 65535 {
		t.Error("corner round trip failed")
	}
}

func TestSortKeyAccessors(t *testing.T) {
	p := Pair{Key: 43, QOff: 8}
	if p.SortKey() != 43 {
		t.Error("Pair.SortKey")
	}
}

// TestPairRecord pins the pair record at 8 bytes — the key and one packed
// word — and the packing: offset and distance come back out of it at the
// ends of their ranges.
func TestPairRecord(t *testing.T) {
	if n := unsafe.Sizeof(Pair{}); n != 8 {
		t.Fatalf("hit.Pair is %d bytes, want 8", n)
	}
	for _, c := range []struct{ off, dist int32 }{
		{0, 0}, {1, 3}, {1<<OffBits - 1, 39}, {12345, MaxWindow - 1}, {1<<OffBits - 1, MaxWindow - 1},
	} {
		p := NewPair(77, c.off, c.dist)
		if p.Key != 77 || p.Off() != c.off || p.Dist() != c.dist {
			t.Errorf("NewPair(77, %d, %d) reads back key %d offset %d distance %d", c.off, c.dist, p.Key, p.Off(), p.Dist())
		}
	}
}
