package alphabet

// W is the BLASTP word length. Protein search uses 3-letter words
// (Section II-A); with a 24-letter alphabet that yields NumWords = 13824
// possible words, each representable as a small integer.
const W = 3

// NumWords is the number of distinct W-letter words: Size^W.
const NumWords = Size * Size * Size

// Word is a packed W-letter word index in [0, NumWords).
// The first residue occupies the most significant digits, so words that
// share a prefix are numerically adjacent — this keeps the database index
// cache-friendly when scanning lexicographically. NumWords fits in 16 bits,
// so a word is 2 bytes wherever it is stored (the neighbor table holds half a
// million of them).
type Word uint16

// PackWord packs residues c0,c1,c2 (in sequence order) into a Word.
func PackWord(c0, c1, c2 Code) Word {
	return Word(uint32(c0)*Size*Size + uint32(c1)*Size + uint32(c2))
}

// WordAt packs the word starting at position i of the encoded sequence.
// The caller must guarantee i+W <= len(seq).
func WordAt(seq []Code, i int) Word {
	return PackWord(seq[i], seq[i+1], seq[i+2])
}

// Unpack returns the residue codes of the word.
func (w Word) Unpack() (c0, c1, c2 Code) {
	v := uint32(w)
	return Code(v / (Size * Size)), Code(v / Size % Size), Code(v % Size)
}

// String renders the word as its three-letter sequence.
func (w Word) String() string {
	c0, c1, c2 := w.Unpack()
	return string([]byte{LetterFor(c0), LetterFor(c1), LetterFor(c2)})
}

// Valid reports whether w is a well-formed word index.
func (w Word) Valid() bool { return w < NumWords }

// Words iterates the overlapping words of an encoded sequence, calling fn
// with each query offset and packed word. Sequences shorter than W yield
// no words. Overlapping words are the paper's Section III requirement for
// matching NCBI-BLAST sensitivity.
func Words(seq []Code, fn func(offset int, w Word)) {
	if len(seq) < W {
		return
	}
	for i := 0; i+W <= len(seq); i++ {
		fn(i, WordAt(seq, i))
	}
}
