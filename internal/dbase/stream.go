package dbase

import (
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
)

// The two serialized streams a database container carries, this package's
// sequences and internal/dbindex's index, move their bytes in chunks: a
// StreamWriter encodes fields into one chunk and hands it to the underlying
// writer when it fills, a StreamReader refills one chunk from the underlying
// reader and decodes fields out of it. Either way the underlying reader or
// writer sees one call per chunk, whatever the field sizes, and nothing stages
// a whole stream.

// chunkSize is the unit both sides move: a few dozen calls for a
// database-sized stream, and small enough to stay in L2 while it is decoded.
const chunkSize = 64 << 10

// UvarintLen returns the number of bytes binary.AppendUvarint writes for v,
// so that a stream's exact length can be known before it is written.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// StreamWriter encodes a stream in chunks. Errors are sticky and reported by
// Flush.
type StreamWriter struct {
	w   io.Writer
	buf []byte
	n   int64 // bytes handed to w
	err error
}

// NewStreamWriter returns a writer that encodes into w.
func NewStreamWriter(w io.Writer) *StreamWriter { return &StreamWriter{w: w} }

// room makes the chunk hold k more bytes, handing it to w first if it cannot.
func (s *StreamWriter) room(k int) {
	if s.buf == nil {
		s.buf = make([]byte, 0, chunkSize)
	}
	if cap(s.buf)-len(s.buf) < k {
		s.flush()
	}
}

func (s *StreamWriter) flush() {
	if s.err == nil && len(s.buf) > 0 {
		var m int
		m, s.err = s.w.Write(s.buf)
		s.n += int64(m)
	}
	s.buf = s.buf[:0]
}

// Uvarint encodes v as an unsigned varint.
func (s *StreamWriter) Uvarint(v uint64) {
	s.room(binary.MaxVarintLen64)
	s.buf = binary.AppendUvarint(s.buf, v)
}

// Uint64 encodes v as 8 little-endian bytes.
func (s *StreamWriter) Uint64(v uint64) {
	s.room(8)
	s.buf = binary.LittleEndian.AppendUint64(s.buf, v)
}

// Bytes encodes p as it is.
func (s *StreamWriter) Bytes(p []byte) { put(s, p) }

// String encodes the bytes of p as they are.
func (s *StreamWriter) String(p string) { put(s, p) }

func put[T []byte | string](s *StreamWriter, p T) {
	for len(p) > 0 {
		s.room(1)
		k := copy(s.buf[len(s.buf):cap(s.buf)], p)
		s.buf, p = s.buf[:len(s.buf)+k], p[k:]
	}
}

// Uint16s encodes v as little-endian 16-bit halfwords, a chunk at a time.
func (s *StreamWriter) Uint16s(v []uint16) {
	for len(v) > 0 {
		s.room(2)
		n := min(len(v), (cap(s.buf)-len(s.buf))/2)
		out := s.buf[len(s.buf) : len(s.buf)+2*n]
		for i, x := range v[:n] {
			binary.LittleEndian.PutUint16(out[2*i:], x)
		}
		s.buf, v = s.buf[:len(s.buf)+2*n], v[n:]
	}
}

// Flush hands the last chunk to w and reports the bytes written and the
// first error.
func (s *StreamWriter) Flush() (int64, error) {
	s.flush()
	return s.n, s.err
}

// errTrailing is what StreamReader.End reports when the stream goes on past
// its last field.
var errTrailing = errors.New("trailing bytes")

// StreamReader decodes a stream in chunks. The views Next and Words return
// are the reader's and valid until its next call.
type StreamReader struct {
	r   io.Reader
	buf []byte // buf[off:] is read and not yet decoded
	off int
	err error // sticky: io.EOF once the stream has ended
}

// NewStreamReader returns a reader that decodes r, a stream of at most
// maxBytes bytes (which bounds its chunk).
func NewStreamReader(r io.Reader, maxBytes int64) *StreamReader {
	return &StreamReader{r: r, buf: make([]byte, 0, max(min(maxBytes, chunkSize), binary.MaxVarintLen64))}
}

// fill reads until at least k bytes are buffered or the stream ends, moving
// the unread bytes to the front of the chunk (and growing it if k exceeds it).
func (s *StreamReader) fill(k int) {
	have := len(s.buf) - s.off
	if have >= k || s.err != nil {
		return
	}
	if k > cap(s.buf) {
		grown := make([]byte, have, k)
		copy(grown, s.buf[s.off:])
		s.buf = grown
	} else {
		s.buf = s.buf[:copy(s.buf, s.buf[s.off:])]
	}
	s.off = 0
	n, err := io.ReadAtLeast(s.r, s.buf[have:cap(s.buf)], k-have)
	s.buf = s.buf[:have+n]
	if err == io.ErrUnexpectedEOF {
		err = io.EOF
	}
	s.err = err
}

// short is the error for a field the stream ended (or failed) before.
func (s *StreamReader) short() error {
	if s.err == nil || s.err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return s.err
}

// Next returns the next n bytes of the stream, growing the chunk if it is
// shorter than n (callers bound n by the stream's length).
func (s *StreamReader) Next(n int) ([]byte, error) {
	if len(s.buf)-s.off < n {
		if s.fill(n); len(s.buf)-s.off < n {
			return nil, s.short()
		}
	}
	s.off += n
	return s.buf[s.off-n : s.off], nil
}

// Uvarint decodes an unsigned varint.
func (s *StreamReader) Uvarint() (uint64, error) {
	if s.off < len(s.buf) && s.buf[s.off] < 0x80 { // one byte: most lengths and offset deltas
		s.off++
		return uint64(s.buf[s.off-1]), nil
	}
	return s.uvarint()
}

func (s *StreamReader) uvarint() (uint64, error) {
	s.fill(binary.MaxVarintLen64)
	v, n := binary.Uvarint(s.buf[s.off:])
	if n > 0 {
		s.off += n
		return v, nil
	}
	if n < 0 {
		return 0, errors.New("varint overflows 64 bits")
	}
	return 0, s.short()
}

// End reports whether the stream ends here: nil if it does, errTrailing if it
// goes on, or the error that reading it failed with.
func (s *StreamReader) End() error {
	s.fill(1)
	if s.off < len(s.buf) {
		return errTrailing
	}
	if s.err != io.EOF {
		return s.err
	}
	return nil
}
