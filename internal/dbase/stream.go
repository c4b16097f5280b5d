package dbase

import (
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
)

// The sequence stream a database container carries moves its bytes in
// chunks: a streamWriter encodes fields into one chunk and hands it to the
// underlying writer when it fills, a streamReader refills one chunk from the
// underlying reader and decodes fields out of it. Either way the underlying
// reader or writer sees one call per chunk, whatever the field sizes, and
// nothing stages a whole stream.

// chunkSize is the unit both sides move: a few dozen calls for a
// database-sized stream, and small enough to stay in L2 while it is decoded.
const chunkSize = 64 << 10

// uvarintLen returns the number of bytes binary.AppendUvarint writes for v,
// so that a stream's exact length can be known before it is written.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// streamWriter encodes a stream in chunks. Errors are sticky and reported by
// Flush.
type streamWriter struct {
	w   io.Writer
	buf []byte
	n   int64 // bytes handed to w
	err error
}

// newStreamWriter returns a writer that encodes into w.
func newStreamWriter(w io.Writer) *streamWriter { return &streamWriter{w: w} }

// room makes the chunk hold k more bytes, handing it to w first if it cannot.
func (s *streamWriter) room(k int) {
	if s.buf == nil {
		s.buf = make([]byte, 0, chunkSize)
	}
	if cap(s.buf)-len(s.buf) < k {
		s.flush()
	}
}

func (s *streamWriter) flush() {
	if s.err == nil && len(s.buf) > 0 {
		var m int
		m, s.err = s.w.Write(s.buf)
		s.n += int64(m)
	}
	s.buf = s.buf[:0]
}

// Uvarint encodes v as an unsigned varint.
func (s *streamWriter) Uvarint(v uint64) {
	s.room(binary.MaxVarintLen64)
	s.buf = binary.AppendUvarint(s.buf, v)
}

// Bytes encodes p as it is.
func (s *streamWriter) Bytes(p []byte) { put(s, p) }

// String encodes the bytes of p as they are.
func (s *streamWriter) String(p string) { put(s, p) }

func put[T []byte | string](s *streamWriter, p T) {
	for len(p) > 0 {
		s.room(1)
		k := copy(s.buf[len(s.buf):cap(s.buf)], p)
		s.buf, p = s.buf[:len(s.buf)+k], p[k:]
	}
}

// Flush hands the last chunk to w and reports the bytes written and the
// first error.
func (s *streamWriter) Flush() (int64, error) {
	s.flush()
	return s.n, s.err
}

// errTrailing is what streamReader.End reports when the stream goes on past
// its last field.
var errTrailing = errors.New("trailing bytes")

// streamReader decodes a stream in chunks. The views Next returns are the
// reader's and valid until its next call.
type streamReader struct {
	r   io.Reader
	buf []byte // buf[off:] is read and not yet decoded
	off int
	err error // sticky: io.EOF once the stream has ended
}

// newStreamReader returns a reader that decodes r, a stream of at most
// maxBytes bytes (which bounds its chunk).
func newStreamReader(r io.Reader, maxBytes int64) *streamReader {
	return &streamReader{r: r, buf: make([]byte, 0, max(min(maxBytes, chunkSize), binary.MaxVarintLen64))}
}

// fill reads until at least k bytes are buffered or the stream ends, moving
// the unread bytes to the front of the chunk (and growing it if k exceeds it).
func (s *streamReader) fill(k int) {
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
func (s *streamReader) short() error {
	if s.err == nil || s.err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return s.err
}

// Next returns the next n bytes of the stream, growing the chunk if it is
// shorter than n (callers bound n by the stream's length).
func (s *streamReader) Next(n int) ([]byte, error) {
	if len(s.buf)-s.off < n {
		if s.fill(n); len(s.buf)-s.off < n {
			return nil, s.short()
		}
	}
	s.off += n
	return s.buf[s.off-n : s.off], nil
}

// Uvarint decodes an unsigned varint.
func (s *streamReader) Uvarint() (uint64, error) {
	if s.off < len(s.buf) && s.buf[s.off] < 0x80 { // one byte: most lengths and offset deltas
		s.off++
		return uint64(s.buf[s.off-1]), nil
	}
	return s.uvarint()
}

func (s *streamReader) uvarint() (uint64, error) {
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
func (s *streamReader) End() error {
	s.fill(1)
	if s.off < len(s.buf) {
		return errTrailing
	}
	if s.err != io.EOF {
		return s.err
	}
	return nil
}
