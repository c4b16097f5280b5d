// Package fasta provides streaming FASTA reading and writing for protein
// sequences. Records hold raw ASCII residues; encoding to alphabet codes is
// left to the caller so that I/O stays independent of the search pipeline.
package fasta

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
)

// Record is one FASTA entry.
type Record struct {
	ID          string // first whitespace-delimited token of the header
	Description string // remainder of the header, may be empty
	Seq         []byte // residue letters with whitespace removed
}

// Header reconstructs the full header line (without the leading '>').
func (r *Record) Header() string {
	if r.Description == "" {
		return r.ID
	}
	return r.ID + " " + r.Description
}

// Reader reads FASTA records from a stream.
type Reader struct {
	br   *bufio.Reader
	line int
	next []byte // header line carried over from the previous record
	eof  bool
}

// NewReader wraps r for FASTA parsing.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Read returns the next record, or io.EOF when the stream is exhausted.
// Malformed input (sequence data before any header) yields an error with
// the offending line number.
func (r *Reader) Read() (*Record, error) {
	header, err := r.readHeader()
	if err != nil {
		return nil, err
	}
	rec, err := parseHeader(header)
	if err != nil {
		return nil, fmt.Errorf("fasta: line %d: %w", r.line, err)
	}
	var seq []byte
	for {
		line, err := r.readLine()
		if err == io.EOF {
			r.eof = true
			break
		}
		if err != nil {
			return nil, err
		}
		// ASCII whitespace only, the bytes the loop below skips:
		// bytes.TrimSpace would also strip a Unicode space such as U+0085
		// kept inside the sequence, once the writer wraps it to a line edge.
		trimmed := bytes.Trim(line, " \t\n\v\f\r")
		if len(trimmed) == 0 {
			continue
		}
		if trimmed[0] == '>' {
			r.next = append([]byte(nil), trimmed...)
			break
		}
		for _, b := range trimmed {
			if b == ' ' || b == '\t' || b == '\v' || b == '\f' || b == '\r' {
				// Skip every ASCII whitespace byte, not just space and tab:
				// an interior '\v' kept in Seq would be wrapped by the
				// writer onto a line boundary and then trimmed away on
				// re-read, silently changing the record.
				continue
			}
			if b == '>' {
				// '>' is never a residue; embedded in sequence data it
				// would be re-parsed as a header once the writer wraps
				// it onto its own line.
				return nil, fmt.Errorf("fasta: line %d: stray '>' in sequence data", r.line)
			}
			seq = append(seq, b)
		}
	}
	rec.Seq = seq
	return rec, nil
}

func (r *Reader) readHeader() ([]byte, error) {
	if r.next != nil {
		h := r.next
		r.next = nil
		return h, nil
	}
	if r.eof {
		return nil, io.EOF
	}
	for {
		line, err := r.readLine()
		if err != nil {
			return nil, err
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			continue
		}
		if trimmed[0] != '>' {
			return nil, fmt.Errorf("fasta: line %d: sequence data before header", r.line)
		}
		return append([]byte(nil), trimmed...), nil
	}
}

func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadBytes('\n')
	if err != nil && err != io.EOF {
		// ReadBytes can return partial data alongside a real read error;
		// treating that as a complete line would silently truncate the
		// record if the underlying reader later recovers or reports EOF.
		return nil, err
	}
	if len(line) > 0 {
		r.line++
		return line, nil
	}
	return nil, io.EOF
}

func parseHeader(h []byte) (*Record, error) {
	if len(h) == 0 || h[0] != '>' {
		return nil, fmt.Errorf("malformed header %q", h)
	}
	body := strings.TrimSpace(string(h[1:]))
	if body == "" {
		return nil, fmt.Errorf("empty header")
	}
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		return &Record{ID: body[:i], Description: strings.TrimSpace(body[i+1:])}, nil
	}
	return &Record{ID: body}, nil
}

// ReadAll reads every record from r.
func ReadAll(r io.Reader) ([]*Record, error) {
	fr := NewReader(r)
	var out []*Record
	for {
		rec, err := fr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// Writer writes FASTA records with wrapped sequence lines.
type Writer struct {
	bw    *bufio.Writer
	Width int // residues per line; <= 0 means 60
}

// NewWriter wraps w for FASTA output.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w), Width: 60}
}

// Write emits one record.
func (w *Writer) Write(rec *Record) error {
	width := w.Width
	if width <= 0 {
		width = 60
	}
	if _, err := fmt.Fprintf(w.bw, ">%s\n", rec.Header()); err != nil {
		return err
	}
	for i := 0; i < len(rec.Seq); i += width {
		end := i + width
		if end > len(rec.Seq) {
			end = len(rec.Seq)
		}
		if _, err := w.bw.Write(rec.Seq[i:end]); err != nil {
			return err
		}
		if err := w.bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes any buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }
