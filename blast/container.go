package blast

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/dbase"
	"repro/internal/dbindex"
	"repro/internal/faultinject"
	"repro/internal/search"
)

// fiDBRead injects short reads into container loading (site "db.read"): a
// truncated stream must surface as a typed ErrCorrupt, never a panic or a
// partially populated database.
var fiDBRead = faultinject.NewSite("db.read")

// This file implements the on-disk database container (format version 5).
//
// A saved database is a long-lived, network-shipped artifact, so the
// container is hardened against corruption and parameter drift. It holds the
// sequences and how to index them, not the index: the paper's index is the
// exact-word positions of the database's own residues, which the loader
// builds from the checked sequences with the builder NewDatabase uses, in
// less time than decoding and checking a stored copy took.
//
//	magic   13 bytes  "\x89muBLASTP\r\n\x1a\n" (PNG-style: catches text-mode
//	                  mangling and truncation at a glance)
//	version uint16 LE (currently 5)
//	sections, in fixed order: PRMS, SEQS, ORGN, FEND
//
// Each section is framed as
//
//	tag     4 bytes   ASCII
//	length  uint64 LE payload bytes
//	payload
//	crc32   uint32 LE IEEE CRC of tag+length+payload
//
// PRMS holds the build fingerprint (matrix name, word size W, neighbor
// threshold T, block residues, split parameters) that Load validates against
// the caller's Params. SEQS carries the dbase stream, in ascending length
// order.
// ORGN persists the split-chunk origin table, replacing the old recovery of
// origins by parsing "#<offset>" name suffixes (which misclassified user
// sequences whose names legitimately contain "#<digits>"). FEND is an empty
// trailer section, so truncation anywhere is detectable. Load verifies every
// checksum, that each section is fully consumed, and that nothing follows
// FEND.
//
// Version history: version 1 is the pre-container format (bare
// length-prefixed sections, no magic, no checksums, no fingerprint). Version
// 2 stored an index position as local sequence id and subject offset packed
// into one word; version 3 stored the block coordinate the detection scan
// reads, in 32 bits, with the block's padding where version 2 had its offset
// width; version 4 stores it in 16 bits, in runs, beside a per-(word, page)
// run-length table (see internal/dbindex); version 5 stores no index. All
// older versions are detected and rejected with ErrVersion: there is one
// reader. Any layout change bumps the version; readers reject versions they
// do not know.

// Typed load errors. Callers can distinguish "the artifact is damaged,
// rebuild it" (ErrCorrupt), "the artifact comes from an incompatible
// writer" (ErrVersion), and "operator error: the requested Params do not
// match what the index was built with" (ErrParamsMismatch) via errors.Is.
var (
	ErrCorrupt        = errors.New("database container corrupt")
	ErrVersion        = errors.New("unsupported database container version")
	ErrParamsMismatch = errors.New("params do not match database build fingerprint")
)

const (
	containerMagic   = "\x89muBLASTP\r\n\x1a\n"
	containerVersion = 5
)

// Section tags, in file order.
const (
	secParams = "PRMS"
	secSeqs   = "SEQS"
	secOrigin = "ORGN"
	secEnd    = "FEND"
)

// Per-section payload caps. A flipped bit in a length field must never drive
// an allocation, so every declared length is checked against the cap for its
// section before any decoding starts; the decoders additionally cap each
// internal allocation against the declared section length.
const (
	maxParamsSection = 1 << 16
	maxSeqsSection   = 1 << 38
	maxOriginSection = 1 << 30
)

// Fingerprint identifies how a saved database was built. Load refuses to
// attach an index to Params it was not built for (see Load for the exact
// policy); Verify reports it for operators.
type Fingerprint struct {
	Matrix            string // canonical substitution-matrix name
	WordSize          int    // alphabet.W of the writer
	NeighborThreshold int    // neighbor-word score threshold T
	BlockResidues     int64  // residue cap each index block was built with
	SplitLongerThan   int    // long-sequence split threshold; 0 = splitting disabled
	SplitOverlap      int    // split-chunk overlap; 0 when splitting disabled
}

// ContainerInfo is what Verify reports about a container it fully validated.
type ContainerInfo struct {
	Version       int
	Fingerprint   Fingerprint
	NumSequences  int
	TotalResidues int64
	NumBlocks     int
	NumChunks     int // sequences that are chunks of a split original
}

func corruptf(format string, args ...any) error {
	return fmt.Errorf("blast: %w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

func mismatchf(format string, args ...any) error {
	return fmt.Errorf("blast: %w: %s", ErrParamsMismatch, fmt.Sprintf(format, args...))
}

// Fingerprint returns the build fingerprint this database carries (the same
// one Save persists and Load validates). Shard-coherent serving uses it as
// the handshake token: replicas answering for one logical database must all
// report the fingerprint of one makedb run.
func (d *Database) Fingerprint() Fingerprint { return d.fingerprint() }

// fingerprint captures the database's build parameters for Save.
func (d *Database) fingerprint() Fingerprint {
	return Fingerprint{
		Matrix:            d.cfg.Matrix.Name,
		WordSize:          alphabet.W,
		NeighborThreshold: d.cfg.Neighbors.Threshold,
		BlockResidues:     d.parts[0].ix.BlockResidues,
		SplitLongerThan:   d.splitLen,
		SplitOverlap:      d.splitOverlap,
	}
}

// section is one framed section as Save writes it: its tag, the exact length
// of its payload, and the payload's encoder (nil for an empty payload).
type section struct {
	tag   string
	size  int64
	write func(io.Writer) error
}

// sections lays out the container of a single-part database.
func (d *Database) sections() ([]section, error) {
	if len(d.parts) > 1 {
		return nil, fmt.Errorf("blast: cannot save a tiered (base+deltas) database as one container; compact the store instead")
	}
	p := d.parts[0]
	raw := func(b []byte) func(io.Writer) error {
		return func(w io.Writer) error { _, err := w.Write(b); return err }
	}
	fp, origins := d.fingerprintBytes(), p.originBytes()
	return []section{
		{secParams, int64(len(fp)), raw(fp)},
		{secSeqs, p.db.EncodedSize(), func(w io.Writer) error { _, err := p.db.WriteTo(w); return err }},
		{secOrigin, int64(len(origins)), raw(origins)},
		{secEnd, 0, nil},
	}, nil
}

// containerSize is the exact length of the container writeSections writes.
func containerSize(secs []section) int64 {
	n := int64(len(containerMagic) + 2)
	for _, s := range secs {
		n += 12 + s.size + 4
	}
	return n
}

// Save writes the database (fingerprint, sequences, split origins) as a
// version-5 container, about 1.03 bytes a residue: Load rebuilds the index
// from the sequences and the fingerprint's block size. Every section is
// framed with a length and a CRC32 so Load can prove integrity. A writer with
// a Grow(int) method, such as a bytes.Buffer, is grown to the container's
// exact size first, so it is allocated once instead of doubling its way
// there.
func (d *Database) Save(w io.Writer) error {
	secs, err := d.sections()
	if err != nil {
		return err
	}
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(int(containerSize(secs)))
	}
	return writeSections(w, secs)
}

// crcWriter passes a section's payload to w, folding it into the section's
// running CRC and counting it on the way.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	m, err := c.w.Write(p)
	c.n += int64(m)
	return m, err
}

// writeSections writes the container header and then each section: its
// header from the length computed up front, its payload streamed through the
// running CRC by the section's encoder, and the CRC.
func writeSections(w io.Writer, secs []section) error {
	var hdr [len(containerMagic) + 2]byte
	copy(hdr[:], containerMagic)
	binary.LittleEndian.PutUint16(hdr[len(containerMagic):], containerVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("blast: saving header: %w", err)
	}
	for _, s := range secs {
		var sh [12]byte
		copy(sh[:4], s.tag)
		binary.LittleEndian.PutUint64(sh[4:], uint64(s.size))
		if _, err := w.Write(sh[:]); err != nil {
			return fmt.Errorf("blast: saving %s section: %w", s.tag, err)
		}
		cw := &crcWriter{w: w, crc: crc32.Update(0, crc32.IEEETable, sh[:])}
		if s.write != nil {
			if err := s.write(cw); err != nil {
				return fmt.Errorf("blast: saving %s section: %w", s.tag, err)
			}
		}
		if cw.n != s.size {
			return fmt.Errorf("blast: saving %s section: wrote %d bytes, its header declares %d", s.tag, cw.n, s.size)
		}
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], cw.crc)
		if _, err := w.Write(tail[:]); err != nil {
			return fmt.Errorf("blast: saving %s section: %w", s.tag, err)
		}
	}
	return nil
}

func (d *Database) fingerprintBytes() []byte {
	fp := d.fingerprint()
	out := make([]byte, 0, 64)
	out = binary.AppendUvarint(out, uint64(len(fp.Matrix)))
	out = append(out, fp.Matrix...)
	for _, v := range []int64{
		int64(fp.WordSize), int64(fp.NeighborThreshold), fp.BlockResidues,
		int64(fp.SplitLongerThan), int64(fp.SplitOverlap),
	} {
		out = binary.AppendVarint(out, v)
	}
	return out
}

// originBytes encodes the split-chunk origin table: for every database
// sequence that is a chunk of a split original, its index, the chunk's
// offset in the original, and the original's name.
func (p *part) originBytes() []byte {
	n := 0
	for i := range p.db.Seqs {
		if _, ok := p.chunkOrigin[p.db.Seqs[i].Name]; ok {
			n++
		}
	}
	out := binary.AppendUvarint(nil, uint64(n))
	for i := range p.db.Seqs {
		info, ok := p.chunkOrigin[p.db.Seqs[i].Name]
		if !ok {
			continue
		}
		out = binary.AppendUvarint(out, uint64(i))
		out = binary.AppendUvarint(out, uint64(info.offset))
		out = binary.AppendUvarint(out, uint64(len(info.origName)))
		out = append(out, info.origName...)
	}
	return out
}

// container is a fully decoded and checksum-verified artifact, before any
// Params-dependent wiring. ix is nil until the sequences are indexed (see
// index): Verify never indexes them, Load does once the fingerprint checks
// have passed, and a store indexes each container as it takes it in.
type container struct {
	fp      Fingerprint
	db      *dbase.DB
	ix      *dbindex.Index
	origins map[string]chunkInfo
}

// index builds the container's index from its checked sequences, on threads
// workers (0 means GOMAXPROCS). The index carries no neighbor enumerator:
// openParts gives each part's copy the one it searches with. Sequences that
// cannot be indexed at the fingerprint's block size make the container
// unusable: ErrCorrupt.
func (c *container) index(threads int) error {
	ix, err := buildIndex(c.db, nil, c.fp.BlockResidues, threads)
	if err != nil {
		return corruptf("%v", err)
	}
	c.ix = ix
	return nil
}

// containerDecodes counts loadContainer calls, so tests can pin how many
// containers an operation decodes without timing it.
var containerDecodes atomic.Int64

// sectionReader hands a decoder one section's payload: at most left more
// bytes of r, each folded into the section's running CRC as it passes.
type sectionReader struct {
	r    io.Reader
	left int64
	crc  uint32
}

func (s *sectionReader) Read(p []byte) (int, error) {
	if s.left <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > s.left {
		p = p[:s.left]
	}
	n, err := s.r.Read(p)
	s.left -= int64(n)
	s.crc = crc32.Update(s.crc, crc32.IEEETable, p[:n])
	return n, err
}

// loadContainer decodes and validates a container independent of Params:
// magic, version, every section checksum, full consumption of every
// section, structural bounds of the fingerprint and the decoded database,
// and no trailing bytes after the FEND trailer. Each section is read once, in
// the decoders' chunks, through its running CRC. It builds no index.
func loadContainer(r io.Reader) (*container, error) {
	containerDecodes.Add(1)
	r = fiDBRead.Reader(r)
	head := make([]byte, len(containerMagic)+2)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, corruptf("reading container header: %v", err)
	}
	if !bytes.Equal(head[:len(containerMagic)], []byte(containerMagic)) {
		// The pre-container format starts with an 8-byte section length
		// followed by the dbase magic.
		if bytes.Equal(head[8:13], []byte("MUDB1")) {
			return nil, fmt.Errorf("blast: %w: legacy version-1 database (bare sections, no checksums); rebuild it with makedb", ErrVersion)
		}
		return nil, corruptf("bad magic %q: not a muBLASTP database container", head[:len(containerMagic)])
	}
	if v := binary.LittleEndian.Uint16(head[len(containerMagic):]); v != containerVersion {
		return nil, fmt.Errorf("blast: %w: container version %d (this build reads version %d); rebuild it with makedb", ErrVersion, v, containerVersion)
	}
	c := &container{}
	readSection := func(wantTag string, maxLen int64, decode func(r io.Reader, length int64) error) error {
		var sh [12]byte
		if _, err := io.ReadFull(r, sh[:]); err != nil {
			return corruptf("%s section header: %v", wantTag, err)
		}
		if string(sh[:4]) != wantTag {
			return corruptf("expected %s section, found %q", wantTag, sh[:4])
		}
		length := binary.LittleEndian.Uint64(sh[4:])
		if length > uint64(maxLen) {
			return corruptf("%s section declares %d bytes (cap %d)", wantTag, length, maxLen)
		}
		sr := &sectionReader{r: r, left: int64(length), crc: crc32.Update(0, crc32.IEEETable, sh[:])}
		if decode != nil {
			if err := decode(sr, int64(length)); err != nil {
				if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersion) || errors.Is(err, ErrParamsMismatch) {
					return err
				}
				return corruptf("%s section: %v", wantTag, err)
			}
		}
		// The decoders read their payload to its end; only an empty one
		// (FEND) can leave bytes behind, and its cap is zero.
		if sr.left > 0 {
			return corruptf("%s section: %d trailing bytes after payload", wantTag, sr.left)
		}
		var tail [4]byte
		if _, err := io.ReadFull(r, tail[:]); err != nil {
			return corruptf("%s section checksum: %v", wantTag, err)
		}
		if got, want := binary.LittleEndian.Uint32(tail[:]), sr.crc; got != want {
			return corruptf("%s section checksum mismatch (stored %08x, computed %08x)", wantTag, got, want)
		}
		return nil
	}
	if err := readSection(secParams, maxParamsSection, func(r io.Reader, length int64) error {
		return c.readFingerprint(r, length)
	}); err != nil {
		return nil, err
	}
	if err := readSection(secSeqs, maxSeqsSection, func(r io.Reader, length int64) error {
		db, err := dbase.ReadFromLimit(r, length)
		if err != nil {
			return err
		}
		if !db.IsSortedByLength() {
			return fmt.Errorf("sequences not in ascending length order")
		}
		c.db = db
		return nil
	}); err != nil {
		return nil, err
	}
	if err := readSection(secOrigin, maxOriginSection, func(r io.Reader, length int64) error {
		return c.readOrigins(r, length)
	}); err != nil {
		return nil, err
	}
	if err := readSection(secEnd, 0, nil); err != nil {
		return nil, err
	}
	var one [1]byte
	if _, err := io.ReadFull(r, one[:]); err == nil {
		return nil, corruptf("trailing garbage after %s trailer", secEnd)
	} else if err != io.EOF {
		return nil, corruptf("after %s trailer: %v", secEnd, err)
	}
	return c, nil
}

func (c *container) readFingerprint(r io.Reader, length int64) error {
	data := make([]byte, length)
	if _, err := io.ReadFull(r, data); err != nil {
		return err
	}
	rd := bytes.NewReader(data)
	nameLen, err := binary.ReadUvarint(rd)
	if err != nil {
		return fmt.Errorf("matrix name length: %w", err)
	}
	if nameLen > 256 {
		return fmt.Errorf("implausible matrix name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(rd, name); err != nil {
		return fmt.Errorf("matrix name: %w", err)
	}
	c.fp.Matrix = string(name)
	fields := []struct {
		what string
		dst  *int64
		min  int64
		max  int64
	}{
		{"word size", nil, 1, 8},
		{"neighbor threshold", nil, -(1 << 16), 1 << 16},
		// The floor bounds what indexing the sequences allocates (see
		// dbindex.MinBlockResidues); a builder of this package writes no
		// smaller block size.
		{"block residues", &c.fp.BlockResidues, dbindex.MinBlockResidues, 1 << 50},
		{"split threshold", nil, 0, 1 << 31},
		{"split overlap", nil, 0, 1 << 31},
	}
	ints := []*int{&c.fp.WordSize, &c.fp.NeighborThreshold, nil, &c.fp.SplitLongerThan, &c.fp.SplitOverlap}
	for i, f := range fields {
		v, err := binary.ReadVarint(rd)
		if err != nil {
			return fmt.Errorf("%s: %w", f.what, err)
		}
		if v < f.min || v > f.max {
			return fmt.Errorf("%s %d out of range [%d,%d]", f.what, v, f.min, f.max)
		}
		if f.dst != nil {
			*f.dst = v
		}
		if ints[i] != nil {
			*ints[i] = int(v)
		}
	}
	if rd.Len() != 0 {
		return fmt.Errorf("%d trailing bytes in fingerprint", rd.Len())
	}
	if c.fp.WordSize != alphabet.W {
		return fmt.Errorf("blast: %w: database indexed with word size %d, this build uses %d", ErrVersion, c.fp.WordSize, alphabet.W)
	}
	if c.fp.SplitLongerThan > 0 && c.fp.SplitOverlap >= c.fp.SplitLongerThan {
		return fmt.Errorf("split overlap %d not below split threshold %d", c.fp.SplitOverlap, c.fp.SplitLongerThan)
	}
	return nil
}

func (c *container) readOrigins(r io.Reader, length int64) error {
	data := make([]byte, length)
	if _, err := io.ReadFull(r, data); err != nil {
		return err
	}
	rd := bytes.NewReader(data)
	n, err := binary.ReadUvarint(rd)
	if err != nil {
		return fmt.Errorf("origin count: %w", err)
	}
	if n > uint64(c.db.NumSeqs()) {
		return fmt.Errorf("origin count %d exceeds %d sequences", n, c.db.NumSeqs())
	}
	for i := uint64(0); i < n; i++ {
		seqIdx, err := binary.ReadUvarint(rd)
		if err != nil {
			return fmt.Errorf("origin %d sequence index: %w", i, err)
		}
		if seqIdx >= uint64(c.db.NumSeqs()) {
			return fmt.Errorf("origin %d sequence index %d out of range", i, seqIdx)
		}
		off, err := binary.ReadUvarint(rd)
		if err != nil {
			return fmt.Errorf("origin %d offset: %w", i, err)
		}
		if off > 1<<31 {
			return fmt.Errorf("origin %d implausible offset %d", i, off)
		}
		nameLen, err := binary.ReadUvarint(rd)
		if err != nil {
			return fmt.Errorf("origin %d name length: %w", i, err)
		}
		if nameLen > 1<<20 {
			return fmt.Errorf("origin %d implausible name length %d", i, nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(rd, name); err != nil {
			return fmt.Errorf("origin %d name: %w", i, err)
		}
		if c.origins == nil {
			c.origins = make(map[string]chunkInfo, n)
		}
		c.origins[c.db.Seqs[seqIdx].Name] = chunkInfo{origName: string(name), offset: int(off)}
	}
	if rd.Len() != 0 {
		return fmt.Errorf("%d trailing bytes in origin table", rd.Len())
	}
	return nil
}

// adopt checks the container's build fingerprint against p and the rules
// this build searches by (cfg, p's search configuration), and returns p with
// the build-time fields the container fixes.
func (c *container) adopt(p Params, cfg *search.Config) (Params, error) {
	// Matrix and neighbor threshold determine the neighbors hit detection
	// enumerates; the index stores exact-word positions only, so a drifted
	// threshold silently changes which alignments are found. Strict.
	if cfg.Matrix.Name != c.fp.Matrix {
		return p, mismatchf("matrix %q requested, database built with %q", cfg.Matrix.Name, c.fp.Matrix)
	}
	if t := cfg.Neighbors.Threshold; t != c.fp.NeighborThreshold {
		return p, mismatchf("this build searches with neighbor threshold %d, database built with %d", t, c.fp.NeighborThreshold)
	}
	// Block size and split geometry are frozen at build time; an explicit
	// conflicting request is an operator error, while the zero value means
	// "whatever the database was built with" and adopts the stored values.
	if p.BlockResidues > 0 && p.BlockResidues != c.fp.BlockResidues {
		return p, mismatchf("block residues %d requested, database built with %d", p.BlockResidues, c.fp.BlockResidues)
	}
	p.BlockResidues = c.fp.BlockResidues
	if p.SplitLongerThan != 0 {
		el, eo := effectiveSplit(p)
		if el != c.fp.SplitLongerThan || eo != c.fp.SplitOverlap {
			return p, mismatchf("split parameters %d/%d requested, database built with %d/%d",
				el, eo, c.fp.SplitLongerThan, c.fp.SplitOverlap)
		}
	}
	if c.fp.SplitLongerThan > 0 {
		p.SplitLongerThan, p.SplitOverlap = c.fp.SplitLongerThan, c.fp.SplitOverlap
	} else {
		p.SplitLongerThan, p.SplitOverlap = -1, 0
	}
	return p, nil
}

// openParts wires decoded containers — a base and the deltas layered on it,
// in order, or one container alone — to the caller's Params as one Database.
// A container Load decoded is indexed here, once every fingerprint check has
// passed, on p.Threads; a store's containers are indexed already, and they
// are shared and never written: every part gets a fresh id map and engine,
// and its own copy of the index header to carry the neighbor enumerator: a
// few words and the index's word set (2.3 KB) a part.
func openParts(p Params, cs []*container) (*Database, error) {
	cfg, err := buildConfig(p)
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		if p, err = c.adopt(p, cfg); err != nil {
			return nil, err
		}
	}
	for _, c := range cs {
		if c.ix == nil {
			if err := c.index(p.Threads); err != nil {
				return nil, err
			}
		}
	}
	base := cs[0]
	d := &Database{params: p, cfg: cfg, parts: make([]*part, len(cs)),
		splitLen: base.fp.SplitLongerThan, splitOverlap: base.fp.SplitOverlap}
	var order [][]int
	if len(cs) > 1 {
		// Every container is in ascending length order, and a from-scratch
		// rebuild stable-sorts base input followed by each delta batch — so
		// the stable multi-way merge of the parts reproduces the rebuild's id
		// space with no stored mapping.
		dbs := make([]*dbase.DB, len(cs))
		for i, c := range cs {
			dbs[i] = c.db
		}
		order = dbase.MergeOrder(dbs)
	}
	for i, c := range cs {
		ix := *c.ix
		ix.Neighbors = cfg.Neighbors
		d.parts[i] = &part{db: c.db, ix: &ix, chunkOrigin: c.origins, mu: core.New(cfg, &ix)}
		if order != nil {
			d.parts[i].idMap = order[i]
		}
	}
	return d, nil
}

// Load reads a database written by Save. The Params must be compatible with
// the build fingerprint stored in the container: Matrix must equal what the
// index was built with, and BlockResidues / SplitLongerThan / SplitOverlap
// must either be left at their zero values (adopting the stored ones) or
// match them. The container's neighbor threshold must be this build's T. The
// index is built from the sequences, after every check has passed, on
// p.Threads workers. Failures are typed: errors.Is(err, ErrCorrupt) means
// the artifact is damaged and must be rebuilt, ErrVersion means it was
// written by an incompatible version, and ErrParamsMismatch means the request
// disagrees with the fingerprint.
func Load(r io.Reader, p Params) (*Database, error) {
	c, err := loadContainer(r)
	if err != nil {
		return nil, err
	}
	return openParts(p, []*container{c})
}

// Verify fully validates a container — header, version, every checksum,
// complete decode of all sections, no trailing bytes — without indexing it,
// and reports what it holds; NumBlocks is the blocks its sequences fill at
// the fingerprint's block size. This is what `mublastp -verifydb` runs.
func Verify(r io.Reader) (*ContainerInfo, error) {
	c, err := loadContainer(r)
	if err != nil {
		return nil, err
	}
	return &ContainerInfo{
		Version:       containerVersion,
		Fingerprint:   c.fp,
		NumSequences:  c.db.NumSeqs(),
		TotalResidues: c.db.TotalResidues,
		NumBlocks:     len(c.db.Blocks(c.fp.BlockResidues)),
		NumChunks:     len(c.origins),
	}, nil
}

// SaveFile, LoadFile, and VerifyFile are file-path conveniences.
func (d *Database) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a database written by SaveFile.
func LoadFile(path string, p Params) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, p)
}

// VerifyFile validates a database file written by SaveFile.
func VerifyFile(path string) (*ContainerInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Verify(f)
}
