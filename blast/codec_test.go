package blast

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/iotest"
	"unsafe"

	"repro/internal/alphabet"
	"repro/internal/seqgen"
)

// pinnedDatabase is the container the format pin hashes: 300 uniprot-profile
// sequences of seqgen seed 2024 named by nameFor, blocks of 16384 residues,
// sequences longer than 400 residues split with an overlap of 64 (so the ORGN
// section is not empty), every other parameter at DefaultParams.
func pinnedDatabase(t testing.TB) *Database {
	t.Helper()
	g := seqgen.New(seqgen.UniprotProfile(), 2024)
	raw := g.Database(300)
	seqs := make([]Sequence, len(raw))
	for i, s := range raw {
		seqs[i] = Sequence{Name: nameFor(i), Residues: alphabet.String(s)}
	}
	p := DefaultParams()
	p.BlockResidues = 16384
	p.SplitLongerThan = 400
	p.SplitOverlap = 64
	db, err := NewDatabase(seqs, p)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// pinnedContainerSHA256 is the SHA-256 of pinnedDatabase's version-5
// container. A codec change that moves one byte fails here; a deliberate
// format change bumps containerVersion and this hash together.
const pinnedContainerSHA256 = "47b73bd8fdb63e387bbc5a620162167bc34fa897d53f563f45de64086515c57f"

func TestContainerFormatPinned(t *testing.T) {
	sum := sha256.Sum256(saved(t, pinnedDatabase(t)))
	if got := hex.EncodeToString(sum[:]); got != pinnedContainerSHA256 {
		t.Fatalf("container SHA-256 %s, want %s: the version-5 byte format moved", got, pinnedContainerSHA256)
	}
}

// TestLoadSaveByteIdentity: a container loaded and saved again is the same
// bytes — for a plain database, for every shard of a shard set, and for every
// container of an ingest store (base and deltas).
func TestLoadSaveByteIdentity(t *testing.T) {
	roundTrip := func(label string, art []byte, p Params) {
		t.Helper()
		loaded, err := Load(bytes.NewReader(art), p)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if again := saved(t, loaded); !bytes.Equal(again, art) {
			t.Fatalf("%s: Load then Save wrote %d bytes that differ from the %d loaded", label, len(again), len(art))
		}
	}
	db := pinnedDatabase(t)
	roundTrip("plain", saved(t, db), db.params)
	shards, err := db.Shards(3)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range shards {
		roundTrip(fmt.Sprintf("shard %d", i), saved(t, sh), sh.params)
	}
	dir, st, _, _, _ := storeFixture(t)
	for _, e := range st.man.entries() {
		art, err := os.ReadFile(filepath.Join(dir, e.Name))
		if err != nil {
			t.Fatal(err)
		}
		roundTrip("store "+e.Name, art, storeParams())
	}
}

// TestLoadThroughAwkwardReaders: a reader that returns one byte per call, one
// that returns half of what is asked, and one that returns its last bytes
// together with io.EOF all decode to the same database as a plain reader.
func TestLoadThroughAwkwardReaders(t *testing.T) {
	db := pinnedDatabase(t)
	art := saved(t, db)
	for _, tc := range []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"OneByteReader", iotest.OneByteReader},
		{"HalfReader", iotest.HalfReader},
		{"DataErrReader", iotest.DataErrReader},
	} {
		loaded, err := Load(tc.wrap(bytes.NewReader(art)), db.params)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(saved(t, loaded), art) {
			t.Fatalf("%s: decoded a different database", tc.name)
		}
		if _, err := Verify(tc.wrap(bytes.NewReader(art))); err != nil {
			t.Fatalf("%s: Verify: %v", tc.name, err)
		}
	}
}

// TestTruncationAtSectionBoundaries cuts a small container at every section
// boundary — after the header, after each section's header, payload and
// checksum — and requires ErrCorrupt every time.
func TestTruncationAtSectionBoundaries(t *testing.T) {
	p := DefaultParams()
	p.BlockResidues = 4096
	db, _ := smallDatabase(t, p)
	art := saved(t, db)
	cuts := []int{len(containerMagic) + 2}
	for off := cuts[0]; off < len(art); {
		length := int(binary.LittleEndian.Uint64(art[off+4:]))
		cuts = append(cuts, off+12, off+12+length, off+12+length+4)
		off += 12 + length + 4
	}
	if last := cuts[len(cuts)-1]; last != len(art) {
		t.Fatalf("section walk ends at %d of %d bytes", last, len(art))
	}
	for _, n := range cuts[:len(cuts)-1] {
		if _, err := Load(bytes.NewReader(art[:n]), p); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncated at byte %d of %d: got %v, want ErrCorrupt", n, len(art), err)
		}
	}
}

// allocDatabase is a 1 000 000-residue database in the benchmarks' block
// size, large enough that a fixed 64 KiB chunk is small beside its container
// of about 1.03 bytes a residue.
func allocDatabase(t *testing.T) *Database {
	t.Helper()
	g := seqgen.New(seqgen.UniprotProfile(), 17)
	var seqs []Sequence
	for total := 0; total < 1_000_000; {
		for _, s := range g.Database(64) {
			seqs = append(seqs, Sequence{Name: nameFor(len(seqs)), Residues: alphabet.String(s)})
			total += len(s)
		}
	}
	p := DefaultParams()
	p.BlockResidues = 128 << 10
	db, err := NewDatabase(seqs, p)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// allocatedBytes is the fewest bytes f allocated over three calls.
func allocatedBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// decodedBytes is the size of the structures a loaded single-part database
// holds: the sequence table, names and residues, and the index as
// dbindex.BlockIndex.SizeBytes counts each block.
func decodedBytes(d *Database) uint64 {
	p := d.parts[0]
	n := uint64(cap(p.db.Seqs)) * uint64(unsafe.Sizeof(p.db.Seqs[0]))
	for i := range p.db.Seqs {
		n += uint64(len(p.db.Seqs[i].Name) + cap(p.db.Seqs[i].Data))
	}
	for _, b := range p.ix.Blocks {
		n += uint64(unsafe.Sizeof(*b)) + uint64(b.SizeBytes())
	}
	return n + uint64(unsafe.Sizeof(*p.ix))
}

// TestContainerAllocationCeilings: Save into io.Discard allocates less than a
// tenth of what it writes (no section is staged whole), and Load allocates at
// most 1.15 times the structures it returns (no section is copied twice, and
// the index build leaves little behind).
func TestContainerAllocationCeilings(t *testing.T) {
	db := allocDatabase(t)
	art := saved(t, db)
	if got := allocatedBytes(func() { _ = db.Save(io.Discard) }); got >= uint64(len(art))/10 {
		t.Errorf("Save allocated %d bytes writing %d, want under a tenth", got, len(art))
	}
	loaded, err := Load(bytes.NewReader(art), db.params)
	if err != nil {
		t.Fatal(err)
	}
	want := decodedBytes(loaded)
	got := allocatedBytes(func() {
		if _, err := Load(bytes.NewReader(art), db.params); err != nil {
			t.Error(err)
		}
	})
	if float64(got) > 1.15*float64(want) {
		t.Errorf("Load allocated %d bytes for %d bytes of decoded structures (%.3fx), want at most 1.15x", got, want, float64(got)/float64(want))
	}
	t.Logf("container %d bytes; Load allocated %d for %d decoded (%.3fx)", len(art), got, want, float64(got)/float64(want))
}

// reallocWatch is a bytes.Buffer that counts how often its storage moves,
// through Grow or Write.
type reallocWatch struct {
	buf      bytes.Buffer
	reallocs int
}

func (r *reallocWatch) watch(op func()) {
	before := r.buf.Cap()
	op()
	if r.buf.Cap() != before {
		r.reallocs++
	}
}

func (r *reallocWatch) Grow(n int) { r.watch(func() { r.buf.Grow(n) }) }

func (r *reallocWatch) Write(p []byte) (n int, err error) {
	r.watch(func() { n, err = r.buf.Write(p) })
	return n, err
}

// TestSaveGrowsBufferOnce: Save into an empty in-memory writer with a Grow
// method reserves the container's exact size up front, so the buffer is
// allocated once and not doubled its way there.
func TestSaveGrowsBufferOnce(t *testing.T) {
	db := allocDatabase(t)
	var w reallocWatch
	if err := db.Save(&w); err != nil {
		t.Fatal(err)
	}
	if want := saved(t, db); !bytes.Equal(w.buf.Bytes(), want) {
		t.Fatalf("Save through a Grow writer wrote %d bytes that differ from the %d of a plain save", w.buf.Len(), len(want))
	}
	if w.reallocs != 1 {
		t.Fatalf("saving %d bytes moved the buffer %d times, want 1", w.buf.Len(), w.reallocs)
	}
}
