package blast

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/faultinject"
)

// This file implements the ingest store's manifest: the single small file
// naming the container set that *is* the database. The base container and
// every delta are immutable once written — growth always writes new files —
// so the manifest swap (write temp, fsync, rename, fsync directory) is the
// only mutation the store ever performs in place, and the visible database
// state moves atomically from one consistent set to the next. Files present
// on disk but not named by the current manifest are orphans from an
// interrupted commit; recovery garbage-collects them.

// Typed store errors, in the spirit of the container's ErrCorrupt family:
// ErrNoStore means the directory is not an ingest store at all (no
// manifest); ErrStoreCorrupt means the store is damaged in a way recovery
// must not paper over — a manifest that fails its checksum, a referenced
// container missing or altered, a WAL whose intact records contradict the
// watermark. Torn WAL tails and orphaned files are NOT corruption; they are
// the expected residue of a crash and recovery handles them silently.
// ErrStoreBroken is not about the directory but about one Store value: a
// commit failed midway, so the commit that failed and every Append or Compact
// after it return an error wrapping it until the store is reopened (which
// runs recovery). Nothing is lost; the caller's data was not at fault.
var (
	ErrNoStore      = errors.New("not an ingest store (no manifest)")
	ErrStoreCorrupt = errors.New("ingest store corrupt")
	ErrStoreBroken  = errors.New("needs recovery after a failed commit; reopen it")
)

const (
	manifestName    = "MANIFEST"
	manifestVersion = 1
	maxManifestSize = 1 << 20
)

// Fault-injection sites at every fsync/rename boundary of the ingestion
// protocol. An error fired at a site aborts the operation exactly where a
// crash at that boundary would, so the crash harness can drill each one
// deterministically (see store_crash_test.go) and assert recovery lands on
// pre- or post-commit state, never between.
var (
	fiWALAppend      = faultinject.NewSite("store.wal.append")
	fiWALSync        = faultinject.NewSite("store.wal.sync")
	fiWALReset       = faultinject.NewSite("store.wal.reset")
	fiDeltaWrite     = faultinject.NewSite("store.delta.write")
	fiDeltaSync      = faultinject.NewSite("store.delta.sync")
	fiDeltaRename    = faultinject.NewSite("store.delta.rename")
	fiManifestWrite  = faultinject.NewSite("store.manifest.write")
	fiManifestSync   = faultinject.NewSite("store.manifest.sync")
	fiManifestRename = faultinject.NewSite("store.manifest.rename")
	fiDirSync        = faultinject.NewSite("store.dir.sync")
)

// manifestEntry names one immutable container file with the evidence needed
// to prove it unaltered (size + whole-file CRC) and the totals needed to
// compute the combined search space without opening it.
type manifestEntry struct {
	Name      string `json:"name"`
	Size      int64  `json:"size"`
	CRC32     uint32 `json:"crc32"`
	Sequences int    `json:"sequences"`
	Residues  int64  `json:"residues"`
}

// manifest is the store's root metadata, serialized as JSON with a CRC over
// the encoding (computed with Sum zeroed).
type manifest struct {
	Version    int             `json:"version"`
	Seq        int64           `json:"seq"`         // bumped on every commit (append or compaction)
	Base       manifestEntry   `json:"base"`        // the compacted foundation container
	Deltas     []manifestEntry `json:"deltas"`      // ordered append containers layered on the base
	WALApplied uint64          `json:"wal_applied"` // highest WAL record seq reflected in this set
	Sum        uint32          `json:"sum"`         // IEEE CRC of this JSON with sum=0
}

// encode serializes the manifest with its checksum filled in.
func (m *manifest) encode() ([]byte, error) {
	mm := *m
	mm.Sum = 0
	body, err := json.Marshal(&mm)
	if err != nil {
		return nil, err
	}
	mm.Sum = crc32.ChecksumIEEE(body)
	return json.Marshal(&mm)
}

// hash returns the manifest's content identity: replicas serving the same
// container set report the same hash, and the router's coherence handshake
// refuses topologies that mix different ones.
func (m *manifest) hash() string {
	data, err := m.encode()
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// sequences and residues return the combined totals across base + deltas —
// the global search space every tier's E-values are computed against.
func (m *manifest) sequences() int {
	n := m.Base.Sequences
	for _, d := range m.Deltas {
		n += d.Sequences
	}
	return n
}

func (m *manifest) residues() int64 {
	n := m.Base.Residues
	for _, d := range m.Deltas {
		n += d.Residues
	}
	return n
}

// entries returns base + deltas in tier order.
func (m *manifest) entries() []manifestEntry {
	out := make([]manifestEntry, 0, 1+len(m.Deltas))
	out = append(out, m.Base)
	return append(out, m.Deltas...)
}

// validEntryName keeps manifest-referenced names inside the store directory:
// a bare file name with the container suffix, no path tricks.
func validEntryName(name string) bool {
	return name != "" && name == filepath.Base(name) && !strings.HasPrefix(name, ".") &&
		strings.HasSuffix(name, storeContainerSuffix)
}

// decodeManifest parses and structurally validates manifest bytes.
func decodeManifest(data []byte) (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrStoreCorrupt, err)
	}
	want := m.Sum
	m.Sum = 0
	body, err := json.Marshal(&m)
	if err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrStoreCorrupt, err)
	}
	if crc32.ChecksumIEEE(body) != want {
		return nil, fmt.Errorf("%w: manifest checksum mismatch", ErrStoreCorrupt)
	}
	m.Sum = want
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("%w: manifest version %d (this build reads version %d)", ErrVersion, m.Version, manifestVersion)
	}
	if m.Seq < 1 {
		return nil, fmt.Errorf("%w: manifest seq %d", ErrStoreCorrupt, m.Seq)
	}
	seen := map[string]bool{}
	for _, e := range m.entries() {
		if !validEntryName(e.Name) {
			return nil, fmt.Errorf("%w: manifest references invalid file name %q", ErrStoreCorrupt, e.Name)
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("%w: manifest references %q twice", ErrStoreCorrupt, e.Name)
		}
		seen[e.Name] = true
		if e.Size <= 0 || e.Sequences <= 0 || e.Residues < 0 {
			return nil, fmt.Errorf("%w: manifest entry %q has implausible totals", ErrStoreCorrupt, e.Name)
		}
	}
	return &m, nil
}

// readManifest loads and validates the manifest of the store at dir.
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("blast: %w: %s", ErrNoStore, dir)
	}
	if err != nil {
		return nil, fmt.Errorf("blast: manifest: %w", err)
	}
	if len(data) > maxManifestSize {
		return nil, fmt.Errorf("blast: %w: manifest is %d bytes (cap %d)", ErrStoreCorrupt, len(data), maxManifestSize)
	}
	return decodeManifest(data)
}

// newEntry fingerprints a container's bytes for the manifest.
func newEntry(name string, data []byte, c *container) manifestEntry {
	return manifestEntry{Name: name, Size: int64(len(data)), CRC32: crc32.ChecksumIEEE(data),
		Sequences: c.db.NumSeqs(), Residues: c.db.TotalResidues}
}

// readEntry reads a manifest-referenced file and proves it present and
// unaltered.
func readEntry(dir string, e manifestEntry) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, e.Name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("blast: %w: manifest references missing file %q", ErrStoreCorrupt, e.Name)
	}
	if err != nil {
		return nil, err
	}
	if size, crc := int64(len(data)), crc32.ChecksumIEEE(data); size != e.Size || crc != e.CRC32 {
		return nil, fmt.Errorf("blast: %w: %q does not match its manifest entry (size %d/%d, crc %08x/%08x)",
			ErrStoreCorrupt, e.Name, size, e.Size, crc, e.CRC32)
	}
	return data, nil
}

// atomicWrite commits data as dir/name via the write-temp → fsync →
// atomic-rename → directory-fsync sequence, with fault-injection hooks at
// each boundary. A failure before the rename leaves at most an orphaned
// .tmp file; after the rename the new file is durable and visible.
func atomicWrite(dir, name string, data []byte, siteWrite, siteSync, siteRename *faultinject.Site) error {
	if err := siteWrite.Err(); err != nil {
		return fmt.Errorf("writing %s: %w", name, err)
	}
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("writing %s: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", name, err)
	}
	if err := siteSync.Err(); err != nil {
		f.Close()
		return fmt.Errorf("syncing %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("syncing %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", name, err)
	}
	if err := siteRename.Err(); err != nil {
		return fmt.Errorf("renaming %s: %w", name, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("renaming %s: %w", name, err)
	}
	return syncDir(dir)
}

// syncDir makes a rename in dir durable.
func syncDir(dir string) error {
	if err := fiDirSync.Err(); err != nil {
		return fmt.Errorf("syncing %s: %w", dir, err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("syncing %s: %w", dir, err)
	}
	return d.Close()
}

// commitManifest atomically replaces the store's manifest.
func commitManifest(dir string, m *manifest) error {
	data, err := m.encode()
	if err != nil {
		return fmt.Errorf("blast: encoding manifest: %w", err)
	}
	if err := atomicWrite(dir, manifestName, data, fiManifestWrite, fiManifestSync, fiManifestRename); err != nil {
		return fmt.Errorf("blast: committing manifest: %w", err)
	}
	return nil
}
