// Package snapshot serializes the physical state of a cracking index —
// the (partially reorganized) column plus its crack set — to a compact
// binary stream, and restores it.
//
// Cracking earns its index incrementally; a restart that drops the crack
// set throws that investment away. Persisting the snapshot lets a process
// resume with all adaptation intact, and is the building block for the
// paper's §6 "disk-based processing" direction.
//
// Three wire versions share the "CRKS" magic:
//
//   - v1 holds one engine state: magic/version, column length, row-id
//     flag, values, optional row ids, crack count, (key, pos) pairs.
//   - v2 is the multi-part manifest behind sharded databases: a part
//     count followed by one (lo, hi, engine state) triple per shard, in
//     ascending value order. A single-part manifest spanning the whole
//     domain is byte-equivalent in content to v1 and is written as v1,
//     so unsharded snapshots stay loadable by the v1 API.
//   - v3 is v2 plus the pending-update queues: each part's engine state
//     is followed by its sorted pending-insert and pending-delete value
//     lists, so a capture taken while updates are queued loses nothing.
//     Manifests without pending updates are still written as v1/v2, so
//     the new version only appears when it is needed.
//   - v4 is the table manifest behind multi-column databases: a column
//     count followed by one (name, part list) pair per column, names in
//     strictly ascending order, each part in the v3 shape (bounds,
//     engine state, pending queues). Cracking is per attribute, so a
//     table snapshot is a set of named single-column snapshots.
//
// Everything is little-endian and a CRC32 trailer guards against torn
// writes. Decoding failures wrap dberr.ErrSnapshotCorrupt (sentinel,
// errors.Is-matchable): a corrupt stream is rejected as a whole, never
// loaded partially. The checksum makes silent bit damage detectable;
// semantic damage with a valid checksum is caught by
// core.SnapshotState.Validate on restore.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/dberr"
)

var (
	magicV1 = [8]byte{'C', 'R', 'K', 'S', 0, 0, 0, 1}
	magicV2 = [8]byte{'C', 'R', 'K', 'S', 0, 0, 0, 2}
	magicV3 = [8]byte{'C', 'R', 'K', 'S', 0, 0, 0, 3}
	magicV4 = [8]byte{'C', 'R', 'K', 'S', 0, 0, 0, 4}
)

// ErrCorrupt is the sentinel wrapped by every decoding failure
// (dberr.ErrSnapshotCorrupt, re-exported by the facade).
var ErrCorrupt = dberr.ErrSnapshotCorrupt

// Limits on counts read from the wire before allocating. Reads are
// chunked (see readInt64s), so a corrupt length costs bounded memory
// before the truncation or checksum error surfaces, but the hard caps
// keep even a maliciously long stream from ballooning.
const (
	maxValues = 1 << 33
	maxParts  = 1 << 16
	// maxNameLen bounds one table-manifest column name on the wire.
	maxNameLen = 1 << 10
	// readChunk bounds per-step slice growth while decoding, in elements.
	readChunk = 1 << 16
)

// corruptf builds a decoding error wrapping ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("snapshot: %s: %w", fmt.Sprintf(format, args...), ErrCorrupt)
}

// Write serializes one engine state st to w in the v1 format. v1 cannot
// carry pending-update queues; states holding them must go through
// WriteManifest (which picks v3), so Write refuses rather than drop them.
func Write(w io.Writer, st core.SnapshotState) error {
	if st.Pending() > 0 {
		return fmt.Errorf("snapshot: v1 cannot carry %d pending updates; write a manifest instead", st.Pending())
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	if _, err := bw.Write(magicV1[:]); err != nil {
		return err
	}
	if err := writeState(bw, st); err != nil {
		return err
	}
	// Flush the buffered body through the CRC before emitting the trailer
	// directly to w (the trailer itself is not part of the checksum).
	if err := bw.Flush(); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// WriteManifest serializes a multi-part manifest to w. Single-part
// manifests spanning the whole value domain are written in the v1 format
// (content-equivalent), so unsharded snapshots remain loadable by v1
// readers; multi-part manifests use v2; manifests carrying pending-update
// queues on any part use v3 (the only version with room for them); table
// manifests always use v4 (the only version with named columns).
func WriteManifest(w io.Writer, m Manifest) error {
	if m.IsTable() {
		return writeTableManifest(w, m)
	}
	v3 := m.Pending() > 0
	if !v3 && len(m.Parts) == 1 && m.Parts[0].Lo == math.MinInt64 && m.Parts[0].Hi == math.MaxInt64 {
		return Write(w, m.Parts[0].State)
	}
	magic := magicV2
	if v3 {
		magic = magicV3
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(m.Parts))); err != nil {
		return err
	}
	for _, p := range m.Parts {
		if err := binary.Write(bw, binary.LittleEndian, p.Lo); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, p.Hi); err != nil {
			return err
		}
		if err := writeState(bw, p.State); err != nil {
			return err
		}
		if v3 {
			if err := writePending(bw, p.State); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// writeTableManifest serializes a table manifest in the v4 format:
// column count, then per column a length-prefixed name and a v3-shaped
// part list (every part carries its pending queues — v4 always has room
// for them, so no version split exists within table snapshots).
func writeTableManifest(w io.Writer, m Manifest) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	if _, err := bw.Write(magicV4[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(m.Columns))); err != nil {
		return err
	}
	for _, c := range m.Columns {
		if len(c.Name) == 0 || len(c.Name) > maxNameLen {
			return fmt.Errorf("snapshot: column name %q out of range (1..%d bytes)", c.Name, maxNameLen)
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(len(c.Name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(c.Name); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(len(c.Parts))); err != nil {
			return err
		}
		for _, p := range c.Parts {
			if err := binary.Write(bw, binary.LittleEndian, p.Lo); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, p.Hi); err != nil {
				return err
			}
			if err := writeState(bw, p.State); err != nil {
				return err
			}
			if err := writePending(bw, p.State); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// writePending emits one part's pending-update queues (v3 only): two
// length-prefixed sorted value lists.
func writePending(bw *bufio.Writer, st core.SnapshotState) error {
	for _, q := range [][]int64{st.PendingInserts, st.PendingDeletes} {
		if err := binary.Write(bw, binary.LittleEndian, uint64(len(q))); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, q); err != nil {
			return err
		}
	}
	return nil
}

// writeState emits one engine state body (no magic, no checksum).
func writeState(bw *bufio.Writer, st core.SnapshotState) error {
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(st.Values))); err != nil {
		return err
	}
	hasRowIDs := uint8(0)
	if st.RowIDs != nil {
		hasRowIDs = 1
	}
	if err := binary.Write(bw, binary.LittleEndian, hasRowIDs); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, st.Values); err != nil {
		return err
	}
	if hasRowIDs == 1 {
		if err := binary.Write(bw, binary.LittleEndian, st.RowIDs); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(st.Cracks))); err != nil {
		return err
	}
	for _, c := range st.Cracks {
		if err := binary.Write(bw, binary.LittleEndian, c.Key); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(c.Pos)); err != nil {
			return err
		}
	}
	return nil
}

// ReadManifest deserializes a snapshot of either wire version from r,
// verifying structure and checksum; a v1 stream yields one part spanning
// the whole value domain. Decoding failures wrap ErrCorrupt. The result
// carries no semantic guarantees until Manifest.Validate (run by the
// restore paths) accepts it.
//
// The body is read with exact-size reads through a TeeReader feeding the
// CRC — deliberately unbuffered, so no lookahead can pull trailer bytes
// into the checksum.
func ReadManifest(r io.Reader) (Manifest, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)

	var m [8]byte
	if _, err := io.ReadFull(tr, m[:]); err != nil {
		return Manifest{}, corruptf("reading magic: %v", err)
	}
	var man Manifest
	switch m {
	case magicV1:
		st, err := readState(tr)
		if err != nil {
			return Manifest{}, err
		}
		// Single clamps domain-edge cracks (keys MinInt64/MaxInt64), which
		// legitimate v1 snapshots may carry from unbounded predicates.
		man = Single(st)
	case magicV2, magicV3:
		v3 := m == magicV3
		var parts uint64
		if err := binary.Read(tr, binary.LittleEndian, &parts); err != nil {
			return Manifest{}, corruptf("reading part count: %v", err)
		}
		if parts == 0 || parts > maxParts {
			return Manifest{}, corruptf("claims %d parts", parts)
		}
		man.Parts = make([]Part, 0, min(parts, readChunk))
		for i := uint64(0); i < parts; i++ {
			var lo, hi int64
			if err := binary.Read(tr, binary.LittleEndian, &lo); err != nil {
				return Manifest{}, corruptf("part %d: reading bounds: %v", i, err)
			}
			if err := binary.Read(tr, binary.LittleEndian, &hi); err != nil {
				return Manifest{}, corruptf("part %d: reading bounds: %v", i, err)
			}
			st, err := readState(tr)
			if err != nil {
				return Manifest{}, fmt.Errorf("part %d: %w", i, err)
			}
			if v3 {
				if st.PendingInserts, err = readPendingQueue(tr); err != nil {
					return Manifest{}, fmt.Errorf("part %d: %w", i, err)
				}
				if st.PendingDeletes, err = readPendingQueue(tr); err != nil {
					return Manifest{}, fmt.Errorf("part %d: %w", i, err)
				}
			}
			// Clamp like the v1 path: our own writers never emit cracks
			// outside a part's range, but decoding normalizes foreign
			// streams the same way so encode/decode stays idempotent.
			man.Parts = append(man.Parts, ClampedPart(lo, hi, st))
		}
	case magicV4:
		var cols uint64
		if err := binary.Read(tr, binary.LittleEndian, &cols); err != nil {
			return Manifest{}, corruptf("reading column count: %v", err)
		}
		if cols == 0 || cols > maxParts {
			return Manifest{}, corruptf("claims %d columns", cols)
		}
		man.Columns = make([]TableColumn, 0, min(cols, readChunk))
		for ci := uint64(0); ci < cols; ci++ {
			var nameLen uint64
			if err := binary.Read(tr, binary.LittleEndian, &nameLen); err != nil {
				return Manifest{}, corruptf("column %d: reading name length: %v", ci, err)
			}
			if nameLen == 0 || nameLen > maxNameLen {
				return Manifest{}, corruptf("column %d: name length %d out of range", ci, nameLen)
			}
			name := make([]byte, nameLen)
			if _, err := io.ReadFull(tr, name); err != nil {
				return Manifest{}, corruptf("column %d: reading name: %v", ci, err)
			}
			var parts uint64
			if err := binary.Read(tr, binary.LittleEndian, &parts); err != nil {
				return Manifest{}, corruptf("column %q: reading part count: %v", name, err)
			}
			if parts == 0 || parts > maxParts {
				return Manifest{}, corruptf("column %q claims %d parts", name, parts)
			}
			col := TableColumn{Name: string(name), Parts: make([]Part, 0, min(parts, readChunk))}
			for i := uint64(0); i < parts; i++ {
				var lo, hi int64
				if err := binary.Read(tr, binary.LittleEndian, &lo); err != nil {
					return Manifest{}, corruptf("column %q part %d: reading bounds: %v", name, i, err)
				}
				if err := binary.Read(tr, binary.LittleEndian, &hi); err != nil {
					return Manifest{}, corruptf("column %q part %d: reading bounds: %v", name, i, err)
				}
				st, err := readState(tr)
				if err != nil {
					return Manifest{}, fmt.Errorf("column %q part %d: %w", name, i, err)
				}
				if st.PendingInserts, err = readPendingQueue(tr); err != nil {
					return Manifest{}, fmt.Errorf("column %q part %d: %w", name, i, err)
				}
				if st.PendingDeletes, err = readPendingQueue(tr); err != nil {
					return Manifest{}, fmt.Errorf("column %q part %d: %w", name, i, err)
				}
				col.Parts = append(col.Parts, ClampedPart(lo, hi, st))
			}
			man.Columns = append(man.Columns, col)
		}
	default:
		if m[0] == 'C' && m[1] == 'R' && m[2] == 'K' && m[3] == 'S' {
			return Manifest{}, corruptf("unsupported CRKS version %d", binary.BigEndian.Uint32(m[4:]))
		}
		return Manifest{}, corruptf("not a CRKS snapshot (magic %x)", m)
	}
	want := crc.Sum32()
	var got uint32
	if err := binary.Read(r, binary.LittleEndian, &got); err != nil {
		return Manifest{}, corruptf("reading checksum: %v", err)
	}
	if got != want {
		return Manifest{}, corruptf("checksum mismatch (got %08x, want %08x)", got, want)
	}
	return man, nil
}

// Read deserializes a snapshot from r into a single engine state,
// verifying structure and checksum. A v2 multi-part stream is merged into
// one contiguous state (shard boundaries become cracks); decoding
// failures wrap ErrCorrupt.
func Read(r io.Reader) (core.SnapshotState, error) {
	man, err := ReadManifest(r)
	if err != nil {
		return core.SnapshotState{}, err
	}
	return man.Merged()
}

// readState reads one engine state body (no magic, no checksum).
func readState(tr io.Reader) (core.SnapshotState, error) {
	var st core.SnapshotState
	var n uint64
	if err := binary.Read(tr, binary.LittleEndian, &n); err != nil {
		return st, corruptf("reading length: %v", err)
	}
	if n > maxValues {
		return st, corruptf("claims %d values", n)
	}
	var hasRowIDs uint8
	if err := binary.Read(tr, binary.LittleEndian, &hasRowIDs); err != nil {
		return st, corruptf("reading flags: %v", err)
	}
	if hasRowIDs > 1 {
		return st, corruptf("bad row-id flag %d", hasRowIDs)
	}
	var err error
	if st.Values, err = readSlice[int64](tr, n); err != nil {
		return st, corruptf("reading values: %v", err)
	}
	if hasRowIDs == 1 {
		if st.RowIDs, err = readSlice[uint32](tr, n); err != nil {
			return st, corruptf("reading row ids: %v", err)
		}
	}
	var k uint64
	if err := binary.Read(tr, binary.LittleEndian, &k); err != nil {
		return st, corruptf("reading crack count: %v", err)
	}
	if k > n+1 {
		return st, corruptf("%d cracks for %d values", k, n)
	}
	if k > 0 {
		st.Cracks = make([]core.CrackEntry, 0, min(k, readChunk))
		raw := make([]byte, 16*min(k, readChunk))
		for read := uint64(0); read < k; {
			c := min(k-read, readChunk)
			if _, err := io.ReadFull(tr, raw[:16*c]); err != nil {
				return st, corruptf("reading cracks: %v", err)
			}
			for i := uint64(0); i < c; i++ {
				key := int64(binary.LittleEndian.Uint64(raw[16*i:]))
				pos := binary.LittleEndian.Uint64(raw[16*i+8:])
				if pos > n {
					return st, corruptf("crack %d position %d out of range", read+i, pos)
				}
				st.Cracks = append(st.Cracks, core.CrackEntry{Key: key, Pos: int(pos)})
			}
			read += c
		}
	}
	return st, nil
}

// readPendingQueue reads one length-prefixed pending-update value list
// (v3 parts), rejecting unsorted queues — concatenating per-part queues
// on restore relies on each being sorted.
func readPendingQueue(tr io.Reader) ([]int64, error) {
	var n uint64
	if err := binary.Read(tr, binary.LittleEndian, &n); err != nil {
		return nil, corruptf("reading pending count: %v", err)
	}
	if n > maxValues {
		return nil, corruptf("claims %d pending updates", n)
	}
	if n == 0 {
		return nil, nil
	}
	q, err := readSlice[int64](tr, n)
	if err != nil {
		return nil, corruptf("reading pending values: %v", err)
	}
	for i := 1; i < len(q); i++ {
		if q[i] < q[i-1] {
			return nil, corruptf("pending queue not sorted at %d", i)
		}
	}
	return q, nil
}

// readSlice reads n little-endian elements, growing the destination in
// chunks so a lying length field costs bounded memory before the stream
// runs dry.
func readSlice[T int64 | uint32](r io.Reader, n uint64) ([]T, error) {
	out := make([]T, 0, min(n, readChunk))
	for uint64(len(out)) < n {
		c := int(min(n-uint64(len(out)), readChunk))
		start := len(out)
		out = slices.Grow(out, c)[: start+c : start+c]
		if err := binary.Read(r, binary.LittleEndian, out[start:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tempFile is what saveAtomic writes a snapshot through: an *os.File in
// production, a failing stand-in in the crash-safety tests.
type tempFile interface {
	io.WriteCloser
	Sync() error
}

// Hooks for the crash-safety tests: they inject failures between the
// temp-file write and the rename, mid-write truncation and a failed
// sync, to prove the previous snapshot file survives every failure mode.
// Production code never touches them.
var (
	createFile = func(path string) (tempFile, error) { return os.Create(path) }
	renameFile = os.Rename
)

// SaveFile writes a single-state snapshot to path atomically (temp file +
// rename), in the v1 format.
func SaveFile(path string, st core.SnapshotState) error {
	return saveAtomic(path, func(w io.Writer) error { return Write(w, st) })
}

// SaveManifestFile writes a manifest to path atomically (temp file +
// rename). A crash at any point leaves either the previous file or the
// new one, never a torn mix: the body goes to path.tmp first and the
// rename is the only step that touches path. The temp file is synced
// before the rename and the directory after it, so once the call returns
// the new snapshot survives a power loss, not only a process crash.
func SaveManifestFile(path string, m Manifest) error {
	return saveAtomic(path, func(w io.Writer) error { return WriteManifest(w, m) })
}

func saveAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := createFile(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// Without the sync the rename can reach the disk before the data,
	// and a power loss would leave a torn file under path.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("snapshot: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := renameFile(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir makes a rename inside dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("snapshot: sync directory: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("snapshot: sync directory %s: %w", dir, err)
	}
	return nil
}

// LoadFile reads a snapshot from path as one engine state (a multi-part
// file is merged; see Read).
func LoadFile(path string) (core.SnapshotState, error) {
	f, err := os.Open(path)
	if err != nil {
		return core.SnapshotState{}, err
	}
	defer f.Close()
	return Read(f)
}

// LoadManifestFile reads a snapshot manifest from path.
func LoadManifestFile(path string) (Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return Manifest{}, err
	}
	defer f.Close()
	return ReadManifest(f)
}
