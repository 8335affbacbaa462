// Package persist implements the crash-safe on-disk formats behind the
// engine's durability story: a versioned, checksummed snapshot format
// written atomically (temp file -> fsync -> rename), and a write-ahead
// log whose records are appended — CRC-framed and fsynced — before the
// corresponding in-memory mutation happens.
//
// Both formats share one frame layout,
//
//	u32  length of body (little-endian)
//	u32  ^length (bitwise complement of the length word)
//	body
//	u32  IEEE CRC32 of body
//
// chosen so that damage is classifiable: a torn append (crash mid
// write) leaves an *incomplete* frame at the end of the file, while a
// bit flip anywhere inside a *complete* frame — including in the
// length words, which must match their complement — fails the
// complement or CRC check. Readers therefore either truncate a torn
// tail (write-ahead log only; the record was never acknowledged) or
// fail loudly with ErrCorrupt, and never mistake one for the other on
// single-byte damage.
//
// All failure modes map onto three typed sentinel errors — ErrCorrupt,
// ErrVersion and ErrConfigMismatch — so callers can distinguish "the
// bytes are damaged" from "a newer tool wrote this" from "this file
// belongs to a differently-configured engine" without parsing error
// strings.
package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
)

// Magic identifies a snapshot file; a stream without it is corrupt.
const Magic = "EMDSNAP\x00"

// SnapshotVersion is the current snapshot format version. Version 5
// carries six frames: header, items, reductions, deleted, index and
// cascade. Versions 2 to 4 are still read: their fifth frame, a cached
// quantized filter, is checked and skipped, version 2 has no index
// frame and versions 2 and 3 no cascade frame (the engine runs the
// single-level filter until Build re-derives a missing cascade).
const SnapshotVersion = 5

// minSnapshotVersion is the oldest snapshot format this build reads.
const minSnapshotVersion = 2

// maxFrame bounds a single frame body; larger declared lengths can
// only come from damage.
const maxFrame = 1 << 30

var (
	// ErrCorrupt reports damaged bytes: a failed checksum, an
	// inconsistent frame header, malformed section contents, or data
	// that fails semantic validation on load.
	ErrCorrupt = errors.New("persist: corrupt file")
	// ErrVersion reports a format version this build does not read.
	ErrVersion = errors.New("persist: unsupported format version")
	// ErrConfigMismatch reports a file written by an engine with a
	// different configuration (dimensionality, ground-distance matrix,
	// reduction) than the one trying to read it.
	ErrConfigMismatch = errors.New("persist: configuration mismatch")
	// ErrWALBroken reports a write-ahead log that has latched broken: a
	// write or sync failed AND the rollback truncate failed too, so the
	// file may end in a half-written frame at an unknown position.
	// Appending past the damage would strand valid records behind an
	// unreadable frame, so every Append fails with this error until the
	// log is reopened (the open-time scan truncates the torn tail).
	ErrWALBroken = errors.New("persist: wal broken")

	// errTorn is the internal classification of an incomplete final
	// frame: the file ends mid-frame, as a crash during an append
	// leaves it. The WAL reader truncates it; the snapshot reader
	// (whose files are written atomically and can never legitimately
	// be torn) converts it to ErrCorrupt.
	errTorn = errors.New("persist: torn frame")
)

// Header is the snapshot preamble: the engine configuration
// fingerprint a reader must match before trusting the payload.
type Header struct {
	// Dim is the histogram dimensionality.
	Dim int
	// CostHash fingerprints the ground-distance matrix (see CostHash).
	CostHash uint64
	// Items is the number of persisted histograms; cross-checked
	// against the items section.
	Items int
}

// Item is one persisted database object.
type Item struct {
	ID     int
	Label  string
	Vector []float64
}

// Reduction is a persisted dimensionality reduction: the assignment of
// original to reduced bins.
type Reduction struct {
	Assign  []int
	Reduced int
}

// IndexSection is the wire type of the metric-index section, which
// engines that still had a metric index filled with a serialized tree.
// The engine now writes the section empty, and gob writes this type's
// definition into every file, so the type keeps its name and fields for
// format v5 to stay byte for byte unchanged. ReadSnapshot decodes only
// Kind from a filled section; the tree blob is checked by the frame's
// CRC and never decoded.
type IndexSection struct {
	// Kind is the tree kind: "vptree", or "mtree" in files written
	// while the engine still had an M-tree.
	Kind string
	// N is the store length the index covered; DeletedAtBuild is the
	// soft-deleted count at build time.
	N              int
	DeletedAtBuild int
	// RedHash fingerprints the reduction the index metric derived from.
	RedHash uint64
	// Blob is the gob-encoded kind-specific flat tree form.
	Blob []byte
}

// CascadeSection is the persisted reduction cascade and, in files
// written by engines that ran the run-time cascade planner (since
// removed), the plan that produced it. Levels holds the cascade levels
// finest-first, Levels[0] duplicating EngineReduction (readers
// cross-check); every entry reduces the full original dimensionality,
// and successive entries are nested coarsenings of their predecessor
// (original bins mapped to the same group by a finer level map to the
// same group in every coarser one — the property the cascade's
// lower-bound chain rests on). Levels is nil when an auto-planned
// engine ran a single filter level. PlanLevels lists the planned d'
// chain ascending (coarsest first) and is nil for configured chains;
// PlanID is the planner's fingerprint of PlanLevels. Current engines
// write Levels only; the other fields stay because gob writes this
// type's definition into every file, so dropping one would change the
// bytes Save writes.
type CascadeSection struct {
	Levels     []Reduction
	PlanLevels []int
	PlanID     uint64
	// Auto records whether the chain was chosen by the run-time
	// planner (true) or configured explicitly (false).
	Auto bool
}

// Snapshot is the full persisted engine state.
type Snapshot struct {
	Header Header
	Items  []Item
	// EngineReduction is the engine's active reduction, nil when
	// unreduced or not yet built.
	EngineReduction *Reduction
	// Deleted lists soft-deleted item ids, ascending.
	Deleted []int
	// Cascade is the reduction cascade and plan, nil when the engine
	// ran a single filter level (and always nil in files before
	// version 4).
	Cascade *CascadeSection
}

// reductionsSection is the gob payload of the third snapshot section.
// Files before version 5 may also carry a Named map here; gob drops it.
type reductionsSection struct {
	Engine *Reduction
}

// indexSection is the gob payload of the index section; the pointer
// encodes presence, and WriteSnapshot always writes it nil.
type indexSection struct {
	Index *IndexSection
}

// indexKind is what ReadSnapshot decodes of an index section: gob skips
// the fields it lacks, so a legacy tree blob is never copied out.
type indexKind struct {
	Index *struct{ Kind string }
}

// cascadeSection is the gob payload of the cascade section; the
// pointer encodes presence.
type cascadeSection struct {
	Cascade *CascadeSection
}

// CostHash fingerprints a ground-distance matrix: shape plus the exact
// bit pattern of every entry. Two cost matrices hash equal iff they
// are entrywise identical.
func CostHash(cost [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(cost)))
	h.Write(b[:])
	for _, row := range cost {
		binary.LittleEndian.PutUint64(b[:], uint64(len(row)))
		h.Write(b[:])
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// appendFrame appends the framed body to dst.
func appendFrame(dst, body []byte) []byte {
	var w [4]byte
	n := uint32(len(body))
	binary.LittleEndian.PutUint32(w[:], n)
	dst = append(dst, w[:]...)
	binary.LittleEndian.PutUint32(w[:], ^n)
	dst = append(dst, w[:]...)
	dst = append(dst, body...)
	binary.LittleEndian.PutUint32(w[:], crc32.ChecksumIEEE(body))
	return append(dst, w[:]...)
}

// frameOverhead is the framing cost beyond the body itself.
const frameOverhead = 12

// writeFrame writes one framed body to w.
func writeFrame(w io.Writer, body []byte) error {
	if _, err := w.Write(appendFrame(nil, body)); err != nil {
		return fmt.Errorf("persist: write frame: %w", err)
	}
	return nil
}

// readFrame reads one frame from r. It returns io.EOF at a clean frame
// boundary, errTorn when the file ends inside the frame, and an
// ErrCorrupt-wrapped error when a complete frame fails its complement
// or CRC check.
func readFrame(r io.Reader) (body []byte, err error) {
	var hdr [8]byte
	n, err := io.ReadFull(r, hdr[:])
	if err == io.EOF && n == 0 {
		return nil, io.EOF
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil, errTorn
	}
	if err != nil {
		return nil, fmt.Errorf("persist: read frame: %w", err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	inv := binary.LittleEndian.Uint32(hdr[4:8])
	if length != ^inv {
		return nil, fmt.Errorf("%w: frame length %d contradicts its complement", ErrCorrupt, length)
	}
	if length > maxFrame {
		return nil, fmt.Errorf("%w: frame length %d exceeds limit", ErrCorrupt, length)
	}
	buf := make([]byte, int(length)+4)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, errTorn
		}
		return nil, fmt.Errorf("persist: read frame: %w", err)
	}
	body = buf[:length]
	want := binary.LittleEndian.Uint32(buf[length:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: frame checksum %08x, want %08x", ErrCorrupt, got, want)
	}
	return body, nil
}

// gobFrame writes v as one gob-encoded frame.
func gobFrame(w io.Writer, v interface{}) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("persist: encode section: %w", err)
	}
	return writeFrame(w, buf.Bytes())
}

// readSnapshotFrame reads one frame of a snapshot. Torn frames are
// corruption here: the snapshot format is written atomically.
func readSnapshotFrame(r io.Reader, section string) ([]byte, error) {
	body, err := readFrame(r)
	if err == io.EOF || err == errTorn {
		return nil, fmt.Errorf("%w: snapshot truncated in %s section", ErrCorrupt, section)
	}
	if err != nil {
		return nil, fmt.Errorf("%s section: %w", section, err)
	}
	return body, nil
}

// readGobFrame reads one snapshot frame and gob-decodes it into v.
func readGobFrame(r io.Reader, v interface{}, section string) error {
	body, err := readSnapshotFrame(r, section)
	if err != nil {
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
		return fmt.Errorf("%w: decode %s section: %v", ErrCorrupt, section, err)
	}
	return nil
}

// WriteSnapshot writes s to w in the versioned format: magic, version
// word, then one CRC-framed gob section each for the header, the
// items, the engine reduction, the deleted set, the metric index
// (always empty) and the (possibly absent) reduction cascade.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	if s.Header.Items != len(s.Items) {
		return fmt.Errorf("persist: header declares %d items, snapshot carries %d", s.Header.Items, len(s.Items))
	}
	if _, err := w.Write([]byte(Magic)); err != nil {
		return fmt.Errorf("persist: write magic: %w", err)
	}
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], SnapshotVersion)
	if _, err := w.Write(v[:]); err != nil {
		return fmt.Errorf("persist: write version: %w", err)
	}
	if err := gobFrame(w, s.Header); err != nil {
		return err
	}
	if err := gobFrame(w, s.Items); err != nil {
		return err
	}
	if err := gobFrame(w, reductionsSection{Engine: s.EngineReduction}); err != nil {
		return err
	}
	if err := gobFrame(w, s.Deleted); err != nil {
		return err
	}
	if err := gobFrame(w, indexSection{}); err != nil {
		return err
	}
	return gobFrame(w, cascadeSection{Cascade: s.Cascade})
}

// ReadSnapshot reads a snapshot written by WriteSnapshot. Every
// anomaly maps to ErrCorrupt or ErrVersion; it never panics and never
// returns partially-decoded data.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var preamble [len(Magic) + 4]byte
	if _, err := io.ReadFull(r, preamble[:]); err != nil {
		return nil, fmt.Errorf("%w: short preamble", ErrCorrupt)
	}
	if string(preamble[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	version := binary.LittleEndian.Uint32(preamble[len(Magic):])
	if version < minSnapshotVersion || version > SnapshotVersion {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads %d..%d", ErrVersion, version, minSnapshotVersion, SnapshotVersion)
	}
	s := &Snapshot{}
	if err := readGobFrame(r, &s.Header, "header"); err != nil {
		return nil, err
	}
	if err := readGobFrame(r, &s.Items, "items"); err != nil {
		return nil, err
	}
	var reds reductionsSection
	if err := readGobFrame(r, &reds, "reductions"); err != nil {
		return nil, err
	}
	s.EngineReduction = reds.Engine
	if err := readGobFrame(r, &s.Deleted, "deleted"); err != nil {
		return nil, err
	}
	if version < 5 {
		// The cached quantized filter: checked, never decoded.
		if _, err := readSnapshotFrame(r, "quantized filter"); err != nil {
			return nil, err
		}
	}
	if version >= 3 {
		// A metric-index section written by an older engine is dropped.
		// A kind no version ever wrote is damage.
		var is indexKind
		if err := readGobFrame(r, &is, "metric index"); err != nil {
			return nil, err
		}
		if is.Index != nil && is.Index.Kind != "vptree" && is.Index.Kind != "mtree" {
			return nil, fmt.Errorf("%w: metric index: unknown kind %q", ErrCorrupt, is.Index.Kind)
		}
	}
	if version >= 4 {
		var cs cascadeSection
		if err := readGobFrame(r, &cs, "cascade"); err != nil {
			return nil, err
		}
		s.Cascade = cs.Cascade
	}
	if s.Header.Items != len(s.Items) {
		return nil, fmt.Errorf("%w: header declares %d items, snapshot carries %d", ErrCorrupt, s.Header.Items, len(s.Items))
	}
	var trailer [1]byte
	if n, err := r.Read(trailer[:]); n > 0 || (err != nil && err != io.EOF) {
		return nil, fmt.Errorf("%w: trailing data after snapshot", ErrCorrupt)
	}
	return s, nil
}
