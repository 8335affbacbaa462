package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

// WALMagic identifies a write-ahead-log file.
const WALMagic = "EMDWAL\x00"

// WALVersion is the current write-ahead-log format version.
const WALVersion = 1

// WALHeader fingerprints the engine a log belongs to; replay against a
// differently-configured engine fails with ErrConfigMismatch instead
// of silently applying foreign mutations.
type WALHeader struct {
	Dim      int
	CostHash uint64
}

// WALOp is a logged mutation kind.
type WALOp uint8

const (
	// WALAdd logs an Engine.Add; ID is the index the item was assigned.
	WALAdd WALOp = 1
	// WALDelete logs an Engine.Delete of item ID.
	WALDelete WALOp = 2
)

// WALRecord is one logged mutation.
type WALRecord struct {
	Op     WALOp
	ID     int
	Label  string    // WALAdd only
	Vector []float64 // WALAdd only
}

// WALScan summarizes one integrity pass over a log file.
type WALScan struct {
	// Records is the number of complete, checksum-valid records.
	Records int
	// GoodSize is the byte offset up to which the file is valid; any
	// torn tail starts here.
	GoodSize int64
	// TornBytes counts trailing bytes belonging to an incomplete final
	// frame — the signature of a crash mid-append. The record they
	// were part of was never acknowledged.
	TornBytes int64
	// MaxAddID is the largest item id any WALAdd record assigns, -1
	// when the log holds no adds.
	MaxAddID int
}

// WALFile is the file surface the WAL needs; *os.File satisfies it and
// tests substitute fault-injecting implementations (see
// SwapFileForTest).
type WALFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// WAL is an append-only, fsync-on-append mutation log. Append frames
// and checksums each record and does not return until the bytes are
// synced, so an acknowledged mutation survives a crash; a crash mid
// append leaves a torn final frame that replay truncates.
//
// A WAL is safe for concurrent use. After a write or sync error that
// cannot be rolled back (the file may hold a half-written frame and
// the write position is unknown), the WAL latches broken and every
// subsequent Append fails with the original error wrapped — appending
// past damage would strand valid records behind an unreadable frame.
type WAL struct {
	mu     sync.Mutex
	f      WALFile
	path   string
	hdr    WALHeader
	off    int64 // bytes known good (written and framed completely)
	lsn    int64 // sequence number of the last acknowledged record
	broken error // sticky first unrecoverable error
}

// walPreamble returns magic + version + framed header bytes.
func walPreamble(hdr WALHeader) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(WALMagic)
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], WALVersion)
	buf.Write(v[:])
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(hdr); err != nil {
		return nil, fmt.Errorf("persist: encode wal header: %w", err)
	}
	return appendFrame(buf.Bytes(), body.Bytes()), nil
}

// OpenWAL opens (or creates) the log at path for appending. A fresh or
// empty file gets the magic/version/header preamble written and
// synced. An existing file is integrity-scanned first: its header must
// match hdr (ErrConfigMismatch otherwise), complete-frame damage is
// ErrCorrupt, and a torn final frame — an append interrupted by a
// crash — is truncated away before appending resumes, since bytes
// after damage would be unreachable on replay. The returned scan
// describes what the existing file held.
func OpenWAL(path string, hdr WALHeader) (*WAL, *WALScan, error) {
	scan := &WALScan{MaxAddID: -1}
	st, err := os.Stat(path)
	switch {
	case err == nil && st.Size() > 0:
		_, scan, err = scanWAL(path, &hdr)
		if err != nil {
			return nil, nil, err
		}
		if scan.TornBytes > 0 {
			if err := os.Truncate(path, scan.GoodSize); err != nil {
				return nil, nil, fmt.Errorf("persist: truncate torn wal tail: %w", err)
			}
		}
	case err != nil && !os.IsNotExist(err):
		return nil, nil, fmt.Errorf("persist: stat wal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: open wal: %w", err)
	}
	w := &WAL{f: f, path: path, hdr: hdr, off: scan.GoodSize, lsn: int64(scan.Records)}
	if scan.GoodSize == 0 {
		// Fresh, empty, or fully-torn-before-header file: start over
		// with a clean preamble.
		if err := f.Truncate(0); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("persist: reset wal: %w", err)
		}
		if err := w.writePreambleLocked(); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
	}
	return w, scan, nil
}

// writePreambleLocked writes and syncs the preamble; the caller must
// hold w.mu or be the only reference holder.
func (w *WAL) writePreambleLocked() error {
	pre, err := walPreamble(w.hdr)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(pre); err != nil {
		return fmt.Errorf("persist: write wal header: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("persist: sync wal header: %w", err)
	}
	w.off = int64(len(pre))
	return nil
}

// Append frames, writes and fsyncs one record. It returns only after
// the record is durable; on a write error it attempts to truncate the
// partial frame away (keeping the WAL usable), and if that rollback
// fails the WAL latches broken.
func (w *WAL) Append(rec WALRecord) error {
	_, err := w.AppendLSN(rec)
	return err
}

// AppendLSN is Append returning the acknowledged record's log sequence
// number: the 1-based position of the record among the acknowledged
// records of this log since its last preamble (open or Reset). LSNs
// are assigned only to durable records — an append that fails consumes
// no sequence number — so the LSN of the last acknowledged record
// always equals the record count a replay of the log would see.
func (w *WAL) AppendLSN(rec WALRecord) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return 0, fmt.Errorf("%w by an earlier error (recover and reopen): %w", ErrWALBroken, w.broken)
	}
	if w.f == nil {
		return 0, fmt.Errorf("persist: append to closed wal")
	}
	frame := appendFrame(nil, encodeRecord(rec))
	if _, err := w.f.Write(frame); err != nil {
		werr := fmt.Errorf("persist: wal append: %w", err)
		if terr := w.f.Truncate(w.off); terr != nil {
			w.broken = werr
			return 0, fmt.Errorf("%w: %w (rollback truncate also failed: %v)", ErrWALBroken, werr, terr)
		}
		return 0, werr
	}
	if err := w.f.Sync(); err != nil {
		// The frame bytes may or may not be durable; roll them back so
		// the on-disk prefix stays exactly the acknowledged records.
		werr := fmt.Errorf("persist: wal sync: %w", err)
		if terr := w.f.Truncate(w.off); terr != nil {
			w.broken = werr
			return 0, fmt.Errorf("%w: %w (rollback truncate also failed: %v)", ErrWALBroken, werr, terr)
		}
		return 0, werr
	}
	w.off += int64(len(frame))
	w.lsn++
	return w.lsn, nil
}

// LSN returns the sequence number of the last acknowledged record:
// the count of durable records in the log since its last preamble, 0
// for a log holding none. On open it is initialized from the
// integrity scan, so it equals what a replay of the file would count.
func (w *WAL) LSN() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lsn
}

// Reset truncates the log to empty and rewrites the preamble; used by
// Checkpoint after the snapshot covering the logged records is durable.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("persist: reset closed wal")
	}
	if err := w.f.Truncate(0); err != nil {
		w.broken = fmt.Errorf("persist: wal reset: %w", err)
		return fmt.Errorf("%w: %w", ErrWALBroken, w.broken)
	}
	w.off = 0
	w.lsn = 0
	if err := w.writePreambleLocked(); err != nil {
		w.broken = err
		return fmt.Errorf("%w: %w", ErrWALBroken, err)
	}
	w.broken = nil
	return nil
}

// SwapFileForTest replaces the log's underlying file with f and
// returns the previous one. It exists for fault injection: tests swap
// in a faultio-backed file to drive the WAL into its broken state and
// exercise recovery, without touching the on-disk file.
func (w *WAL) SwapFileForTest(f WALFile) WALFile {
	w.mu.Lock()
	defer w.mu.Unlock()
	old := w.f
	w.f = f
	return old
}

// Size returns the acknowledged on-disk size of the log.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.off
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Close syncs and closes the log file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	if err != nil {
		return fmt.Errorf("persist: close wal: %w", err)
	}
	return nil
}

// ReplayWAL reads the records of the log at path without modifying the
// file. The header must match hdr (ErrConfigMismatch), complete-frame
// damage is ErrCorrupt, and an incomplete final frame is reported via
// scan.TornBytes rather than replayed — it belongs to an append that
// crashed before acknowledging.
func ReplayWAL(path string, hdr WALHeader) ([]WALRecord, *WALScan, error) {
	return scanWAL(path, &hdr)
}

// scanWAL is the shared integrity pass: it validates preamble and
// frames, decodes records, and classifies the tail.
func scanWAL(path string, want *WALHeader) ([]WALRecord, *WALScan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: open wal: %w", err)
	}
	defer func() { _ = f.Close() }() // read-only scan, nothing to lose
	st, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("persist: stat wal: %w", err)
	}
	size := st.Size()
	scan := &WALScan{MaxAddID: -1}
	r := &countingReader{r: f}

	fail := func(err error) ([]WALRecord, *WALScan, error) {
		return nil, nil, fmt.Errorf("wal %s: %w", path, err)
	}
	// tornAt reports everything from offset good onward as a torn tail.
	tornAt := func(good int64, recs []WALRecord) ([]WALRecord, *WALScan, error) {
		scan.GoodSize = good
		scan.TornBytes = size - good
		return recs, scan, nil
	}

	var preamble [len(WALMagic) + 4]byte
	if _, err := io.ReadFull(r, preamble[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// Crash before the preamble hit the disk: no acknowledged
			// records can exist, the whole file is a torn tail.
			return tornAt(0, nil)
		}
		return fail(err)
	}
	if string(preamble[:len(WALMagic)]) != WALMagic {
		return fail(fmt.Errorf("%w: bad magic", ErrCorrupt))
	}
	if v := binary.LittleEndian.Uint32(preamble[len(WALMagic):]); v != WALVersion {
		return fail(fmt.Errorf("%w: wal version %d, this build reads %d", ErrVersion, v, WALVersion))
	}
	hdrBody, err := readFrame(r)
	if err == io.EOF || err == errTorn {
		return tornAt(0, nil)
	}
	if err != nil {
		return fail(fmt.Errorf("header frame: %w", err))
	}
	var hdr WALHeader
	if err := gob.NewDecoder(bytes.NewReader(hdrBody)).Decode(&hdr); err != nil {
		return fail(fmt.Errorf("%w: decode wal header: %v", ErrCorrupt, err))
	}
	if want != nil && (hdr.Dim != want.Dim || hdr.CostHash != want.CostHash) {
		return fail(fmt.Errorf("%w: wal belongs to a %d-dimensional engine with cost hash %016x, want dim %d hash %016x",
			ErrConfigMismatch, hdr.Dim, hdr.CostHash, want.Dim, want.CostHash))
	}

	var recs []WALRecord
	good := r.n
	for {
		body, err := readFrame(r)
		if err == io.EOF {
			scan.GoodSize = good
			return recs, scan, nil
		}
		if err == errTorn {
			return tornAt(good, recs)
		}
		if err != nil {
			return fail(fmt.Errorf("record %d: %w", len(recs), err))
		}
		rec, err := decodeRecord(body)
		if err != nil {
			return fail(fmt.Errorf("record %d: %w", len(recs), err))
		}
		recs = append(recs, rec)
		scan.Records++
		if rec.Op == WALAdd && rec.ID > scan.MaxAddID {
			scan.MaxAddID = rec.ID
		}
		good = r.n
	}
}

// countingReader tracks how many bytes have been consumed, giving the
// scan exact frame-boundary offsets.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// encodeRecord serializes a record body:
//
//	u8 op | u64 id | u32 len(label) | label | u32 len(vector) | float64 bits…
func encodeRecord(rec WALRecord) []byte {
	buf := make([]byte, 0, 1+8+4+len(rec.Label)+4+8*len(rec.Vector))
	buf = append(buf, byte(rec.Op))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(rec.ID))
	buf = append(buf, b[:]...)
	binary.LittleEndian.PutUint32(b[:4], uint32(len(rec.Label)))
	buf = append(buf, b[:4]...)
	buf = append(buf, rec.Label...)
	binary.LittleEndian.PutUint32(b[:4], uint32(len(rec.Vector)))
	buf = append(buf, b[:4]...)
	for _, v := range rec.Vector {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		buf = append(buf, b[:]...)
	}
	return buf
}

// decodeRecord parses a record body. The body already passed its CRC,
// so failures here mean a frame written by something else entirely.
func decodeRecord(body []byte) (WALRecord, error) {
	var rec WALRecord
	corrupt := func(what string) (WALRecord, error) {
		return rec, fmt.Errorf("%w: malformed wal record (%s)", ErrCorrupt, what)
	}
	if len(body) < 1+8+4 {
		return corrupt("short body")
	}
	rec.Op = WALOp(body[0])
	if rec.Op != WALAdd && rec.Op != WALDelete {
		return corrupt(fmt.Sprintf("unknown op %d", rec.Op))
	}
	id := binary.LittleEndian.Uint64(body[1:9])
	if id > uint64(math.MaxInt32) {
		return corrupt("implausible item id")
	}
	rec.ID = int(id)
	p := 9
	ll := int(binary.LittleEndian.Uint32(body[p : p+4]))
	p += 4
	if ll < 0 || p+ll+4 > len(body) {
		return corrupt("label length")
	}
	rec.Label = string(body[p : p+ll])
	p += ll
	vl := int(binary.LittleEndian.Uint32(body[p : p+4]))
	p += 4
	if vl < 0 || p+8*vl != len(body) {
		return corrupt("vector length")
	}
	if vl > 0 {
		rec.Vector = make([]float64, vl)
		for i := range rec.Vector {
			rec.Vector[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[p : p+8]))
			p += 8
		}
	}
	return rec, nil
}
