package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"emdsearch/internal/persist/faultio"
)

func testSnapshot() *Snapshot {
	items := []Item{
		{ID: 0, Label: "a", Vector: []float64{0.5, 0.25, 0.25}},
		{ID: 1, Label: "b", Vector: []float64{0, 0.5, 0.5}},
		{ID: 2, Label: "", Vector: []float64{1, 0, 0}},
	}
	return &Snapshot{
		Header:          Header{Dim: 3, CostHash: 0xdeadbeefcafef00d, Items: len(items)},
		Items:           items,
		EngineReduction: &Reduction{Assign: []int{0, 0, 1}, Reduced: 2},
		Deleted:         []int{1},
	}
}

func encodeSnapshot(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := testSnapshot()
	got, err := ReadSnapshot(bytes.NewReader(encodeSnapshot(t, want)))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestSnapshotHeaderItemCountMismatch(t *testing.T) {
	s := testSnapshot()
	s.Header.Items = 99
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err == nil {
		t.Fatal("WriteSnapshot accepted a header/items mismatch")
	}
}

// isTyped reports whether err maps onto one of the persistence
// sentinels — the contract for every corrupted input.
func isTyped(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersion) || errors.Is(err, ErrConfigMismatch)
}

// TestSnapshotBitFlipMatrix flips every byte of an encoded snapshot
// and asserts the reader always fails with a typed error — no panics,
// no silently-accepted damage.
func TestSnapshotBitFlipMatrix(t *testing.T) {
	enc := encodeSnapshot(t, testSnapshot())
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0xff
		s, err := ReadSnapshot(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("flip at byte %d: damage accepted, decoded %+v", i, s)
		}
		if !isTyped(err) {
			t.Fatalf("flip at byte %d: untyped error %v", i, err)
		}
	}
}

// TestSnapshotTruncationMatrix cuts the encoded snapshot at every
// length; the reader must always fail with ErrCorrupt (the snapshot
// format is written atomically, so torn files are corruption).
func TestSnapshotTruncationMatrix(t *testing.T) {
	enc := encodeSnapshot(t, testSnapshot())
	for n := 0; n < len(enc); n++ {
		_, err := ReadSnapshot(bytes.NewReader(enc[:n]))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", n, err)
		}
	}
}

func TestSnapshotTrailingGarbage(t *testing.T) {
	enc := encodeSnapshot(t, testSnapshot())
	_, err := ReadSnapshot(bytes.NewReader(append(enc, 0x42)))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: got %v, want ErrCorrupt", err)
	}
}

func TestSnapshotVersionRejected(t *testing.T) {
	enc := encodeSnapshot(t, testSnapshot())
	for _, v := range []byte{0, 1, 99} {
		bad := append([]byte(nil), enc...)
		bad[len(Magic)] = v // version word (little-endian low byte)
		if _, err := ReadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: got %v, want ErrVersion", v, err)
		}
	}
	if _, err := ReadSnapshot(bytes.NewReader(enc[len(Magic):])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("no magic: got %v, want ErrCorrupt", err)
	}
}

// TestSnapshotSkipsLegacyQuantFrame forges a version-4 file, whose
// fifth frame cached the quantized filter: the reader checks that
// frame's CRC, skips it without decoding, and reads the rest. A
// damaged skipped frame still fails typed.
func TestSnapshotSkipsLegacyQuantFrame(t *testing.T) {
	want := testSnapshot()
	enc := encodeSnapshot(t, want)
	off := len(Magic) + 4
	for f := 0; f < 4; f++ {
		off += frameOverhead + int(binary.LittleEndian.Uint32(enc[off:]))
	}
	v4 := append([]byte(nil), enc[:off]...)
	binary.LittleEndian.PutUint32(v4[len(Magic):], 4)
	v4 = appendFrame(v4, []byte("not gob at all"))
	v4 = append(v4, enc[off:]...)
	got, err := ReadSnapshot(bytes.NewReader(v4))
	if err != nil {
		t.Fatalf("version-4 file: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("version-4 file decoded %+v, want %+v", got, want)
	}
	v4[off+frameOverhead] ^= 0xff
	if _, err := ReadSnapshot(bytes.NewReader(v4)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged quant frame: got %v, want ErrCorrupt", err)
	}
}

// TestSnapshotWriteFaultMatrix injects a write failure at every byte
// budget; WriteSnapshot must surface an error at each injection point
// and succeed only with the full budget.
func TestSnapshotWriteFaultMatrix(t *testing.T) {
	s := testSnapshot()
	full := int64(len(encodeSnapshot(t, s)))
	for budget := int64(0); budget < full; budget++ {
		var sink bytes.Buffer
		fw := &faultio.Writer{W: &sink, Budget: budget}
		if err := WriteSnapshot(fw, s); err == nil {
			t.Fatalf("budget %d/%d: write fault swallowed", budget, full)
		}
	}
	var sink bytes.Buffer
	if err := WriteSnapshot(&faultio.Writer{W: &sink, Budget: full}, s); err != nil {
		t.Fatalf("full budget: %v", err)
	}
}

func TestSnapshotReadFault(t *testing.T) {
	enc := encodeSnapshot(t, testSnapshot())
	// A mid-stream read *error* (not EOF) must propagate, not be
	// misclassified as a torn tail or corruption-free result.
	_, err := ReadSnapshot(&faultio.Reader{R: bytes.NewReader(enc), Budget: int64(len(enc) / 2)})
	if err == nil {
		t.Fatal("read fault swallowed")
	}
}

func TestCostHash(t *testing.T) {
	a := [][]float64{{0, 1}, {1, 0}}
	b := [][]float64{{0, 1}, {1, 0}}
	if CostHash(a) != CostHash(b) {
		t.Fatal("identical matrices hash differently")
	}
	b[1][0] = 1.0000001
	if CostHash(a) == CostHash(b) {
		t.Fatal("value change not reflected in hash")
	}
	if CostHash(a) == CostHash([][]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}}) {
		t.Fatal("shape change not reflected in hash")
	}
}

func TestAtomicWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("first"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("second"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Fatalf("content %q, want %q", got, "second")
	}
	assertNoTempLitter(t, dir)
}

// TestAtomicWriteFileKeepsOldOnFailure fails the write callback at
// every plausible point and asserts the previous file is untouched and
// no temp file is left behind.
func TestAtomicWriteFileKeepsOldOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	payload := []byte("replacement-bytes-that-never-land")
	for budget := int64(0); budget <= int64(len(payload)); budget++ {
		err := AtomicWriteFile(path, func(w io.Writer) error {
			fw := &faultio.Writer{W: w, Budget: budget}
			if _, werr := fw.Write(payload); werr != nil {
				return werr
			}
			return faultio.ErrInjected // fail after a clean partial write too
		})
		if err == nil {
			t.Fatalf("budget %d: injected failure swallowed", budget)
		}
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if string(got) != "precious" {
			t.Fatalf("budget %d: previous snapshot damaged: %q", budget, got)
		}
		assertNoTempLitter(t, dir)
	}
}

func assertNoTempLitter(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}
