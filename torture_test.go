package emdsearch

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"emdsearch/internal/persist"
)

// The recovery torture harness. Every test here simulates crashes and
// disk damage at the granularity of single bytes and asserts the one
// durability contract that matters: recovery either reproduces exactly
// the acknowledged pre-crash state (items, soft-deletes, KNN answers)
// or fails with a typed error. It must never panic and never return a
// silently diverged engine.

// tortureOp is one scripted mutation: an Add when del is false, a
// Delete of id when del is true.
type tortureOp struct {
	del   bool
	id    int
	label string
	vec   Histogram
}

// tortureScript builds a deterministic mutation sequence: adds
// interleaved with deletes of earlier ids.
func tortureScript(rng *rand.Rand, d, adds int) []tortureOp {
	var ops []tortureOp
	next := 0
	for i := 0; i < adds; i++ {
		ops = append(ops, tortureOp{label: fmt.Sprintf("item-%d", next), vec: randHist(rng, d)})
		next++
		// Every third add is followed by a delete of an earlier item.
		if i%3 == 2 {
			ops = append(ops, tortureOp{del: true, id: next - 2})
		}
	}
	return ops
}

// applyOps replays ops[:k] onto a fresh engine without any logging,
// producing the reference state for a crash after the k-th
// acknowledged mutation.
func applyOps(t *testing.T, cost CostMatrix, ops []tortureOp, k int) *Engine {
	t.Helper()
	e, err := NewEngine(cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:k] {
		if op.del {
			if err := e.Delete(op.id); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := e.Add(op.label, op.vec); err != nil {
				t.Fatal(err)
			}
		}
	}
	return e
}

// runTortureScript executes the script against a WAL-backed engine,
// returning the engine, the raw log bytes, and the acknowledged log
// size after each mutation (sizes[k] = bytes on disk once ops[:k] are
// acknowledged; sizes[0] is the preamble).
func runTortureScript(t *testing.T, cost CostMatrix, ops []tortureOp, walPath string) (*Engine, []byte, []int64) {
	t.Helper()
	eng, err := NewEngine(cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	sizes := []int64{walSize(t, walPath)}
	for _, op := range ops {
		if op.del {
			if err := eng.Delete(op.id); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := eng.Add(op.label, op.vec); err != nil {
				t.Fatal(err)
			}
		}
		sizes = append(sizes, walSize(t, walPath))
	}
	if err := eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != sizes[len(sizes)-1] {
		t.Fatalf("log is %d bytes, acknowledged size is %d", len(raw), sizes[len(sizes)-1])
	}
	return eng, raw, sizes
}

func walSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestTortureWALCutMatrix cuts the log after every single byte —
// simulating a crash at every possible point of every append — and
// demands that recovery lands exactly on the longest fully
// acknowledged mutation prefix, with identical KNN answers.
func TestTortureWALCutMatrix(t *testing.T) {
	d := 6
	cost := LinearCost(d)
	rng := rand.New(rand.NewSource(61))
	ops := tortureScript(rng, d, 12)
	dir := t.TempDir()
	_, raw, sizes := runTortureScript(t, cost, ops, filepath.Join(dir, "full.wal"))
	probe := randHist(rng, d)
	missingSnap := filepath.Join(dir, "missing.snap")
	cutPath := filepath.Join(dir, "cut.wal")

	// references[k] is the expected engine after ops[:k].
	references := make([]*Engine, len(ops)+1)
	for k := range references {
		references[k] = applyOps(t, cost, ops, k)
	}

	for cut := 0; cut <= len(raw); cut++ {
		if err := os.WriteFile(cutPath, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, stats, err := RecoverEngine(missingSnap, cutPath, cost, Options{})
		if err != nil {
			t.Fatalf("cut at %d: recovery failed: %v", cut, err)
		}
		// The expected surviving prefix: every mutation whose
		// acknowledged log size fits inside the cut.
		k := 0
		for k+1 < len(sizes) && sizes[k+1] <= int64(cut) {
			k++
		}
		wantTorn := int64(cut) - sizes[k]
		if int64(cut) < sizes[0] {
			wantTorn = int64(cut) // crash inside the preamble: all torn
		}
		if stats.TornBytes != wantTorn {
			t.Fatalf("cut at %d: TornBytes = %d, want %d", cut, stats.TornBytes, wantTorn)
		}
		assertSameState(t, rec, references[k], probe)
	}
}

// TestTortureWALFlipMatrix flips every single byte of the finished log
// in turn. A flip is damage, not a crash: recovery must refuse with a
// typed error every time — truncating or absorbing damaged records
// would be silent data loss.
func TestTortureWALFlipMatrix(t *testing.T) {
	d := 6
	cost := LinearCost(d)
	rng := rand.New(rand.NewSource(67))
	ops := tortureScript(rng, d, 10)
	dir := t.TempDir()
	_, raw, _ := runTortureScript(t, cost, ops, filepath.Join(dir, "full.wal"))
	missingSnap := filepath.Join(dir, "missing.snap")
	flipPath := filepath.Join(dir, "flip.wal")

	for i := 0; i < len(raw); i++ {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0xff
		if err := os.WriteFile(flipPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := RecoverEngine(missingSnap, flipPath, cost, Options{})
		if err == nil {
			t.Fatalf("flip at byte %d: recovery accepted a damaged log", i)
		}
		if !typedPersistErr(err) {
			t.Fatalf("flip at byte %d: err = %v, want a typed persistence error", i, err)
		}
	}
}

// TestTortureSnapshotFlipMatrix flips every byte of a snapshot file.
// Loading must fail typed every time — including flips in the magic
// and the version word — and never surface a raw gob error.
func TestTortureSnapshotFlipMatrix(t *testing.T) {
	d := 6
	cost := LinearCost(d)
	rng := rand.New(rand.NewSource(71))
	eng, err := NewEngine(cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := eng.Add(fmt.Sprintf("s%d", i), randHist(rng, d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Delete(2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	for i := 0; i < len(good); i++ {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0xff
		_, err := LoadEngine(bytes.NewReader(mut), cost, Options{})
		if err == nil {
			t.Fatalf("flip at byte %d: load accepted a damaged snapshot", i)
		}
		if !typedPersistErr(err) {
			t.Fatalf("flip at byte %d: err = %v, want a typed persistence error", i, err)
		}
	}
}

// TestTortureCheckpointCrashPoints simulates a crash after every
// mutation of a live run that checkpoints midway, by snapshotting the
// on-disk state (log + latest checkpoint file) at each step and
// recovering from the copies. Whatever the interleaving of checkpoint
// and mutations, recovery must land on the exact acknowledged state.
func TestTortureCheckpointCrashPoints(t *testing.T) {
	d := 6
	cost := LinearCost(d)
	rng := rand.New(rand.NewSource(73))
	ops := tortureScript(rng, d, 12)
	checkpointAfter := map[int]bool{4: true, 9: true}
	probe := randHist(rng, d)

	dir := t.TempDir()
	walPath := filepath.Join(dir, "engine.wal")
	snapPath := filepath.Join(dir, "engine.snap")
	scratch := filepath.Join(dir, "crash")
	if err := os.Mkdir(scratch, 0o755); err != nil {
		t.Fatal(err)
	}

	eng, err := NewEngine(cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	for k, op := range ops {
		if op.del {
			if err := eng.Delete(op.id); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := eng.Add(op.label, op.vec); err != nil {
				t.Fatal(err)
			}
		}
		if checkpointAfter[k] {
			if err := eng.Checkpoint(snapPath); err != nil {
				t.Fatal(err)
			}
		}

		// Crash here: freeze the on-disk state and recover from it.
		crashWAL := filepath.Join(scratch, "crash.wal")
		crashSnap := filepath.Join(scratch, "crash.snap")
		copyIfExists(t, walPath, crashWAL)
		copyIfExists(t, snapPath, crashSnap)
		rec, _, err := RecoverEngine(crashSnap, crashWAL, cost, Options{})
		if err != nil {
			t.Fatalf("crash after op %d: recovery failed: %v", k, err)
		}
		assertSameState(t, rec, applyOps(t, cost, ops, k+1), probe)
	}
	if err := eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// copyIfExists copies src to dst, removing dst if src does not exist.
func copyIfExists(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if os.IsNotExist(err) {
		if err := os.Remove(dst); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTortureSnapshotQuantFlipMatrix flips every byte of the fifth
// frame of a version-4 fixture, the cached quantized filter that
// readers skip without decoding. Skipping must not mean trusting: the
// frame's length words and checksum are still checked, so every flip
// fails typed.
func TestTortureSnapshotQuantFlipMatrix(t *testing.T) {
	raw, err := os.ReadFile("testdata/v4_auto_2_4.snap")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Hierarchy: []int{4, 2}, SampleSize: 6, Seed: 11}
	cost := LinearCost(8)
	if _, err := LoadEngine(bytes.NewReader(raw), cost, opts); err != nil {
		t.Fatal(err)
	}
	frames := snapshotFrames(t, raw)
	start := len(persist.Magic) + 4
	for _, f := range frames[:4] {
		start += len(f)
	}
	for i := start; i < start+len(frames[4]); i++ {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0xff
		_, err := LoadEngine(bytes.NewReader(mut), cost, opts)
		if err == nil {
			t.Fatalf("flip at byte %d: load accepted a damaged quantized-filter frame", i)
		}
		if !typedPersistErr(err) {
			t.Fatalf("flip at byte %d: err = %v, want a typed persistence error", i, err)
		}
	}
}
