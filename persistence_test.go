package emdsearch

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"emdsearch/internal/persist"
)

// typedPersistErr reports whether err matches one of the three typed
// persistence sentinels. Every file-state failure of the persistence
// API must satisfy this; a raw gob/binary error reaching the caller is
// a bug.
func typedPersistErr(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersion) || errors.Is(err, ErrConfigMismatch)
}

// randHist returns a random normalized histogram.
func randHist(rng *rand.Rand, d int) Histogram {
	h := make(Histogram, d)
	var sum float64
	for i := range h {
		h[i] = rng.Float64() + 0.01
		sum += h[i]
	}
	for i := range h {
		h[i] /= sum
	}
	return h
}

// assertSameState fails unless got and want hold identical items,
// identical soft-deleted sets, and answer a probe KNN identically.
func assertSameState(t *testing.T, got, want *Engine, probe Histogram) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("recovered %d items, want %d", got.Len(), want.Len())
	}
	if got.Alive() != want.Alive() {
		t.Fatalf("recovered %d alive items, want %d", got.Alive(), want.Alive())
	}
	for i := 0; i < want.Len(); i++ {
		if got.Label(i) != want.Label(i) {
			t.Fatalf("item %d label %q, want %q", i, got.Label(i), want.Label(i))
		}
		gv, wv := got.Vector(i), want.Vector(i)
		if len(gv) != len(wv) {
			t.Fatalf("item %d has %d dims, want %d", i, len(gv), len(wv))
		}
		for j := range wv {
			if gv[j] != wv[j] {
				t.Fatalf("item %d component %d = %v, want %v", i, j, gv[j], wv[j])
			}
		}
		if got.Deleted(i) != want.Deleted(i) {
			t.Fatalf("item %d deleted=%v, want %v", i, got.Deleted(i), want.Deleted(i))
		}
	}
	k := want.Alive()
	if k > 3 {
		k = 3
	}
	if k == 0 {
		return
	}
	gres, _, gerr := got.KNN(probe, k)
	wres, _, werr := want.KNN(probe, k)
	if gerr != nil || werr != nil {
		t.Fatalf("probe KNN: got err %v, want err %v", gerr, werr)
	}
	for i := range wres {
		if gres[i].Index != wres[i].Index || math.Abs(gres[i].Dist-wres[i].Dist) > 1e-12 {
			t.Fatalf("probe KNN result %d: got %+v, want %+v", i, gres[i], wres[i])
		}
	}
}

// TestSaveLoadPersistsDeletes is the regression test for the
// resurrection bug: soft-deleted items must stay deleted across a
// save/load round-trip and stay excluded from every query kind.
func TestSaveLoadPersistsDeletes(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 6, SampleSize: 8}, 40)
	for _, id := range []int{3, 17, 39} {
		if err := eng.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf, eng.Cost(), Options{ReducedDims: 6, SampleSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Alive() != eng.Alive() {
		t.Fatalf("loaded engine has %d alive items, want %d", loaded.Alive(), eng.Alive())
	}
	for _, id := range []int{3, 17, 39} {
		if !loaded.Deleted(id) {
			t.Errorf("item %d resurrected by save/load round-trip", id)
		}
	}
	q := queries[0]
	res, _, err := loaded.KNN(q, loaded.Alive())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Index == 3 || r.Index == 17 || r.Index == 39 {
			t.Fatalf("KNN over loaded engine returned deleted item %d", r.Index)
		}
	}
	rr, _, err := loaded.Range(q, knnRadius(t, loaded, q, 10))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rr {
		if loaded.Deleted(r.Index) {
			t.Fatalf("Range over loaded engine returned deleted item %d", r.Index)
		}
	}
}

// TestLoadValidatesVectors asserts that tampered persisted histograms
// fail loading with ErrCorrupt instead of planting NaN/invalid data
// into the validated query paths.
func TestLoadValidatesVectors(t *testing.T) {
	d := 6
	cost := LinearCost(d)

	// A snapshot carrying a NaN histogram: the section CRC is valid
	// (the writer was fed bad data), so only re-validation on load can
	// catch it.
	nan := make([]float64, d)
	nan[0] = math.NaN()
	snap := &persist.Snapshot{
		Header: persist.Header{Dim: d, CostHash: persist.CostHash(cost), Items: 1},
		Items:  []persist.Item{{ID: 0, Label: "bad", Vector: nan}},
	}
	var buf bytes.Buffer
	if err := persist.WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(&buf, cost, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("snapshot NaN vector: err = %v, want ErrCorrupt", err)
	}

	// Unnormalized mass must be rejected the same way.
	heavy := make([]float64, d)
	for i := range heavy {
		heavy[i] = 1
	}
	snap.Items[0].Vector = heavy
	buf.Reset()
	if err := persist.WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(&buf, cost, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("snapshot unnormalized vector: err = %v, want ErrCorrupt", err)
	}

	// Out-of-range soft-delete ids are content corruption too.
	rng := rand.New(rand.NewSource(7))
	snap.Items[0].Vector = randHist(rng, d)
	snap.Deleted = []int{5}
	buf.Reset()
	if err := persist.WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(&buf, cost, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("snapshot out-of-range deleted id: err = %v, want ErrCorrupt", err)
	}
}

// TestLoadTypedErrors walks the snapshot-level failure taxonomy at the
// engine API: damage is ErrCorrupt, future formats are ErrVersion, and
// configuration disagreements are ErrConfigMismatch.
func TestLoadTypedErrors(t *testing.T) {
	eng, _ := buildEngine(t, Options{ReducedDims: 6, SampleSize: 8}, 20)
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	cost := eng.Cost()
	opts := Options{ReducedDims: 6, SampleSize: 8}

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0xff
	if _, err := LoadEngine(bytes.NewReader(flipped), cost, opts); !typedPersistErr(err) {
		t.Fatalf("bit flip: err = %v, want typed persistence error", err)
	}

	if _, err := LoadEngine(bytes.NewReader(good[:len(good)-7]), cost, opts); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated snapshot: err = %v, want ErrCorrupt", err)
	}

	if _, err := LoadEngine(bytes.NewReader([]byte("definitely not a snapshot")), cost, opts); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("stream without the magic: err = %v, want ErrCorrupt", err)
	}

	future := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(future[len(persist.Magic):], 99)
	if _, err := LoadEngine(bytes.NewReader(future), cost, opts); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: err = %v, want ErrVersion", err)
	}

	other := LinearCost(eng.Dim())
	if _, err := LoadEngine(bytes.NewReader(good), other, opts); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("different cost matrix: err = %v, want ErrConfigMismatch", err)
	}
	if _, err := LoadEngine(bytes.NewReader(good), LinearCost(eng.Dim()+1), opts); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("different dimensionality: err = %v, want ErrConfigMismatch", err)
	}
	if _, err := LoadEngine(bytes.NewReader(good), cost, Options{ReducedDims: 5, SampleSize: 8}); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("different d': err = %v, want ErrConfigMismatch", err)
	}
}

// TestWALCheckpointRecover drives the full durability loop: log
// mutations, checkpoint, keep mutating, then recover from the on-disk
// state as a crashed process would and compare against the live
// engine. It also covers the crash window inside Checkpoint — a new
// snapshot with a not-yet-rotated log — where replay must recognize
// every record as already applied.
func TestWALCheckpointRecover(t *testing.T) {
	d := 8
	rng := rand.New(rand.NewSource(23))
	cost := LinearCost(d)
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "engine.snap")
	walPath := filepath.Join(dir, "engine.wal")

	eng, err := NewEngine(cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := eng.Add("pre", randHist(rng, d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Checkpoint(snapPath); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := eng.Add("post", randHist(rng, d)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{2, 12} {
		if err := eng.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	probe := randHist(rng, d)

	// Crash now: recover purely from disk.
	rec, stats, err := RecoverEngine(snapPath, walPath, cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.SnapshotLoaded {
		t.Error("recovery did not load the snapshot")
	}
	if stats.WALRecords != 7 || stats.WALSkipped != 0 || stats.TornBytes != 0 {
		t.Errorf("stats = %+v, want 7 applied, 0 skipped, 0 torn", *stats)
	}
	assertSameState(t, rec, eng, probe)

	// Crash inside Checkpoint, after the snapshot rename but before
	// the log rotation: the snapshot already contains every logged
	// mutation, so replay must skip all of them.
	if err := eng.SaveFile(snapPath); err != nil {
		t.Fatal(err)
	}
	rec, stats, err = RecoverEngine(snapPath, walPath, cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WALRecords != 0 || stats.WALSkipped != 7 {
		t.Errorf("post-snapshot stats = %+v, want 0 applied, 7 skipped", *stats)
	}
	assertSameState(t, rec, eng, probe)

	// Completed checkpoint: the log is empty again.
	if err := eng.Checkpoint(snapPath); err != nil {
		t.Fatal(err)
	}
	rec, stats, err = RecoverEngine(snapPath, walPath, cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WALRecords != 0 || stats.WALSkipped != 0 {
		t.Errorf("post-checkpoint stats = %+v, want empty log", *stats)
	}
	assertSameState(t, rec, eng, probe)

	m := eng.Metrics()
	if m.WALAppends != 17 {
		t.Errorf("WALAppends = %d, want 17", m.WALAppends)
	}
	if m.Checkpoints != 2 {
		t.Errorf("Checkpoints = %d, want 2", m.Checkpoints)
	}
	if m.SnapshotSaves != 3 {
		t.Errorf("SnapshotSaves = %d, want 3", m.SnapshotSaves)
	}
	if rm := rec.Metrics(); rm.WALReplayed != 0 {
		t.Errorf("recovered engine WALReplayed = %d, want 0", rm.WALReplayed)
	}
	if err := eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverWALOnly recovers from a log with no snapshot at all — the
// engine never checkpointed before the crash.
func TestRecoverWALOnly(t *testing.T) {
	d := 6
	rng := rand.New(rand.NewSource(31))
	cost := LinearCost(d)
	dir := t.TempDir()
	walPath := filepath.Join(dir, "engine.wal")

	eng, err := NewEngine(cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := eng.Add("x", randHist(rng, d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Delete(4); err != nil {
		t.Fatal(err)
	}
	rec, stats, err := RecoverEngine(filepath.Join(dir, "missing.snap"), walPath, cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotLoaded {
		t.Error("recovery claims to have loaded a nonexistent snapshot")
	}
	if stats.WALRecords != 7 {
		t.Errorf("WALRecords = %d, want 7", stats.WALRecords)
	}
	if m := rec.Metrics(); m.WALReplayed != 7 {
		t.Errorf("WALReplayed = %d, want 7", m.WALReplayed)
	}
	assertSameState(t, rec, eng, randHist(rng, d))
}

// TestOpenWALGuards covers the refusal paths of OpenWAL: double open,
// and attaching a log that holds mutations the engine does not have
// (which silently re-logging would strand forever).
func TestOpenWALGuards(t *testing.T) {
	d := 6
	rng := rand.New(rand.NewSource(41))
	cost := LinearCost(d)
	dir := t.TempDir()
	walPath := filepath.Join(dir, "engine.wal")

	eng, err := NewEngine(cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenWAL(filepath.Join(dir, "other.wal")); err == nil {
		t.Fatal("second OpenWAL succeeded")
	}
	if _, err := eng.Add("x", randHist(rng, d)); err != nil {
		t.Fatal(err)
	}
	if err := eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// A fresh engine must not adopt the populated log as-is.
	fresh, err := NewEngine(cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.OpenWAL(walPath); err == nil {
		t.Fatal("OpenWAL adopted a log holding unapplied mutations")
	}

	// The sanctioned sequence: recover, then reopen. A log that is
	// exactly the engine's history (or a prefix of it) is safe to
	// adopt — appends continue it and replay stays idempotent.
	rec, _, err := RecoverEngine(filepath.Join(dir, "missing.snap"), walPath, cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.OpenWAL(walPath); err != nil {
		t.Fatalf("OpenWAL after recovery: %v", err)
	}
	if _, err := rec.Add("y", randHist(rng, d)); err != nil {
		t.Fatal(err)
	}
	if err := rec.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	again, stats, err := RecoverEngine(filepath.Join(dir, "missing.snap"), walPath, cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WALRecords != 2 {
		t.Fatalf("continued log replayed %d records, want 2", stats.WALRecords)
	}
	assertSameState(t, again, rec, randHist(rng, d))

	// A same-shape engine with a different ground distance must be
	// rejected by the configuration fingerprint.
	other := LinearCost(d)
	for i := range other {
		for j := range other[i] {
			other[i][j] *= 2
		}
	}
	oeng, err := NewEngine(other, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := oeng.OpenWAL(walPath); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("foreign-cost OpenWAL: err = %v, want ErrConfigMismatch", err)
	}
}

// TestSaveFileAtomicity checks the file-level contract of SaveFile: a
// failed write leaves the previous snapshot untouched, a successful
// one replaces it completely.
func TestSaveFileAtomicity(t *testing.T) {
	eng, _ := buildEngine(t, Options{}, 10)
	dir := t.TempDir()
	path := filepath.Join(dir, "engine.snap")
	if err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveFile(filepath.Join(dir, "no-such-dir", "engine.snap")); err == nil {
		t.Fatal("SaveFile into a missing directory succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed SaveFile disturbed an unrelated snapshot")
	}
	if _, err := eng.Add("extra", randHist(rand.New(rand.NewSource(1)), eng.Dim())); err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngineFile(path, eng.Cost(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != eng.Len() {
		t.Fatalf("reloaded %d items, want %d", loaded.Len(), eng.Len())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "engine.snap" {
			t.Errorf("stray file %q left in snapshot directory", e.Name())
		}
	}
}

// TestConcurrentMutateCheckpointQuery exercises the durability path
// under concurrency: writers appending to the WAL, a checkpointer
// rotating it, and readers querying, all at once. Run under -race this
// is the synchronization regression test for the WAL plumbing.
func TestConcurrentMutateCheckpointQuery(t *testing.T) {
	d := 6
	cost := LinearCost(d)
	dir := t.TempDir()
	eng, err := NewEngine(cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenWAL(filepath.Join(dir, "engine.wal")); err != nil {
		t.Fatal(err)
	}
	seed := rand.New(rand.NewSource(99))
	for i := 0; i < 4; i++ {
		if _, err := eng.Add("seed", randHist(seed, d)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	wg.Add(3)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 30; i++ {
			if _, err := eng.Add("w", randHist(rng, d)); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := eng.Checkpoint(filepath.Join(dir, "engine.snap")); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 30; i++ {
			if _, _, err := eng.KNN(randHist(rng, d), 2); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	// The final on-disk state must still recover to the live state.
	if err := eng.SaveFile(filepath.Join(dir, "engine.snap")); err != nil {
		t.Fatal(err)
	}
	rec, _, err := RecoverEngine(filepath.Join(dir, "engine.snap"), filepath.Join(dir, "engine.wal"), cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameState(t, rec, eng, randHist(seed, d))
}

// snapshotFrames splits a snapshot file into its framed sections,
// each with its length words and checksum. Frame lengths are
// self-describing, so no section is decoded.
func snapshotFrames(t *testing.T, raw []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for off := len(persist.Magic) + 4; off < len(raw); {
		if off+12 > len(raw) {
			t.Fatalf("snapshot too short walking frame %d", len(frames))
		}
		end := off + 12 + int(binary.LittleEndian.Uint32(raw[off:]))
		frames = append(frames, raw[off:end])
		off = end
	}
	return frames
}

// forgeSnapshot assembles a snapshot file of the given format version
// from framed sections.
func forgeSnapshot(version uint32, frames ...[]byte) []byte {
	out := binary.LittleEndian.AppendUint32([]byte(persist.Magic), version)
	for _, f := range frames {
		out = append(out, f...)
	}
	return out
}

// TestLoadV1Snapshot: version-1 files (four frames, no quantized
// filter) are no longer read; loading one fails with ErrVersion.
func TestLoadV1Snapshot(t *testing.T) {
	opts := Options{ReducedDims: 6, SampleSize: 8}
	eng, _ := buildEngine(t, opts, 40)
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v1 := forgeSnapshot(1, snapshotFrames(t, buf.Bytes())[:4]...)
	if _, err := persist.ReadSnapshot(bytes.NewReader(v1)); !errors.Is(err, ErrVersion) {
		t.Fatalf("ReadSnapshot of a version-1 file: err = %v, want ErrVersion", err)
	}
	if _, err := LoadEngine(bytes.NewReader(v1), eng.Cost(), opts); !errors.Is(err, ErrVersion) {
		t.Fatalf("LoadEngine of a version-1 file: err = %v, want ErrVersion", err)
	}
}

// TestReopenWALRetryBounds pins the retry loop's timing: attempts-1
// jittered sleeps drawn from the 1ms, 2ms, 4ms ... schedule, each at
// least half its nominal delay (the jitter floor), none after the
// final failure, and an early return the moment the context ends.
func TestReopenWALRetryBounds(t *testing.T) {
	eng, err := NewEngine(LinearCost(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// No WAL attached: every reopen fails instantly, so elapsed time
	// is the sleeps alone. attempts=4 sleeps ~1ms+2ms+4ms nominal,
	// floored at half by the jitter.
	start := time.Now()
	err = eng.ReopenWALRetry(context.Background(), 4)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ReopenWALRetry succeeded with no WAL attached")
	}
	if min := 3500 * time.Microsecond; elapsed < min {
		t.Fatalf("4 attempts took %v, below the %v jitter floor", elapsed, min)
	}
	if max := 2 * time.Second; elapsed > max {
		t.Fatalf("4 attempts took %v; the schedule is 1+2+4ms nominal", elapsed)
	}

	// Context expiry interrupts the backoff sleep.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start = time.Now()
	err = eng.ReopenWALRetry(ctx, 1000)
	elapsed = time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancelled retry loop ran %v past a 10ms deadline", elapsed)
	}

	// A healthy WAL heals on the first try: no sleeps.
	dir := t.TempDir()
	if err := eng.OpenWAL(filepath.Join(dir, "engine.wal")); err != nil {
		t.Fatal(err)
	}
	defer eng.CloseWAL()
	if err := eng.ReopenWALRetry(context.Background(), 3); err != nil {
		t.Fatalf("healthy reopen: %v", err)
	}
}
