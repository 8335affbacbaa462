package emdsearch

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"emdsearch/internal/persist"
	"emdsearch/internal/persist/faultio"
)

// faultWALFile is a persist.WALFile whose writes go through a
// fault-injecting writer and whose rollback truncates fail — the exact
// combination that latches a WAL broken (a failed append that cannot
// be rolled back).
type faultWALFile struct {
	w io.Writer
}

func (f *faultWALFile) Write(p []byte) (int, error) { return f.w.Write(p) }
func (f *faultWALFile) Sync() error                 { return nil }
func (f *faultWALFile) Truncate(int64) error        { return faultio.ErrInjected }
func (f *faultWALFile) Close() error                { return nil }

// TestReopenWALAfterBreak drives an engine's WAL into the broken state
// with injected write+truncate faults, asserts mutations fail loudly
// with ErrWALBroken while the in-memory state stays consistent, then
// heals the log with ReopenWALRetry and verifies durable logging resumes —
// including that a post-recovery crash replay sees every acknowledged
// mutation and nothing else.
func TestReopenWALAfterBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const d = 4
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal")

	eng, err := NewEngine(LinearCost(d), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.Add("pre", randHist(rng, d)); err != nil {
			t.Fatalf("pre-fault add %d: %v", i, err)
		}
	}

	// Swap in a file whose writes fail immediately and whose rollback
	// truncate fails too; keep the real handle to close it.
	real := eng.wal.SwapFileForTest(&faultWALFile{w: &faultio.Writer{W: io.Discard, Budget: 0}})

	if _, err := eng.Add("broken", randHist(rng, d)); err == nil {
		t.Fatal("Add with failing WAL file succeeded")
	} else if !errors.Is(err, ErrWALBroken) {
		t.Fatalf("first failed add: err = %v, want ErrWALBroken", err)
	}
	// The latch is sticky: every further mutation fails the same way,
	// and none of them leaks into memory.
	if _, err := eng.Add("still-broken", randHist(rng, d)); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("second failed add: err = %v, want ErrWALBroken", err)
	}
	if eng.Len() != 3 {
		t.Fatalf("engine holds %d items after failed adds, want 3", eng.Len())
	}

	if err := real.Close(); err != nil {
		t.Fatalf("close displaced wal file: %v", err)
	}
	if err := eng.ReopenWALRetry(context.Background(), 1); err != nil {
		t.Fatalf("ReopenWALRetry: %v", err)
	}
	if _, err := eng.Add("post", randHist(rng, d)); err != nil {
		t.Fatalf("post-recovery add: %v", err)
	}
	if err := eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// Crash-replay the log: exactly the 4 acknowledged adds, in order.
	recs, scan, err := persist.ReplayWAL(walPath, persist.WALHeader{Dim: d, CostHash: persist.CostHash(eng.Cost())})
	if err != nil {
		t.Fatalf("replay after recovery: %v", err)
	}
	if scan.TornBytes != 0 {
		t.Fatalf("recovered log has %d torn bytes, want 0", scan.TornBytes)
	}
	if len(recs) != 4 {
		t.Fatalf("recovered log holds %d records, want 4", len(recs))
	}
	if recs[3].Label != "post" {
		t.Fatalf("last record label %q, want post", recs[3].Label)
	}
	rec, _, err := RecoverEngine(filepath.Join(dir, "nosnap"), walPath, eng.Cost(), Options{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	assertSameState(t, rec, eng, randHist(rng, d))
}

// TestReopenWALWithoutWAL documents the error contract: reopening an
// engine that never attached a log fails rather than silently creating
// one.
func TestReopenWALWithoutWAL(t *testing.T) {
	eng, err := NewEngine(LinearCost(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ReopenWALRetry(context.Background(), 1); err == nil {
		t.Fatal("ReopenWALRetry without an attached WAL succeeded")
	}
}

// TestReopenWALFailedAttemptKeepsLog: a reopen attempt that cannot open
// the file leaves the log attached, so mutations fail instead of going
// unlogged, and a later attempt reopens the same path once it heals.
func TestReopenWALFailedAttemptKeepsLog(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const d = 4
	walPath := filepath.Join(t.TempDir(), "wal")
	eng, err := NewEngine(LinearCost(d), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	defer eng.CloseWAL()
	if _, err := eng.Add("pre", randHist(rng, d)); err != nil {
		t.Fatal(err)
	}

	// The path stops being a file: the reopen attempt fails.
	if err := os.Rename(walPath, walPath+".moved"); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(walPath, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := eng.ReopenWALRetry(context.Background(), 1); err == nil {
		t.Fatal("reopen over a directory succeeded")
	}
	if _, err := eng.Add("unlogged", randHist(rng, d)); err == nil {
		t.Fatal("Add succeeded while the log could not be reopened")
	}
	if eng.Len() != 1 {
		t.Fatalf("engine holds %d items after a failed add, want 1", eng.Len())
	}

	// The fault heals: the next attempt reopens the same path.
	if err := os.Remove(walPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(walPath+".moved", walPath); err != nil {
		t.Fatal(err)
	}
	if err := eng.ReopenWALRetry(context.Background(), 1); err != nil {
		t.Fatalf("reopen after the fault healed: %v", err)
	}
	if _, err := eng.Add("post", randHist(rng, d)); err != nil {
		t.Fatalf("add after reopen: %v", err)
	}
	recs, _, err := persist.ReplayWAL(walPath, persist.WALHeader{Dim: d, CostHash: persist.CostHash(eng.Cost())})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Label != "pre" || recs[1].Label != "post" {
		t.Fatalf("log holds %+v, want the pre and post adds", recs)
	}
}
