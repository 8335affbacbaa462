package emdsearch

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"emdsearch/internal/data"
	"emdsearch/internal/persist"
	"emdsearch/internal/vptree"
)

// indexOpts returns a forced-index engine configuration over the
// shared seeded dataset.
func indexOpts(kind string) Options {
	return Options{ReducedDims: 8, SampleSize: 10, IndexKind: kind}
}

func TestNewEngineIndexKindValidation(t *testing.T) {
	for _, kind := range []string{"bogus", "mtree"} {
		if _, err := NewEngine(LinearCost(4), Options{ReducedDims: 2, IndexKind: kind}); err == nil {
			t.Errorf("accepted unknown IndexKind %q", kind)
		}
	}
	for _, kind := range []string{IndexAuto, IndexVPTree, IndexOff} {
		if _, err := NewEngine(LinearCost(4), Options{ReducedDims: 2, IndexKind: kind}); err != nil {
			t.Errorf("rejected valid IndexKind %q: %v", kind, err)
		}
	}
}

// TestIndexDeleteThenKNN is the Delete-then-query regression through
// the index path: soft-deleted items are in the persisted-shape tree
// but must be filtered at emission, so they can never surface in any
// answer, and the answers must match a scan engine with the same
// deletes bit for bit.
func TestIndexDeleteThenKNN(t *testing.T) {
	t.Run("vptree", func(t *testing.T) {
		const n, k = 120, 6
		scan, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 10}, n)
		eng, _ := buildEngine(t, indexOpts(IndexVPTree), n)
		// First query builds the tree over all live items...
		if _, _, err := eng.KNN(queries[0], k); err != nil {
			t.Fatal(err)
		}
		// ...then deletes punch holes the traversal must skip.
		dead := []int{3, 11, 42, 43, 77}
		for _, id := range dead {
			if err := eng.Delete(id); err != nil {
				t.Fatal(err)
			}
			if err := scan.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		for qi, q := range queries {
			want, _, err := scan.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := eng.KNN(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !stats.IndexUsed {
				t.Fatalf("query %d: forced index not used", qi)
			}
			sameResults(t, "vptree", "KNN", got, want)
			for _, r := range got {
				for _, id := range dead {
					if r.Index == id {
						t.Fatalf("query %d returned deleted item %d", qi, id)
					}
				}
			}
		}
	})
}

// TestIndexAutoDeclinesSmallCorpus: auto mode must not pay tree-build
// or traversal costs on a corpus far below the break-even size — the
// normal stage chain serves the query.
func TestIndexAutoDeclinesSmallCorpus(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 10, IndexKind: IndexAuto}, 100)
	_, stats, err := eng.KNN(queries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.IndexUsed {
		t.Fatal("auto mode used an index on a 100-item corpus")
	}
	if m := eng.Metrics(); m.IndexBuilds != 0 {
		t.Fatalf("IndexBuilds = %d, want 0", m.IndexBuilds)
	}
	checkStageAccounting(t, eng, stats, []string{"Potentials", "Q-Red-IM", "Red-IM", "Red-EMD"})
}

// TestIndexOffDisables: IndexOff must behave exactly like the
// pre-index engine.
func TestIndexOffDisables(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 10, IndexKind: IndexOff}, 60)
	_, stats, err := eng.KNN(queries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.IndexUsed || eng.Metrics().IndexBuilds != 0 {
		t.Fatal("IndexOff still built or used an index")
	}
}

// TestIndexChurnBackgroundRebuild: deleting past the churn threshold
// triggers a background rebuild that compacts the soft-deleted tail
// out of the tree; queries stay correct before, during and after.
func TestIndexChurnBackgroundRebuild(t *testing.T) {
	const n, k = 90, 4
	eng, queries := buildEngine(t, indexOpts(IndexVPTree), n)
	scan, _ := buildEngine(t, Options{ReducedDims: 8, SampleSize: 10}, n)
	if _, _, err := eng.KNN(queries[0], k); err != nil {
		t.Fatal(err)
	}
	// Delete 40% of the corpus — far past the 30% churn threshold.
	for id := 0; id < 36; id++ {
		if err := eng.Delete(id); err != nil {
			t.Fatal(err)
		}
		if err := scan.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	// This query reuses the stale tree (still correct: deleted items
	// are skipped at emission) and kicks off the background rebuild.
	want, _, err := scan.KNN(queries[0], k)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := eng.KNN(queries[0], k)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.IndexUsed {
		t.Fatal("index not used on the churned tree")
	}
	sameResults(t, "vptree-churned", "KNN", got, want)

	deadline := time.Now().Add(10 * time.Second)
	for eng.Metrics().IndexBuilds < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("background rebuild did not complete: builds=%d", eng.Metrics().IndexBuilds)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Post-rebuild queries run the compacted tree and stay identical.
	for _, q := range queries {
		want, _, err := scan.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := eng.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.IndexUsed {
			t.Fatal("index not used after rebuild")
		}
		sameResults(t, "vptree-rebuilt", "KNN", got, want)
	}
}

// TestSaveLoadIndexSection round-trips the VP-tree through the
// version-3 snapshot: the saved tree must be adopted on load (no
// rebuild), the loaded engine must answer identically, and a
// fingerprint mismatch must fall back to a silent rebuild — never an
// error, never a wrong answer.
func TestSaveLoadIndexSection(t *testing.T) {
	opts := indexOpts(IndexVPTree)
	eng, queries := buildEngine(t, opts, 80)
	q := queries[0]
	want, _, err := eng.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	snap, err := persist.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Index == nil {
		t.Fatal("snapshot of a queried indexed engine carries no index section")
	}
	if snap.Index.Kind != IndexVPTree || snap.Index.N != eng.Len() {
		t.Fatalf("index section kind=%q N=%d, want %q/%d", snap.Index.Kind, snap.Index.N, IndexVPTree, eng.Len())
	}

	loaded, err := LoadEngine(bytes.NewReader(raw), eng.Cost(), opts)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := loaded.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.IndexUsed {
		t.Fatal("loaded engine did not use the index")
	}
	sameResults(t, "loaded", "KNN", got, want)
	if m := loaded.Metrics(); m.IndexReuses != 1 || m.IndexBuilds != 0 {
		t.Errorf("loaded engine reuses=%d builds=%d, want 1/0 (saved tree adopted)", m.IndexReuses, m.IndexBuilds)
	}
	// The restored tree flattens to the saved one, ancestor rows and
	// the older fields derived from them included.
	if f := decodeFlat(t, snap.Index.Blob); len(f.Nodes) < 2 || len(f.Nodes[1].Rows) == 0 {
		t.Fatal("saved tree carries no ancestor rows")
	}
	if a, b := flatBytes(t, eng.savedIndex.vt), flatBytes(t, loaded.savedIndex.vt); !bytes.Equal(a, b) {
		t.Error("restored tree flattens differently from the saved one")
	}

	// Fingerprint mismatch: a snapshot whose index section carries a
	// foreign reduction hash decodes fine but must be rebuilt, not
	// trusted.
	stale, err := persist.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	stale.Index.RedHash ^= 0xdeadbeef
	var staleBuf bytes.Buffer
	if err := persist.WriteSnapshot(&staleBuf, stale); err != nil {
		t.Fatal(err)
	}
	staleLoaded, err := LoadEngine(bytes.NewReader(staleBuf.Bytes()), eng.Cost(), opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = staleLoaded.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "stale-hash", "KNN", got, want)
	if m := staleLoaded.Metrics(); m.IndexReuses != 0 || m.IndexBuilds != 1 {
		t.Errorf("fingerprint mismatch reuses=%d builds=%d, want 0/1 (silent rebuild)", m.IndexReuses, m.IndexBuilds)
	}
}

// TestLoadV2SnapshotIndexCompat: a version-2 file (no index frame)
// must load cleanly; an index-configured engine builds the tree from
// the items and answers equal brute force. The file is forged from a
// committed version-4 fixture (see TestLoadLegacyMTreeSnapshot) by
// keeping its first five frames, the fifth being the quantized filter
// a version-2 file carries.
func TestLoadV2SnapshotIndexCompat(t *testing.T) {
	raw, err := os.ReadFile("testdata/v4_vptree_index.snap")
	if err != nil {
		t.Fatal(err)
	}
	v2 := forgeSnapshot(2, snapshotFrames(t, raw)[:5]...)
	snap, err := persist.ReadSnapshot(bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("version-2 snapshot rejected: %v", err)
	}
	if snap.Index != nil {
		t.Fatal("version-2 snapshot decoded an index section")
	}
	opts := Options{ReducedDims: 4, SampleSize: 6, Seed: 11, IndexKind: IndexVPTree}
	loaded, err := LoadEngine(bytes.NewReader(v2), LinearCost(8), opts)
	if err != nil {
		t.Fatal(err)
	}
	q := randHist(rand.New(rand.NewSource(7)), 8)
	if stats := checkExactKNN(t, "v2", loaded, q, 5); !stats.IndexUsed {
		t.Fatal("v2-loaded engine did not build the index")
	}
	if m := loaded.Metrics(); m.IndexBuilds != 1 || m.IndexReuses != 0 {
		t.Errorf("v2 load builds=%d reuses=%d, want 1/0", m.IndexBuilds, m.IndexReuses)
	}
}

// TestLoadRejectsBadIndexSection covers CRC-valid but semantically
// damaged index sections: the frame decodes fine, so only load-time
// re-validation stands between the bytes and a structurally broken
// tree in the query path. Every case must fail with ErrCorrupt.
func TestLoadRejectsBadIndexSection(t *testing.T) {
	opts := indexOpts(IndexVPTree)
	eng, _ := buildEngine(t, opts, 40)
	if _, _, err := eng.KNN(randHist(rand.New(rand.NewSource(3)), eng.Dim()), 3); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	fresh := func() *persist.Snapshot {
		s, err := persist.ReadSnapshot(bytes.NewReader(good))
		if err != nil {
			t.Fatal(err)
		}
		if s.Index == nil {
			t.Fatal("fixture carries no index section")
		}
		return s
	}
	// editFlat mutates the decoded tree of the section and re-encodes it.
	editFlat := func(edit func(f *vptree.Flat)) func(s *persist.Snapshot) {
		return func(s *persist.Snapshot) {
			f := decodeFlat(t, s.Index.Blob)
			edit(f)
			var blob bytes.Buffer
			if err := gob.NewEncoder(&blob).Encode(f); err != nil {
				t.Fatal(err)
			}
			s.Index.Blob = blob.Bytes()
		}
	}
	cases := []struct {
		name   string
		mutate func(s *persist.Snapshot)
	}{
		{"unknown kind", func(s *persist.Snapshot) { s.Index.Kind = "rtree" }},
		{"coverage mismatch", func(s *persist.Snapshot) { s.Index.N-- }},
		{"negative deleted count", func(s *persist.Snapshot) { s.Index.DeletedAtBuild = -1 }},
		{"garbage blob", func(s *persist.Snapshot) { s.Index.Blob = []byte{0xff, 0x00, 0x13} }},
		{"truncated blob", func(s *persist.Snapshot) { s.Index.Blob = s.Index.Blob[:len(s.Index.Blob)/2] }},
		// The root's inside annulus swapped end for end: every field is
		// finite and the tree well formed, but triangle keys built from
		// it overshoot exact distances.
		{"inverted annulus", editFlat(func(f *vptree.Flat) {
			r := &f.Nodes[0]
			if r.Inside < 0 || r.ILo >= r.IHi {
				t.Fatalf("fixture root has no nondegenerate inside annulus: %+v", *r)
			}
			r.ILo, r.IHi = r.IHi, r.ILo
		})},
		// The ancestor rows the stream's keys derive from: one entry
		// short, a NaN entry, and an older field the rows contradict.
		{"short row", editFlat(func(f *vptree.Flat) {
			rows := &f.Nodes[len(f.Nodes)-1].Rows
			*rows = (*rows)[:len(*rows)-1]
		})},
		{"NaN row entry", editFlat(func(f *vptree.Flat) { f.Nodes[len(f.Nodes)-1].Rows[0] = math.NaN() })},
		{"legacy field disagrees with rows", editFlat(func(f *vptree.Flat) { f.Nodes[1].PHi += 0.5 })},
	}
	for _, c := range cases {
		s := fresh()
		c.mutate(s)
		var mut bytes.Buffer
		if err := persist.WriteSnapshot(&mut, s); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadEngine(bytes.NewReader(mut.Bytes()), eng.Cost(), opts); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: load err = %v, want ErrCorrupt", c.name, err)
		}
	}
	if _, err := LoadEngine(bytes.NewReader(good), eng.Cost(), opts); err != nil {
		t.Fatalf("unmutated snapshot rejected: %v", err)
	}
}

// TestTortureSnapshotIndexFlipMatrix repeats the snapshot flip matrix
// over a version-3 file carrying the metric-index section, so the
// damage sweep covers the gob-encoded tree frame too. Every flip must
// fail typed — a flip the CRC forgave would plant a structurally
// broken tree into the candidate generator.
func TestTortureSnapshotIndexFlipMatrix(t *testing.T) {
	d := 8
	cost := LinearCost(d)
	rng := rand.New(rand.NewSource(83))
	opts := Options{ReducedDims: 4, SampleSize: 6, IndexKind: IndexVPTree}
	eng, err := NewEngine(cost, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := eng.Add(fmt.Sprintf("q%d", i), randHist(rng, d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	// Query once so the engine stashes the built tree for Save.
	if _, _, err := eng.KNN(randHist(rng, d), 3); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if snap, err := persist.ReadSnapshot(bytes.NewReader(good)); err != nil || snap.Index == nil {
		t.Fatalf("fixture snapshot carries no index section (err=%v)", err)
	}

	for i := 0; i < len(good); i++ {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0xff
		_, err := LoadEngine(bytes.NewReader(mut), cost, opts)
		if err == nil {
			t.Fatalf("flip at byte %d: load accepted a damaged snapshot", i)
		}
		if !typedPersistErr(err) {
			t.Fatalf("flip at byte %d: err = %v, want a typed persistence error", i, err)
		}
	}
}

// TestVPTreeAddDefersRebuild is the satellite-1 regression: the
// VP-tree has no incremental insert, so a single Add used to force a
// synchronous full rebuild inside the very next snapshot build — a
// latency spike linear in n on the query that happened to trigger it.
// The grown corpus must instead be served by the scan for that
// snapshot while the rebuild runs in the background.
func TestVPTreeAddDefersRebuild(t *testing.T) {
	const n, k = 100, 5
	eng, queries := buildEngine(t, indexOpts(IndexVPTree), n)
	scan, _ := buildEngine(t, Options{ReducedDims: 8, SampleSize: 10}, n)
	syncBuilds := 0
	eng.testHookSyncIndexBuild = func() { syncBuilds++ }

	if _, _, err := eng.KNN(queries[0], k); err != nil {
		t.Fatal(err)
	}
	if syncBuilds != 1 {
		t.Fatalf("first query ran %d synchronous builds, want 1", syncBuilds)
	}

	// Grow both engines identically; the next query must NOT pay a
	// synchronous rebuild.
	rng := rand.New(rand.NewSource(41))
	h := randHist(rng, eng.Dim())
	if _, err := eng.Add("new", h); err != nil {
		t.Fatal(err)
	}
	if _, err := scan.Add("new", h); err != nil {
		t.Fatal(err)
	}
	want, _, err := scan.KNN(queries[0], k)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := eng.KNN(queries[0], k)
	if err != nil {
		t.Fatal(err)
	}
	if syncBuilds != 1 {
		t.Fatalf("Add->KNN ran %d synchronous builds, want 1 (rebuild must be deferred)", syncBuilds)
	}
	if stats.IndexUsed {
		t.Fatal("deferred snapshot still claims an index")
	}
	sameResults(t, "vptree-deferred", "KNN", got, want)
	if m := eng.Metrics(); m.IndexDeferredBuilds < 1 {
		t.Fatalf("IndexDeferredBuilds = %d, want >= 1", m.IndexDeferredBuilds)
	}

	// The background rebuild lands, and the index returns with
	// identical answers.
	deadline := time.Now().Add(10 * time.Second)
	for eng.Metrics().IndexBuilds < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("background rebuild did not complete: builds=%d", eng.Metrics().IndexBuilds)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, q := range queries {
		want, _, err := scan.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := eng.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.IndexUsed {
			t.Fatal("index not used after the background rebuild")
		}
		sameResults(t, "vptree-regrown", "KNN", got, want)
	}
	if syncBuilds != 1 {
		t.Errorf("total synchronous builds = %d, want 1", syncBuilds)
	}
}

// TestIntrinsicEstimateCached is the satellite-2 regression: the
// auto-mode intrinsic-dimensionality estimate (512 sampled pairs of
// reduced-EMD solves) used to rerun on every snapshot rebuild even
// when (n, deleted, reduction) — which pin it exactly — were
// unchanged. Snapshot invalidations that change nothing relevant must
// hit the cache; mutations that change the key must recompute.
func TestIntrinsicEstimateCached(t *testing.T) {
	const d = 8
	cost := LinearCost(d)
	eng, err := NewEngine(cost, Options{ReducedDims: 4, SampleSize: 6, IndexKind: IndexAuto, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	// indexAutoMinN live items, so the auto gate reaches the estimate.
	for i := 0; i < indexAutoMinN+8; i++ {
		if _, err := eng.Add("", randHist(rng, d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	evals := 0
	eng.testHookIntrinsicEval = func() { evals++ }

	q := randHist(rng, d)
	if _, _, err := eng.KNN(q, 3); err != nil {
		t.Fatal(err)
	}
	first := evals
	if first == 0 {
		t.Fatal("first snapshot build evaluated no intrinsic-dimensionality pairs")
	}

	// Invalidate the snapshot without touching items, deletes or the
	// reduction: the rebuilt pipeline must reuse the cached estimate.
	for i := 0; i < 3; i++ {
		eng.mu.Lock()
		eng.snap = nil
		eng.mu.Unlock()
		if _, _, err := eng.KNN(q, 3); err != nil {
			t.Fatal(err)
		}
	}
	if evals != first {
		t.Fatalf("unchanged fingerprint recomputed the estimate: %d evaluations, want %d", evals, first)
	}

	// A mutation that changes the key must recompute.
	if err := eng.Delete(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.KNN(q, 3); err != nil {
		t.Fatal(err)
	}
	if evals <= first {
		t.Fatalf("changed fingerprint did not recompute the estimate (evals still %d)", evals)
	}
}

// TestIndexRebuildFailureClearsLatch is the satellite-3 regression: a
// background index rebuild that dies — here by injected panic — must
// release the e.indexRebuilding latch and count the failure, or every
// future deferred/churn rebuild is silently disabled for the engine's
// lifetime. A subsequent rebuild must then succeed.
func TestIndexRebuildFailureClearsLatch(t *testing.T) {
	const n, k = 100, 5
	eng, queries := buildEngine(t, indexOpts(IndexVPTree), n)
	scan, _ := buildEngine(t, Options{ReducedDims: 8, SampleSize: 10}, n)
	var rebuilds atomic.Int32
	eng.testHookIndexRebuild = func() {
		if rebuilds.Add(1) == 1 {
			panic("injected rebuild failure")
		}
	}
	if _, _, err := eng.KNN(queries[0], k); err != nil {
		t.Fatal(err)
	}

	// Grow the corpus: the next query defers to a background rebuild,
	// which panics.
	rng := rand.New(rand.NewSource(42))
	h := randHist(rng, eng.Dim())
	if _, err := eng.Add("boom", h); err != nil {
		t.Fatal(err)
	}
	if _, err := scan.Add("boom", h); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.KNN(queries[0], k); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for eng.Metrics().IndexRebuildFailures < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("injected rebuild failure was never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The latch must be free again: the next snapshot rebuild (another
	// grow) kicks a fresh background rebuild, which succeeds and
	// restores the index.
	h = randHist(rng, eng.Dim())
	if _, err := eng.Add("again", h); err != nil {
		t.Fatal(err)
	}
	if _, err := scan.Add("again", h); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.KNN(queries[0], k); err != nil {
		t.Fatal(err)
	}
	for eng.Metrics().IndexBuilds < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("rebuild after a failed one never ran: latch leaked (builds=%d, rebuild calls=%d)",
				eng.Metrics().IndexBuilds, rebuilds.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	want, _, err := scan.KNN(queries[0], k)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := eng.KNN(queries[0], k)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.IndexUsed {
		t.Fatal("index not used after the recovered rebuild")
	}
	sameResults(t, "vptree-recovered", "KNN", got, want)
}

// TestIndexStaleRebuildReschedules: a background rebuild that
// finishes stale — an Add landed while it ran — must not leave the
// index off. The snapshot built after that Add found the rebuild latch
// held and could not schedule one of its own; releasing the latch
// must reschedule against the current store, and the index must serve
// again without any further mutation.
func TestIndexStaleRebuildReschedules(t *testing.T) {
	const n, k = 100, 5
	eng, queries := buildEngine(t, indexOpts(IndexVPTree), n)
	release := make(chan struct{})
	var rebuilds atomic.Int32
	eng.testHookIndexRebuild = func() {
		if rebuilds.Add(1) == 1 {
			<-release
		}
	}
	rng := rand.New(rand.NewSource(43))
	if stats := checkExactKNN(t, "before Add", eng, queries[0], k); !stats.IndexUsed {
		t.Fatal("index not used before the Add")
	}
	// The first Add defers to a background rebuild, held in its hook;
	// the second makes it stale, and its snapshot finds the latch held.
	for i := 0; i < 2; i++ {
		if _, err := eng.Add(fmt.Sprintf("new%d", i), randHist(rng, eng.Dim())); err != nil {
			t.Fatal(err)
		}
		if stats := checkExactKNN(t, fmt.Sprintf("after Add %d", i), eng, queries[0], k); stats.IndexUsed {
			t.Fatalf("query after Add %d used the stale tree", i)
		}
	}
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for q := 0; ; q++ {
		if stats := checkExactKNN(t, fmt.Sprintf("after release %d", q), eng, queries[q%len(queries)], k); stats.IndexUsed {
			break
		}
		if time.Now().After(deadline) {
			m := eng.Metrics()
			t.Fatalf("index never served again: %d queries, builds=%d deferred=%d rebuild calls=%d",
				q+1, m.IndexBuilds, m.IndexDeferredBuilds, rebuilds.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// autoIndexSnapshot is a saved engine just above the IndexAuto size
// gate on a low-intrinsic-dimension corpus (the index_gm shape scaled
// down to d = 16, d' = 8), built once and shared by the IndexAuto tests
// through LoadEngine, together with its options, cost and held-out
// queries.
var autoIndexSnapshot struct {
	once    sync.Once
	raw     []byte
	opts    Options
	cost    CostMatrix
	queries []Histogram
	err     error
}

// loadAutoIndexEngine returns a fresh engine over the shared corpus
// with the given index kind; no tree is built until its first query.
func loadAutoIndexEngine(t *testing.T, kind string) (*Engine, []Histogram) {
	t.Helper()
	s := &autoIndexSnapshot
	s.once.Do(func() {
		ds, err := data.GaussianMixtures(indexAutoMinN+68, 16, 2, 42)
		if err != nil {
			s.err = err
			return
		}
		vecs, queries, err := ds.Split(4)
		if err != nil {
			s.err = err
			return
		}
		s.opts, s.cost, s.queries = Options{ReducedDims: 8, SampleSize: 16, Seed: 42, IndexKind: IndexOff}, ds.Cost, queries
		eng, err := NewEngine(ds.Cost, s.opts)
		if err != nil {
			s.err = err
			return
		}
		for i, h := range vecs {
			if _, err := eng.Add(ds.Items[i].Label, h); err != nil {
				s.err = err
				return
			}
		}
		if s.err = eng.Build(); s.err != nil {
			return
		}
		var buf bytes.Buffer
		s.err = eng.Save(&buf)
		s.raw = buf.Bytes()
	})
	if s.err != nil {
		t.Fatal(s.err)
	}
	opts := s.opts
	opts.IndexKind = kind
	eng, err := LoadEngine(bytes.NewReader(s.raw), s.cost, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, s.queries
}

// checkExactKNN runs a k-NN query and compares it with brute force over
// emd.Dist; it returns the query's stats.
func checkExactKNN(t *testing.T, name string, eng *Engine, q Histogram, k int) *QueryStats {
	t.Helper()
	got, stats, err := eng.KNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, name, "KNN", got, bruteForce(t, eng, q, nil)[:k])
	return stats
}

// stageNames lists the filter stages a query ran.
func stageNames(stats *QueryStats) []string {
	names := make([]string, len(stats.Stages))
	for i, st := range stats.Stages {
		names[i] = st.Name
	}
	return names
}

// TestIndexAutoBuildsVPTree: above the size gate on a corpus of low
// intrinsic dimension, auto mode builds a VP-tree, and its answers
// equal brute force over the exact EMD bit for bit.
func TestIndexAutoBuildsVPTree(t *testing.T) {
	eng, queries := loadAutoIndexEngine(t, IndexAuto)
	for qi, q := range queries {
		stats := checkExactKNN(t, fmt.Sprintf("auto query %d", qi), eng, q, 5)
		if names := stageNames(stats); !stats.IndexUsed || len(names) != 1 || names[0] != "VPTree(Red-EMD)" {
			t.Fatalf("query %d: index used %v, stages %v, want [VPTree(Red-EMD)]", qi, stats.IndexUsed, names)
		}
	}
	if m := eng.Metrics(); m.IndexBuilds != 1 {
		t.Fatalf("IndexBuilds = %d, want 1", m.IndexBuilds)
	}
}

// TestIndexAutoAddServesScanUntilRebuild: the VP-tree has no
// incremental insert, so after an Add the next query of an auto engine
// is served, exactly, by the scan chain while the tree is rebuilt in
// the background — counted in index_deferred_builds — and the index
// serves again once the rebuild lands.
func TestIndexAutoAddServesScanUntilRebuild(t *testing.T) {
	eng, queries := loadAutoIndexEngine(t, IndexAuto)
	if stats := checkExactKNN(t, "auto before Add", eng, queries[0], 5); !stats.IndexUsed {
		t.Fatal("auto engine did not index before the Add")
	}
	deferred := eng.Metrics().IndexDeferredBuilds
	// The new item copies the query: an answer that missed it would
	// differ from brute force.
	if _, err := eng.Add("new", queries[0]); err != nil {
		t.Fatal(err)
	}
	if stats := checkExactKNN(t, "auto after Add", eng, queries[0], 5); stats.IndexUsed {
		t.Fatal("the query after an Add used the stale tree")
	}
	if m := eng.Metrics(); m.IndexDeferredBuilds != deferred+1 {
		t.Fatalf("index_deferred_builds %d, want %d", m.IndexDeferredBuilds, deferred+1)
	}
	deadline := time.Now().Add(30 * time.Second)
	for eng.Metrics().IndexBuilds < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("background rebuild did not land: builds=%d", eng.Metrics().IndexBuilds)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for qi, q := range queries {
		if stats := checkExactKNN(t, fmt.Sprintf("auto rebuilt query %d", qi), eng, q, 5); !stats.IndexUsed {
			t.Fatalf("query %d: index not used after the background rebuild", qi)
		}
	}
}

// TestLoadLegacyMTreeSnapshot loads the two legacy index fixtures, both
// saved for the same engine (80 items of d = 8 from rand source 31,
// d' = 4, seed 11): testdata/v4_mtree_index.snap, written while the
// engine still had an M-tree (IndexKind "mtree"), and
// testdata/v4_vptree_index.snap, a VP-tree written before the tree kept
// its ancestor rows. Either index section is dropped on load. Under
// IndexVPTree the first query builds a VP-tree — one build, no reuse —
// answers equal brute force, and saving again writes a "vptree" section
// that carries rows and whose older fields equal the legacy VP-tree
// fixture's, so a reader from before the rows loads it as the same
// tree; every other section decodes equal to the fixture's, two saves
// are byte-identical, and loading the re-save reuses the tree. Under
// IndexOff no tree is built and the section is gone from the next save.
func TestLoadLegacyMTreeSnapshot(t *testing.T) {
	const d = 8
	cost := LinearCost(d)
	golden, err := os.ReadFile("testdata/v4_vptree_index.snap")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	queries := make([]Histogram, 4)
	for i := range queries {
		queries[i] = randHist(rng, d)
	}
	for _, fixture := range []struct{ file, kind string }{
		{"testdata/v4_mtree_index.snap", "mtree"},
		{"testdata/v4_vptree_index.snap", IndexVPTree},
	} {
		raw, err := os.ReadFile(fixture.file)
		if err != nil {
			t.Fatal(err)
		}
		if snap, err := persist.ReadSnapshot(bytes.NewReader(raw)); err != nil || snap.Index == nil || snap.Index.Kind != fixture.kind {
			t.Fatalf("%s carries no %s section (err=%v)", fixture.file, fixture.kind, err)
		}
		for _, kind := range []string{IndexVPTree, IndexOff} {
			opts := Options{ReducedDims: 4, SampleSize: 6, Seed: 11, IndexKind: kind}
			eng, err := LoadEngine(bytes.NewReader(raw), cost, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", fixture.file, kind, err)
			}
			for qi, q := range queries {
				stats := checkExactKNN(t, fmt.Sprintf("%s %s query %d", fixture.file, kind, qi), eng, q, 5)
				if stats.IndexUsed != (kind == IndexVPTree) {
					t.Fatalf("%s %s query %d: index used %v", fixture.file, kind, qi, stats.IndexUsed)
				}
			}
			m := eng.Metrics()
			var buf bytes.Buffer
			if err := eng.Save(&buf); err != nil {
				t.Fatal(err)
			}
			snap, err := persist.ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if kind == IndexOff {
				if m.IndexBuilds != 0 || snap.Index != nil {
					t.Fatalf("%s IndexOff: builds=%d, re-save index section %v; want none", fixture.file, m.IndexBuilds, snap.Index != nil)
				}
				continue
			}
			if m.IndexBuilds != 1 || m.IndexReuses != 0 {
				t.Fatalf("%s: builds=%d reuses=%d, want 1/0 (the legacy section is dropped, a VP-tree built once)", fixture.file, m.IndexBuilds, m.IndexReuses)
			}
			if snap.Index == nil || snap.Index.Kind != IndexVPTree {
				t.Fatalf("%s: re-save carries no vptree section", fixture.file)
			}
			if f := decodeFlat(t, snap.Index.Blob); len(f.Nodes) < 2 || len(f.Nodes[1].Rows) == 0 {
				t.Fatalf("%s: re-saved tree carries no ancestor rows", fixture.file)
			}
			if !reflect.DeepEqual(gobCanonical(t, buf.Bytes(), true), gobCanonical(t, golden, false)) {
				t.Fatalf("%s: re-save without its rows decodes unequal to testdata/v4_vptree_index.snap", fixture.file)
			}
			var second bytes.Buffer
			if err := eng.Save(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(second.Bytes(), buf.Bytes()) {
				t.Fatalf("%s: two saves of one engine differ", fixture.file)
			}
			again, err := LoadEngine(bytes.NewReader(buf.Bytes()), cost, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkExactKNN(t, fixture.file+" reloaded", again, queries[0], 5)
			if m := again.Metrics(); m.IndexBuilds != 0 || m.IndexReuses != 1 {
				t.Fatalf("%s reloaded: builds=%d reuses=%d, want 0/1", fixture.file, m.IndexBuilds, m.IndexReuses)
			}
		}
	}
}

// flatBytes gob-encodes a tree's flat form; within one process equal
// forms encode to equal bytes, NaN fields included.
func flatBytes(t *testing.T, vt *vptree.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(vt.Flatten()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeFlat decodes the gob-encoded flat tree of an index section.
func decodeFlat(t *testing.T, blob []byte) *vptree.Flat {
	t.Helper()
	var f vptree.Flat
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&f); err != nil {
		t.Fatal(err)
	}
	return &f
}

// gobCanonical decodes a snapshot carrying a VP-tree section and
// re-encodes the tree blob in this process, without the tree's ancestor
// rows when stripRows is set. gob numbers types in the order a process
// first meets them, so trees of equal content written by processes
// with different histories can differ in those numbers alone;
// re-encoding both sides of a comparison here leaves only content
// differences.
func gobCanonical(t *testing.T, raw []byte, stripRows bool) *persist.Snapshot {
	t.Helper()
	s, err := persist.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	f := decodeFlat(t, s.Index.Blob)
	if stripRows {
		for i := range f.Nodes {
			f.Nodes[i].Rows = nil
		}
	}
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(f); err != nil {
		t.Fatal(err)
	}
	s.Index.Blob = blob.Bytes()
	return s
}
