package emdsearch

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"emdsearch/internal/data"
	"emdsearch/internal/emd"
	"emdsearch/internal/persist"
)

// The engine used to hand queries on corpora above 4096 live items to a
// VP-tree over the reduced EMD (IndexAuto) and to persist that tree.
// Every query is now served by the filter chain. The tests below hold
// what the tree path promised at the sizes it served: answers equal
// brute force over the exact EMD bit for bit, and snapshots that carry
// a tree still load.

// gmShard is the live item count of every engine the identity tests
// build: above 4096, the corpus size from which IndexAuto used to serve
// queries from the tree.
const gmShard = 4108

// gmData is the corpus the identity tests share: 2-mode
// GaussianMixtures at d = 8 (seed 42), 4·gmShard items in insertion
// order, and 4 held-out queries.
type gmData struct {
	cost    CostMatrix
	items   []Histogram
	labels  []string
	queries []Histogram
}

var gmCorpus = sync.OnceValues(func() (*gmData, error) {
	ds, err := data.GaussianMixtures(4*gmShard+4, 8, 2, 42)
	if err != nil {
		return nil, err
	}
	items, queries, err := ds.Split(4)
	if err != nil {
		return nil, err
	}
	gm := &gmData{cost: ds.Cost, items: items, queries: queries, labels: make([]string, len(items))}
	for i := range items {
		gm.labels[i] = ds.Items[i].Label
	}
	return gm, nil
})

// gmOpts is the configuration of the identity tests' engines: the
// index_gm workload's shape scaled down to d = 8, d' = 4.
func gmOpts(kind string, workers int) Options {
	return Options{ReducedDims: 4, SampleSize: 16, Seed: 42, IndexKind: kind, Workers: workers}
}

// buildGMEngine builds an engine over the shared corpus's first n items.
func buildGMEngine(t *testing.T, opts Options, n int) (*Engine, *gmData) {
	t.Helper()
	gm, err := gmCorpus()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(gm.cost, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range gm.items[:n] {
		if _, err := eng.Add(gm.labels[i], h); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	return eng, gm
}

// chainStages is the stage chain of a single-level reduced plan.
var chainStages = []string{"Potentials", "Red-EMD"}

// checkExactKNN runs a k-NN query and compares it with brute force over
// emd.Dist; it returns the query's stats.
func checkExactKNN(t *testing.T, name string, eng *Engine, q Histogram, k int) *QueryStats {
	t.Helper()
	got, stats, err := eng.KNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, name, "KNN", got, bruteForce(t, eng, q, nil)[:k])
	if stats.IndexUsed || stats.IndexNodesVisited != 0 || stats.IndexPruned != 0 {
		t.Fatalf("%s: index counters %v/%d/%d, want zero", name, stats.IndexUsed, stats.IndexNodesVisited, stats.IndexPruned)
	}
	return stats
}

// checkExactRange runs a range query at the query's 10th-NN distance and
// compares it with brute force over emd.Dist.
func checkExactRange(t *testing.T, name string, eng *Engine, q Histogram) {
	t.Helper()
	brute := bruteForce(t, eng, q, nil)
	eps := brute[9].Dist
	got, _, err := eng.Range(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, name, "Range", got, within(brute, eps))
}

func TestNewEngineIndexKindValidation(t *testing.T) {
	for _, kind := range []string{"bogus", "mtree"} {
		if _, err := NewEngine(LinearCost(4), Options{ReducedDims: 2, IndexKind: kind}); err == nil {
			t.Errorf("accepted unknown IndexKind %q", kind)
		}
	}
	if _, err := NewEngine(LinearCost(4), Options{ReducedDims: 2, IndexKind: "vptree"}); err == nil || !strings.Contains(err.Error(), "removed") {
		t.Errorf("IndexKind \"vptree\": err = %v, want one that says the tree was removed", err)
	}
	for _, kind := range []string{IndexAuto, IndexOff} {
		if _, err := NewEngine(LinearCost(4), Options{ReducedDims: 2, IndexKind: kind}); err != nil {
			t.Errorf("rejected valid IndexKind %q: %v", kind, err)
		}
	}
}

// TestOldIndexLineKNNRangePred: above 4096 live items, where IndexAuto
// used to hand the query to the tree, both index kinds serve k-NN,
// Range and a predicated k-NN from the filter chain, inline and over a
// refinement pool, and every answer equals brute force bit for bit.
func TestOldIndexLineKNNRangePred(t *testing.T) {
	pred := func(i int) bool { return i%3 != 0 }
	for _, v := range []struct {
		kind    string
		workers int
	}{{IndexAuto, 1}, {IndexOff, 4}} {
		eng, gm := buildGMEngine(t, gmOpts(v.kind, v.workers), gmShard)
		for qi, q := range gm.queries {
			tag := fmt.Sprintf("kind %q workers %d q%d", v.kind, v.workers, qi)
			stats := checkExactKNN(t, tag, eng, q, 10)
			checkStageAccounting(t, eng, stats, chainStages)
			checkExactRange(t, tag, eng, q)
			got, _, err := knnWhere(eng, q, 10, pred)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, tag, "KNNWhere", got, bruteForce(t, eng, q, pred)[:10])
		}
	}
}

// TestIndexDeleteThenKNN: deletes above the old 4096 line — a few
// scattered ones, the nearest neighbours of a query among them, then 40 %
// of the corpus — never surface in an answer, and k-NN and Range equal
// brute force over the live items bit for bit after each batch.
func TestIndexDeleteThenKNN(t *testing.T) {
	t.Run("gm-4108", func(t *testing.T) {
		eng, gm := buildGMEngine(t, gmOpts(IndexAuto, 1), gmShard)
		check := func(stage string) {
			t.Helper()
			for qi, q := range gm.queries {
				tag := fmt.Sprintf("%s q%d", stage, qi)
				got, _, err := eng.KNN(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range got {
					if eng.Deleted(r.Index) {
						t.Fatalf("%s: returned deleted item %d", tag, r.Index)
					}
				}
				checkExactKNN(t, tag, eng, q, 10)
				checkExactRange(t, tag, eng, q)
			}
		}
		check("before deletes")
		nearest, _, err := eng.KNN(gm.queries[0], 3)
		if err != nil {
			t.Fatal(err)
		}
		dead := []int{3, 11, 42, 43, 77, 4000}
		for _, r := range nearest {
			dead = append(dead, r.Index)
		}
		for _, id := range dead {
			if !eng.Deleted(id) {
				if err := eng.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		check("scattered deletes")
		for id := 0; id < gmShard; id++ {
			if id%5 < 2 && !eng.Deleted(id) {
				if err := eng.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		check("40% deleted")
	})
}

// TestOldIndexLineAdds: Adds that carry an engine across 4096 live
// items — the line past which IndexAuto built the tree, and after which
// an Add used to hand queries to the scan until a background rebuild
// landed — leave every answer equal to brute force. Every other new item
// copies the next query, so an answer that missed it would differ.
func TestOldIndexLineAdds(t *testing.T) {
	eng, gm := buildGMEngine(t, gmOpts(IndexAuto, 1), 4090)
	for step := 0; eng.Len() < 4102; step++ {
		q := gm.queries[step%len(gm.queries)]
		h, label := gm.items[eng.Len()], gm.labels[eng.Len()]
		if step%2 == 0 {
			h, label = q, fmt.Sprintf("query%d", step)
		}
		if _, err := eng.Add(label, h); err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprintf("after Add %d (%d items)", step, eng.Len())
		checkExactKNN(t, tag, eng, q, 5)
		checkExactRange(t, tag, eng, q)
	}
}

// bruteOver is bruteForce over a plain item list: the exact EMD from q
// to every item, sorted by (distance, id).
func bruteOver(t *testing.T, cost CostMatrix, items []Histogram, q Histogram) []Result {
	t.Helper()
	dist, err := emd.NewDist(cost)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]Result, len(items))
	for i, h := range items {
		all[i] = Result{Index: i, Dist: dist.Distance(q, h)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		return all[a].Index < all[b].Index
	})
	return all
}

// TestOldIndexLineShards: ShardSets of 1 to 4 shards, every shard above
// 4096 live items, answer k-NN and Range equal to brute force over the
// whole set bit for bit.
func TestOldIndexLineShards(t *testing.T) {
	ctx := context.Background()
	gm, err := gmCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for shards := 1; shards <= 4; shards++ {
		items := gm.items[:shards*gmShard]
		set, err := NewShardSet(gm.cost, gmOpts(IndexAuto, 1), ShardSetOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range items {
			if _, err := set.Add(gm.labels[i], h); err != nil {
				t.Fatal(err)
			}
		}
		if err := set.Build(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < shards; i++ {
			if n := set.Engine(i).Alive(); n <= 4096 {
				t.Fatalf("shards=%d: shard %d holds %d live items, want more than 4096", shards, i, n)
			}
		}
		for qi, q := range gm.queries[:2] {
			tag := fmt.Sprintf("shards=%d q%d", shards, qi)
			brute := bruteOver(t, gm.cost, items, q)
			ans, err := set.KNN(ctx, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, tag, "KNN", ans.Results, brute[:10])
			if ans.Stats.IndexUsed {
				t.Fatalf("%s: merged stats claim an index ran", tag)
			}
			eps := brute[9].Dist
			rans, err := set.Range(ctx, q, eps)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, tag, "Range", rans.Results, within(brute, eps))
		}
		set.Close()
	}
}

// TestIndexAutoDeclinesSmallCorpus: on a small corpus IndexAuto serves
// the query from the filter chain.
func TestIndexAutoDeclinesSmallCorpus(t *testing.T) {
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 10, IndexKind: IndexAuto}, 100)
	stats := checkExactKNN(t, "auto", eng, queries[0], 5)
	checkStageAccounting(t, eng, stats, chainStages)
}

// TestIndexOffDisables: IndexOff is the same engine as IndexAuto — the
// same answers and the same work counters.
func TestIndexOffDisables(t *testing.T) {
	auto, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 10, IndexKind: IndexAuto}, 60)
	off, _ := buildEngine(t, Options{ReducedDims: 8, SampleSize: 10, IndexKind: IndexOff}, 60)
	for qi, q := range queries {
		want, wantStats, err := auto.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := off.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("off q%d", qi), "KNN", got, want)
		if stats.Pulled != wantStats.Pulled || stats.Refinements != wantStats.Refinements || stats.IndexUsed {
			t.Fatalf("q%d: IndexOff pulled %d refined %d index %v, IndexAuto pulled %d refined %d",
				qi, stats.Pulled, stats.Refinements, stats.IndexUsed, wantStats.Pulled, wantStats.Refinements)
		}
	}
}

// v5Golden is testdata/v5_vptree_index.snap, written by the engine while
// it still had the tree: 4108 items of GaussianMixtures(4112, 8, 2, 42)
// (the last 4 held out as queries) under Options{ReducedDims: 4,
// SampleSize: 16, Seed: 42}, items 5, 1000 and 4000 deleted after
// Build. IndexAuto built the tree on the first query, and Save wrote it
// as a "vptree" index section.
func v5Golden(t *testing.T) (raw []byte, cost CostMatrix, queries []Histogram) {
	t.Helper()
	raw, err := os.ReadFile("testdata/v5_vptree_index.snap")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := data.GaussianMixtures(4112, 8, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, queries, err = ds.Split(4); err != nil {
		t.Fatal(err)
	}
	return raw, ds.Cost, queries
}

// indexFrame splits a snapshot file into its frames and returns the
// position of the metric-index frame: the fifth, or the sixth in
// versions 3 and 4, whose fifth is the cached quantized filter.
func indexFrame(t *testing.T, raw []byte) (frames [][]byte, at int, version uint32) {
	t.Helper()
	version = binary.LittleEndian.Uint32(raw[len(persist.Magic):])
	if version < 3 {
		t.Fatalf("version-%d snapshot has no index frame", version)
	}
	at = 4
	if version < 5 {
		at = 5
	}
	return snapshotFrames(t, raw), at, version
}

// legacyIndexSection decodes the metric-index section of a snapshot
// file in full, as an engine that still had a tree did; nil when the
// section is empty.
func legacyIndexSection(t *testing.T, raw []byte) *persist.IndexSection {
	t.Helper()
	frames, at, _ := indexFrame(t, raw)
	body := frames[at][8 : len(frames[at])-4]
	var sec struct{ Index *persist.IndexSection }
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&sec); err != nil {
		t.Fatal(err)
	}
	return sec.Index
}

// withIndexSection returns raw with its metric-index section replaced
// by sec (nil empties it), framed and checksummed as the writer frames
// a section.
func withIndexSection(t *testing.T, raw []byte, sec *persist.IndexSection) []byte {
	t.Helper()
	frames, at, version := indexFrame(t, raw)
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(struct{ Index *persist.IndexSection }{sec}); err != nil {
		t.Fatal(err)
	}
	b := body.Bytes()
	f := binary.LittleEndian.AppendUint32(nil, uint32(len(b)))
	f = binary.LittleEndian.AppendUint32(f, ^uint32(len(b)))
	f = append(f, b...)
	frames = slices.Clone(frames)
	frames[at] = binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(b))
	return forgeSnapshot(version, frames...)
}

// checkResave saves eng twice and checks that the saves are
// byte-identical, carry an empty index section, and decode to
// fixture's sections otherwise.
func checkResave(t *testing.T, name string, eng *Engine, fixture []byte) {
	t.Helper()
	var first, second bytes.Buffer
	if err := eng.Save(&first); err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("%s: two saves of one engine differ", name)
	}
	got, err := persist.ReadSnapshot(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if legacyIndexSection(t, first.Bytes()) != nil {
		t.Fatalf("%s: re-save carries an index section", name)
	}
	want, err := persist.ReadSnapshot(bytes.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: re-save decodes unequal to the fixture's other sections", name)
	}
}

// TestSaveLoadIndexSection: the v5 golden, whose index section holds a
// tree over 4108 items, loads under either index kind with the section
// dropped; k-NN and Range answers equal brute force bit for bit, and a
// save of the loaded (and queried) engine writes no index section and
// every other section as the golden has it.
func TestSaveLoadIndexSection(t *testing.T) {
	raw, cost, queries := v5Golden(t)
	snap, err := persist.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if idx := legacyIndexSection(t, raw); idx == nil || idx.Kind != "vptree" || idx.N != 4108 || len(snap.Deleted) != 3 {
		t.Fatal("testdata/v5_vptree_index.snap is not the golden its doc describes")
	}
	for _, kind := range []string{IndexAuto, IndexOff} {
		eng, err := LoadEngine(bytes.NewReader(raw), cost, Options{ReducedDims: 4, SampleSize: 16, Seed: 42, IndexKind: kind})
		if err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
		for qi, q := range queries {
			tag := fmt.Sprintf("v5 golden, kind %q, q%d", kind, qi)
			checkStageAccounting(t, eng, checkExactKNN(t, tag, eng, q, 10), chainStages)
			checkExactRange(t, tag, eng, q)
		}
		checkResave(t, fmt.Sprintf("v5 golden, kind %q", kind), eng, raw)
	}
}

// TestLoadV2SnapshotIndexCompat: a version-2 file (no index frame)
// loads cleanly and answers equal brute force. The file is forged from a
// committed version-4 fixture (see TestLoadLegacyMTreeSnapshot) by
// keeping its first five frames, the fifth being the quantized filter a
// version-2 file carries.
func TestLoadV2SnapshotIndexCompat(t *testing.T) {
	raw, err := os.ReadFile("testdata/v4_vptree_index.snap")
	if err != nil {
		t.Fatal(err)
	}
	v2 := forgeSnapshot(2, snapshotFrames(t, raw)[:5]...)
	if _, err := persist.ReadSnapshot(bytes.NewReader(v2)); err != nil {
		t.Fatalf("version-2 snapshot rejected: %v", err)
	}
	loaded, err := LoadEngine(bytes.NewReader(v2), LinearCost(8), Options{ReducedDims: 4, SampleSize: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	checkExactKNN(t, "v2", loaded, randHist(rand.New(rand.NewSource(7)), 8), 5)
}

// TestLoadRejectsBadIndexSection: an index section is dropped
// undecoded, so its content no longer reaches a query — but damage still
// fails the load with ErrCorrupt: a byte flipped inside the index frame
// fails its CRC, and a kind no version ever wrote is rejected. A
// "vptree" section whose blob is garbage behind a valid CRC loads, and
// the engine answers exactly.
func TestLoadRejectsBadIndexSection(t *testing.T) {
	good, err := os.ReadFile("testdata/v4_vptree_index.snap")
	if err != nil {
		t.Fatal(err)
	}
	cost, opts := LinearCost(8), Options{ReducedDims: 4, SampleSize: 6, Seed: 11}
	sec := legacyIndexSection(t, good)
	if sec == nil || len(sec.Blob) < 64 {
		t.Fatal("fixture carries no index section")
	}
	rewrite := func(mutate func(s *persist.IndexSection)) []byte {
		s := *sec
		mutate(&s)
		return withIndexSection(t, good, &s)
	}

	at := bytes.Index(good, sec.Blob[32:64])
	if at < 0 {
		t.Fatal("index blob not found in the fixture's bytes")
	}
	flipped := append([]byte(nil), good...)
	flipped[at] ^= 0x01
	if _, err := LoadEngine(bytes.NewReader(flipped), cost, opts); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped index byte: load err = %v, want ErrCorrupt", err)
	}
	unknown := rewrite(func(s *persist.IndexSection) { s.Kind = "rtree" })
	if _, err := LoadEngine(bytes.NewReader(unknown), cost, opts); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown kind: load err = %v, want ErrCorrupt", err)
	}

	garbage := rewrite(func(s *persist.IndexSection) { s.Blob = []byte{0xff, 0x00, 0x13} })
	eng, err := LoadEngine(bytes.NewReader(garbage), cost, opts)
	if err != nil {
		t.Fatalf("garbage vptree blob behind a valid CRC: %v", err)
	}
	checkExactKNN(t, "garbage blob", eng, randHist(rand.New(rand.NewSource(3)), 8), 5)
}

// TestTortureSnapshotIndexFlipMatrix repeats the snapshot flip matrix
// over a version-5 file carrying a metric-index section, so the damage
// sweep covers that frame too. The loader drops the section undecoded,
// so only its CRC stands between a flip and a silent load: every flip
// must fail typed.
func TestTortureSnapshotIndexFlipMatrix(t *testing.T) {
	d := 8
	cost := LinearCost(d)
	rng := rand.New(rand.NewSource(83))
	opts := Options{ReducedDims: 4, SampleSize: 6}
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
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 96)
	rng.Read(blob)
	good := withIndexSection(t, buf.Bytes(), &persist.IndexSection{Kind: "vptree", N: 10, RedHash: rng.Uint64(), Blob: blob})
	if _, err := LoadEngine(bytes.NewReader(good), cost, opts); err != nil {
		t.Fatalf("undamaged fixture rejected: %v", err)
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

// TestLoadLegacyMTreeSnapshot loads the two legacy index fixtures, both
// saved for the same engine (80 items of d = 8 from rand source 31,
// d' = 4, seed 11): testdata/v4_mtree_index.snap, written while the
// engine still had an M-tree (IndexKind "mtree"), and
// testdata/v4_vptree_index.snap, written while it had a VP-tree. Either
// index section is dropped on load: under IndexAuto and IndexOff alike
// the filter chain serves, answers equal brute force bit for bit, and
// saving again writes no index section and every other section as the
// fixture has it, byte-identically twice.
func TestLoadLegacyMTreeSnapshot(t *testing.T) {
	const d = 8
	cost := LinearCost(d)
	rng := rand.New(rand.NewSource(7))
	queries := make([]Histogram, 4)
	for i := range queries {
		queries[i] = randHist(rng, d)
	}
	for _, fixture := range []struct{ file, kind string }{
		{"testdata/v4_mtree_index.snap", "mtree"},
		{"testdata/v4_vptree_index.snap", "vptree"},
	} {
		raw, err := os.ReadFile(fixture.file)
		if err != nil {
			t.Fatal(err)
		}
		if idx := legacyIndexSection(t, raw); idx == nil || idx.Kind != fixture.kind {
			t.Fatalf("%s carries no %s section", fixture.file, fixture.kind)
		}
		for _, kind := range []string{IndexAuto, IndexOff} {
			opts := Options{ReducedDims: 4, SampleSize: 6, Seed: 11, IndexKind: kind}
			eng, err := LoadEngine(bytes.NewReader(raw), cost, opts)
			if err != nil {
				t.Fatalf("%s %q: %v", fixture.file, kind, err)
			}
			for qi, q := range queries {
				tag := fmt.Sprintf("%s %q query %d", fixture.file, kind, qi)
				checkStageAccounting(t, eng, checkExactKNN(t, tag, eng, q, 5), chainStages)
			}
			checkResave(t, fmt.Sprintf("%s %q", fixture.file, kind), eng, raw)
		}
	}
}
