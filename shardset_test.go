package emdsearch

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"emdsearch/internal/data"
)

// buildShardPair builds a ShardSet and a single reference engine
// holding the identical corpus in identical insertion order, plus
// query histograms. Every identity test compares the two.
func buildShardPair(t *testing.T, shards, n int, setOpts ShardSetOptions) (*ShardSet, *Engine, []Histogram) {
	t.Helper()
	ds, err := data.MusicSpectra(n+5, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	vecs, queries, err := ds.Split(5)
	if err != nil {
		t.Fatal(err)
	}
	engOpts := Options{ReducedDims: 4, Seed: 1}
	setOpts.Shards = shards
	set, err := NewShardSet(ds.Cost, engOpts, setOpts)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewEngine(ds.Cost, engOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range vecs {
		gid, err := set.Add(ds.Items[i].Label, h)
		if err != nil {
			t.Fatal(err)
		}
		if gid != i {
			t.Fatalf("global id %d for insertion %d", gid, i)
		}
		if _, err := single.Add(ds.Items[i].Label, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.Build(); err != nil {
		t.Fatal(err)
	}
	if err := single.Build(); err != nil {
		t.Fatal(err)
	}
	return set, single, queries
}

// sameResultBytes asserts two result lists are byte-identical:
// same indices, same Float64bits of every distance.
func sameResultBytes(t *testing.T, tag string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\n got: %v\nwant: %v", tag, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].Index != want[i].Index ||
			math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s pos %d: got {%d %v (%x)}, want {%d %v (%x)}", tag, i,
				got[i].Index, got[i].Dist, math.Float64bits(got[i].Dist),
				want[i].Index, want[i].Dist, math.Float64bits(want[i].Dist))
		}
	}
}

// assertFullCoverage asserts a healthy-path coverage certificate.
func assertFullCoverage(t *testing.T, tag string, cov ShardCoverage, shards, total int) {
	t.Helper()
	if cov.Shards != shards || cov.ShardsOK != shards || cov.ShardsDegraded != 0 ||
		cov.ShardsFailed != 0 || cov.ItemsUncovered != 0 || cov.ItemsTotal != total {
		t.Fatalf("%s: coverage = %+v, want all %d shards OK over %d items", tag, cov, shards, total)
	}
}

// TestShardSetKNNIdentity is the healthy-path identity theorem: for
// every shard count and both threshold modes, scatter-gather KNN
// answers are byte-identical to the single merged engine's.
func TestShardSetKNNIdentity(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 2, 3, 4} {
		for _, disable := range []bool{false, true} {
			set, single, queries := buildShardPair(t, shards, 60, ShardSetOptions{disableSharedThreshold: disable})
			for _, k := range []int{1, 5} {
				for qi, q := range queries {
					want, _, err := single.KNN(q, k)
					if err != nil {
						t.Fatal(err)
					}
					ans, err := set.KNN(ctx, q, k)
					if err != nil {
						t.Fatalf("shards=%d disable=%v q%d: %v", shards, disable, qi, err)
					}
					if ans.Degraded {
						t.Fatalf("shards=%d disable=%v q%d: healthy query degraded: %+v", shards, disable, qi, ans.Coverage)
					}
					tag := "knn"
					sameResultBytes(t, tag, ans.Results, want)
					assertFullCoverage(t, tag, ans.Coverage, shards, set.Len())
				}
			}
		}
	}
}

// TestShardSetRangeIdentity: scatter-gather range answers equal the
// single engine's, including the (distance, id) ordering.
func TestShardSetRangeIdentity(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 2, 3} {
		set, single, queries := buildShardPair(t, shards, 60, ShardSetOptions{})
		for qi, q := range queries {
			// A mid-scale eps that returns a nonempty, nontrivial set.
			probe, _, err := single.KNN(q, 8)
			if err != nil {
				t.Fatal(err)
			}
			eps := probe[len(probe)-1].Dist
			want, _, err := single.Range(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			ans, err := set.Range(ctx, q, eps)
			if err != nil {
				t.Fatalf("shards=%d q%d: %v", shards, qi, err)
			}
			if ans.Degraded {
				t.Fatalf("shards=%d q%d: healthy range degraded", shards, qi)
			}
			sameResultBytes(t, "range", ans.Results, want)
			assertFullCoverage(t, "range", ans.Coverage, shards, set.Len())
			if len(want) == 0 {
				t.Fatalf("q%d: degenerate eps, test proves nothing", qi)
			}
		}
	}
}

// TestShardSetBatchKNNIdentity: a batch of concurrent scatters — each
// with its own cross-shard threshold — matches the single engine entry
// by entry.
func TestShardSetBatchKNNIdentity(t *testing.T) {
	set, single, queries := buildShardPair(t, 3, 50, ShardSetOptions{})
	answers, errs := make([]*ShardAnswer, len(queries)), make([]error, len(queries))
	concurrently(len(queries), func(i int) { answers[i], errs[i] = set.KNN(context.Background(), queries[i], 4) })
	for i, ans := range answers {
		if errs[i] != nil {
			t.Fatalf("entry %d: %v", i, errs[i])
		}
		want, _, err := single.KNN(queries[i], 4)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Degraded {
			t.Fatalf("entry %d degraded: %+v", i, ans.Coverage)
		}
		sameResultBytes(t, "batch", ans.Results, want)
	}
}

// TestShardSetDeleteIdentity: soft deletes route to the right shard
// and the merged answer matches a single engine with the same deletes.
func TestShardSetDeleteIdentity(t *testing.T) {
	set, single, queries := buildShardPair(t, 3, 50, ShardSetOptions{})
	for _, gid := range []int{0, 7, 13, 44} {
		if err := set.Delete(gid); err != nil {
			t.Fatal(err)
		}
		if err := single.Delete(gid); err != nil {
			t.Fatal(err)
		}
	}
	if set.Alive() != single.Alive() {
		t.Fatalf("set alive %d, single alive %d", set.Alive(), single.Alive())
	}
	for _, q := range queries {
		want, _, err := single.KNN(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := set.KNN(context.Background(), q, 6)
		if err != nil {
			t.Fatal(err)
		}
		sameResultBytes(t, "delete", ans.Results, want)
		for _, r := range ans.Results {
			if r.Index == 0 || r.Index == 7 || r.Index == 13 || r.Index == 44 {
				t.Fatalf("deleted item %d returned", r.Index)
			}
		}
	}
	if err := set.Delete(set.Len()); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("out-of-range delete: %v", err)
	}
}

// TestShardSetStatsSelfConsistency pins the Refinements accounting:
// the merged totals equal the sum of the per-shard stats, and with
// the shared threshold disabled the per-shard work is deterministic
// across runs (the reference mode for work-count comparisons).
func TestShardSetStatsSelfConsistency(t *testing.T) {
	set, _, queries := buildShardPair(t, 3, 60, ShardSetOptions{disableSharedThreshold: true})
	q := queries[0]
	var prev *ShardAnswer
	for run := 0; run < 2; run++ {
		ans, err := set.KNN(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		sumRef, sumPulled := 0, 0
		for _, st := range ans.ShardStats {
			if st == nil {
				t.Fatal("healthy shard with nil stats")
			}
			sumRef += st.Refinements
			sumPulled += st.Pulled
		}
		if ans.Stats.Refinements != sumRef || ans.Stats.Pulled != sumPulled {
			t.Fatalf("merged stats (ref=%d pulled=%d) != shard sums (ref=%d pulled=%d)",
				ans.Stats.Refinements, ans.Stats.Pulled, sumRef, sumPulled)
		}
		if prev != nil {
			if ans.Stats.Refinements != prev.Stats.Refinements || ans.Stats.Pulled != prev.Stats.Pulled {
				t.Fatalf("independent-mode work not deterministic: run0 (ref=%d pulled=%d), run1 (ref=%d pulled=%d)",
					prev.Stats.Refinements, prev.Stats.Pulled, ans.Stats.Refinements, ans.Stats.Pulled)
			}
			sameResultBytes(t, "rerun", ans.Results, prev.Results)
		}
		prev = ans
	}

	// Shared-threshold mode returns identical answers (only work
	// counters may differ) and stays self-consistent.
	shared, _, _ := buildShardPair(t, 3, 60, ShardSetOptions{})
	ans, err := shared.KNN(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameResultBytes(t, "mode-cross", ans.Results, prev.Results)
	sumRef := 0
	for _, st := range ans.ShardStats {
		sumRef += st.Refinements
	}
	if ans.Stats.Refinements != sumRef {
		t.Fatalf("shared-mode merged refinements %d != shard sum %d", ans.Stats.Refinements, sumRef)
	}
}

// TestShardSetRecoveryRoundTrip: checkpoint + WAL per shard, recover
// with OpenShardSet, answers identical; divergent shard persistence
// is refused.
func TestShardSetRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	shards := 3
	set, single, queries := buildShardPair(t, shards, 40, ShardSetOptions{})
	if err := set.OpenWAL(dir); err != nil {
		t.Fatal(err)
	}
	if err := set.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	// Mutations after the checkpoint live only in the WALs.
	extra := queries[len(queries)-1]
	gid, err := set.Add("late", extra)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.Add("late", extra); err != nil {
		t.Fatal(err)
	}
	if err := set.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := single.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := set.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	rec, stats, err := OpenShardSet(dir, single.Cost(), Options{ReducedDims: 4, Seed: 1}, ShardSetOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != shards {
		t.Fatalf("%d recover stats for %d shards", len(stats), shards)
	}
	replayed := 0
	for _, st := range stats {
		replayed += st.WALRecords
	}
	if replayed != 2 { // one add + one delete
		t.Fatalf("replayed %d WAL records, want 2", replayed)
	}
	if rec.Len() != set.Len() || rec.Len() != gid+1 {
		t.Fatalf("recovered %d items, want %d", rec.Len(), set.Len())
	}
	if err := rec.Build(); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries[:2] {
		want, _, err := single.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := rec.KNN(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		sameResultBytes(t, "recovered", ans.Results, want)
	}

	// Divergence: wipe one shard's files; the placement invariant
	// breaks and recovery must refuse rather than serve wrong ids.
	if err := os.Remove(filepath.Join(dir, "shard-001.snap")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "shard-001.wal")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenShardSet(dir, single.Cost(), Options{ReducedDims: 4, Seed: 1}, ShardSetOptions{Shards: shards}); err == nil {
		t.Fatal("recovery accepted diverged shard persistence")
	}
}

// TestShardSetValidation: malformed queries are rejected up front
// with ErrBadQuery and no scatter.
func TestShardSetValidation(t *testing.T) {
	set, _, queries := buildShardPair(t, 2, 20, ShardSetOptions{})
	ctx := context.Background()
	if _, err := set.KNN(ctx, queries[0][:4], 3); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("wrong-dim KNN: %v", err)
	}
	if _, err := set.KNN(ctx, queries[0], 0); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("k=0: %v", err)
	}
	if _, err := set.Range(ctx, queries[0], -1); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("negative eps: %v", err)
	}
	if m := set.Metrics(); m.Shards != 2 || m.Items != set.Len() {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestShardSetStatsMergeIndexAndStages is the regression test for
// addStats dropping the index and per-stage counters: ShardAnswer.Stats
// of an index-served scatter used to claim no index ran. On a 2-shard
// set whose shards each pass the IndexAuto size gate the merged stats
// must carry the index flag and the summed traversal counters; on a
// small scan-served set they must carry every stage by name with the
// summed evaluations, mirrored in StageEvaluations.
func TestShardSetStatsMergeIndexAndStages(t *testing.T) {
	ctx := context.Background()
	build := func(n int) (*ShardSet, []Histogram) {
		t.Helper()
		ds, err := data.GaussianMixtures(n+3, 16, 2, 42)
		if err != nil {
			t.Fatal(err)
		}
		vecs, queries, err := ds.Split(3)
		if err != nil {
			t.Fatal(err)
		}
		set, err := NewShardSet(ds.Cost, Options{ReducedDims: 8, Seed: 42}, ShardSetOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range vecs {
			if _, err := set.Add(ds.Items[i].Label, h); err != nil {
				t.Fatal(err)
			}
		}
		if err := set.Build(); err != nil {
			t.Fatal(err)
		}
		return set, queries
	}
	sum := func(ans *ShardAnswer, field func(*QueryStats) int) int {
		total := 0
		for i, st := range ans.ShardStats {
			if st == nil {
				t.Fatalf("shard %d returned no stats on the healthy path", i)
			}
			total += field(st)
		}
		return total
	}

	indexed, queries := build(2 * (indexAutoMinN + 4))
	for qi, q := range queries {
		ans, err := indexed.KNN(ctx, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range ans.ShardStats {
			if st == nil || !st.IndexUsed {
				t.Fatalf("query %d: shard %d did not serve from its index (stats %+v); the corpus no longer exercises the merge", qi, i, st)
			}
		}
		if !ans.Stats.IndexUsed {
			t.Fatalf("query %d: merged stats claim no index ran", qi)
		}
		if want := sum(ans, func(s *QueryStats) int { return s.IndexNodesVisited }); want == 0 || ans.Stats.IndexNodesVisited != want {
			t.Fatalf("query %d: merged IndexNodesVisited %d, shards sum to %d", qi, ans.Stats.IndexNodesVisited, want)
		}
		if want := sum(ans, func(s *QueryStats) int { return s.IndexPruned }); ans.Stats.IndexPruned != want {
			t.Fatalf("query %d: merged IndexPruned %d, shards sum to %d", qi, ans.Stats.IndexPruned, want)
		}
	}

	scanned, queries := build(300)
	filterAborts := 0
	for qi, q := range queries {
		ans, err := scanned.KNN(ctx, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Stats.IndexUsed {
			t.Fatalf("query %d: a 150-item shard served from an index", qi)
		}
		if len(ans.Stats.Stages) == 0 || len(ans.Stats.Stages) != len(ans.ShardStats[0].Stages) ||
			len(ans.Stats.StageEvaluations) != len(ans.Stats.Stages) {
			t.Fatalf("query %d: merged %d stages / %d stage evaluations, shard 0 ran %d stages",
				qi, len(ans.Stats.Stages), len(ans.Stats.StageEvaluations), len(ans.ShardStats[0].Stages))
		}
		for si, stage := range ans.Stats.Stages {
			if stage.Name != ans.ShardStats[0].Stages[si].Name {
				t.Fatalf("query %d: merged stage %d is %q, shard 0 ran %q", qi, si, stage.Name, ans.ShardStats[0].Stages[si].Name)
			}
			evals := sum(ans, func(s *QueryStats) int { return s.Stages[si].Evaluations })
			pruned := sum(ans, func(s *QueryStats) int { return s.Stages[si].Pruned })
			aborted := sum(ans, func(s *QueryStats) int { return s.Stages[si].Aborted })
			if evals == 0 || stage.Evaluations != evals || stage.Pruned != pruned || stage.Aborted != aborted || ans.Stats.StageEvaluations[si] != evals {
				t.Fatalf("query %d stage %q: merged evaluations %d (mirror %d) pruned %d aborted %d, shards sum to %d / %d / %d",
					qi, stage.Name, stage.Evaluations, ans.Stats.StageEvaluations[si], stage.Pruned, stage.Aborted, evals, pruned, aborted)
			}
			if stage.Aborted > stage.Evaluations {
				t.Fatalf("query %d stage %q: %d aborted of %d evaluations", qi, stage.Name, stage.Aborted, stage.Evaluations)
			}
			filterAborts += stage.Aborted
		}
	}
	if filterAborts == 0 {
		t.Fatal("no filter evaluation was answered by a bound; the corpus no longer exercises the Aborted merge")
	}
	// The engines' cumulative metrics carry the same counter by stage name.
	for i := 0; i < scanned.Shards(); i++ {
		total := int64(0)
		for _, sm := range scanned.Engine(i).Metrics().Stages {
			total += sm.Aborted
		}
		if total == 0 {
			t.Fatalf("shard %d: Metrics().Stages carries no aborted filter evaluations", i)
		}
	}
}
