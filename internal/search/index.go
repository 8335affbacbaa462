package search

import "time"

// IndexQueryKind tells an index-backed candidate generator what query
// shape it is serving, so its policy can accept or decline per query
// (e.g. decline k-NN with k close to n, where a scan is cheaper).
type IndexQueryKind int

const (
	// IndexKNN is a k-nearest-neighbor query; IndexHint.K carries k.
	IndexKNN IndexQueryKind = iota
	// IndexRange is a range query; IndexHint.Eps carries the radius.
	IndexRange
	// IndexRank is an open-ended ranking request (Searcher.Ranking)
	// with no known stopping point.
	IndexRank
)

// IndexHint describes the query an index is asked to serve.
type IndexHint struct {
	Kind IndexQueryKind
	K    int
	Eps  float64
}

// IndexStats reports the traversal work of one index-backed ranking.
type IndexStats struct {
	// NodesVisited counts index nodes expanded by the traversal.
	NodesVisited int
	// Pruned counts index nodes ruled out without being expanded.
	Pruned int
	// DistanceCalls counts filter-metric evaluations — the index
	// equivalent of a stage's Evaluations, sub-linear in n when the
	// index is doing its job.
	DistanceCalls int
}

// IndexRanking is a Ranking produced by a metric index: candidates
// emitted in nondecreasing lower-bound order WITHOUT an O(n) scan.
// Because the order is nondecreasing and each emitted Dist lower-bounds
// the exact distance, the KNOP threshold break remains lossless — the
// answer set is provably identical to the scan path's.
type IndexRanking interface {
	Ranking
	// IndexStats reports the work performed so far; read after the
	// consumer stops pulling.
	IndexStats() IndexStats
	// Label names the index for per-stage statistics, e.g.
	// "VPTree(Red-EMD)".
	Label() string
}

// timedRanking wraps a ranking with a cumulative wall-time counter so
// index traversal cost lands in the stage duration like any filter.
type timedRanking struct {
	inner Ranking
	dur   *time.Duration
}

func (t *timedRanking) Next() (Candidate, bool) {
	t0 := time.Now()
	c, ok := t.inner.Next()
	*t.dur += time.Since(t0)
	return c, ok
}
