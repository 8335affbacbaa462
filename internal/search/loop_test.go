package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"emdsearch/internal/emd"
)

// figure11 is the multistep algorithm written down once more, as plainly
// as the paper's Figure 11 has it, for the loop to be checked against:
// candidates in (filter, index) order; stop at the first filter distance
// above the pruning distance (the k-th best exact distance so far, or
// eps); skip what the predicate rejects; accept on the upper bound alone
// where one is given; refine the rest, an exact distance above the
// pruning distance counting as an abort (simulatedRefine's certificate).
// k == 0 selects the range policy.
func figure11(filter, exact, upper []float64, k int, eps float64, pred func(int) bool) (answer []Result, want QueryStats) {
	order := make([]Result, len(filter))
	for i, f := range filter {
		order[i] = Result{Index: i, Dist: f}
	}
	sortResults(order)
	for _, c := range order {
		threshold := eps
		if k > 0 {
			threshold = math.Inf(1)
			if len(answer) == k {
				threshold = answer[k-1].Dist
			}
		}
		want.Pulled++
		if c.Dist > threshold {
			break
		}
		if pred != nil && !pred(c.Index) {
			continue
		}
		if upper != nil && upper[c.Index] <= eps {
			want.AcceptedByUpper++
			answer = append(answer, Result{Index: c.Index, Dist: upper[c.Index]})
			continue
		}
		want.Refinements++
		if exact[c.Index] > threshold {
			want.RefinesAborted++
			continue
		}
		answer = append(answer, Result{Index: c.Index, Dist: exact[c.Index]})
		sortResults(answer)
		if k > 0 && len(answer) > k {
			answer = answer[:k]
		}
	}
	sortResults(answer)
	return answer, want
}

// TestCandidateLoopEquivalence runs every acceptance policy of the one
// candidate loop — top-k, eps, eps with the upper-bound short-cut, each
// with and without a predicate — inline and over a pool, on instances
// drawn from a coarse grid so that ties on the pruning distance are
// common. Answers must equal figure11's bit for bit at every worker
// count; inline, so must Pulled, Refinements, RefinesAborted and
// AcceptedByUpper, with nothing skipped — the counters are a function of
// the inputs when no second goroutine is involved.
func TestCandidateLoopEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 150; trial++ {
		n, grid := 1+rng.Intn(120), float64(2+rng.Intn(30))
		filter, exact, upper := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range exact {
			exact[i] = math.Round(rng.Float64()*10*grid) / grid
			filter[i] = math.Floor(exact[i]*rng.Float64()*grid) / grid
			upper[i] = exact[i] + math.Round(rng.Float64()*2*grid)/grid
		}
		eps := math.Round(rng.Float64()*8*grid) / grid
		k := 1 + rng.Intn(12)
		policies := []struct {
			name  string
			q     query
			upper []float64
		}{
			{"top-k", query{k: k}, nil},
			{"eps", query{eps: eps}, nil},
			{"eps+upper", query{eps: eps, upper: func(i int) float64 { return upper[i] }}, upper},
		}
		for _, pol := range policies {
			for _, pred := range []func(int) bool{nil, func(i int) bool { return i%5 != 2 }} {
				want, wantStats := figure11(filter, exact, pol.upper, pol.q.k, eps, pred)
				for _, workers := range []int{1, 4} {
					tag := fmt.Sprintf("trial %d %s pred=%v workers=%d", trial, pol.name, pred != nil, workers)
					q := pol.q
					q.pred, q.workers = pred, workers
					got, pending, stats, err := q.run(func() (Ranking, error) { return NewScanRanking(filter), nil }, simulatedRefine(exact))
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d results, figure 11 gives %d", tag, len(got), len(want))
					}
					for i := range want {
						if got[i].Index != want[i].Index || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
							t.Fatalf("%s pos %d: %v, figure 11 gives %v", tag, i, got[i], want[i])
						}
					}
					if len(pending) != 0 || stats.Cancelled || stats.Workers != workers {
						t.Fatalf("%s: pending %v cancelled %v workers %d", tag, pending, stats.Cancelled, stats.Workers)
					}
					if stats.AcceptedByUpper != wantStats.AcceptedByUpper {
						// The feeder's own counter, and eps never moves.
						t.Fatalf("%s: %d accepted by upper bound, figure 11 gives %d", tag, stats.AcceptedByUpper, wantStats.AcceptedByUpper)
					}
					if workers > 1 {
						continue
					}
					if stats.Pulled != wantStats.Pulled || stats.Refinements != wantStats.Refinements ||
						stats.RefinesAborted != wantStats.RefinesAborted || stats.RefinementsSkipped != 0 {
						t.Fatalf("%s: pulled/refined/aborted/skipped %d/%d/%d/%d, figure 11 gives %d/%d/%d/0", tag,
							stats.Pulled, stats.Refinements, stats.RefinesAborted, stats.RefinementsSkipped,
							wantStats.Pulled, wantStats.Refinements, wantStats.RefinesAborted)
					}
				}
			}
		}
	}
}

// faultySearcher is a two-stage pipeline over n items in which one named
// site panics on its third call: "scan" (the eager bottom stage), "stage"
// (the chained second stage's Distance), "index" (an index ranking's
// Next), "pred", "upper" or "refine". Any other site name panics nowhere.
func faultySearcher(n, workers int, site *string) (s *Searcher, pred func(int) bool, upper func(int) float64) {
	calls := map[string]int{}
	trip := func(at string) {
		if at != *site {
			return
		}
		if calls[at]++; calls[at] == 3 {
			panic("injected fault in " + at)
		}
	}
	exact := func(i int) float64 { return float64(i) }
	s = &Searcher{
		N:       n,
		Workers: workers,
		Stages: []FilterStage{{
			Name:         "bottom",
			PrepareQuery: func(q emd.Histogram) emd.Histogram { return q },
			Distance: Exact(func(_ emd.Histogram, i int) float64 {
				trip("scan")
				return exact(i) / 4
			}),
		}, {
			Name:         "second",
			PrepareQuery: func(q emd.Histogram) emd.Histogram { return q },
			Distance: Exact(func(_ emd.Histogram, i int) float64 {
				trip("stage")
				return exact(i) / 2
			}),
		}},
		Index: func(emd.Histogram, IndexHint) (IndexRanking, error) {
			if *site != "index" {
				return nil, nil
			}
			return faultyIndex{trip: trip, inner: NewScanRanking(make([]float64, n))}, nil
		},
		// Refinements run on pool goroutines, so this site faults on a
		// fixed item instead of sharing the feeder-side call counter.
		Refine: ExactRefine(func(_ emd.Histogram, i int) float64 {
			if *site == "refine" && i == 2 {
				panic("injected fault in refine")
			}
			return exact(i)
		}),
	}
	pred = func(int) bool { trip("pred"); return true }
	upper = func(i int) float64 { trip("upper"); return exact(i) + 1 }
	return s, pred, upper
}

type faultyIndex struct {
	trip  func(string)
	inner Ranking
}

func (f faultyIndex) Next() (Candidate, bool) { f.trip("index"); return f.inner.Next() }
func (f faultyIndex) IndexStats() IndexStats  { return IndexStats{} }
func (f faultyIndex) Label() string           { return "faulty" }

// TestCandidateLoopContainsPanics: whichever side of the loop a panic
// comes from — building the ranking, advancing it through a chained
// stage or an index, the predicate, the upper bound, a refinement — the
// query fails with a *PanicError, inline and over a pool alike, every
// pool goroutine has exited by then, and the Searcher answers the next
// query as if nothing had happened.
func TestCandidateLoopContainsPanics(t *testing.T) {
	const n, k = 40, 5
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		for _, site := range []string{"scan", "stage", "index", "pred", "upper", "refine"} {
			t.Run(fmt.Sprintf("%s/workers=%d", site, workers), func(t *testing.T) {
				armed := site
				s, pred, upper := faultySearcher(n, workers, &armed)
				goroutines := runtime.NumGoroutine()
				var err error
				if site == "upper" {
					_, _, err = s.Range(ctx, RangeQuery{Eps: n, Upper: upper})
				} else {
					_, err = s.KNN(ctx, KNNQuery{K: k, Pred: pred})
				}
				var pe *PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("err = %v, want a *PanicError", err)
				}
				if len(pe.Stack) == 0 || (site == "refine") != (pe.Index >= 0) {
					t.Fatalf("PanicError index %d, %d B of stack", pe.Index, len(pe.Stack))
				}
				// The pool was waited for before the query returned; a
				// worker may still be between its wg.Done and its exit.
				for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines after the contained fault, %d before it", runtime.NumGoroutine(), goroutines)
					}
				}
				armed = "nowhere"
				out, err := s.KNN(ctx, KNNQuery{K: k, Pred: pred})
				if err != nil {
					t.Fatalf("query after the fault: %v", err)
				}
				ids := make([]int, len(out.Results))
				for i, r := range out.Results {
					ids[i] = r.Index
				}
				if !sort.IntsAreSorted(ids) || len(ids) != k || ids[k-1] != k-1 {
					t.Fatalf("query after the fault answered %v", out.Results)
				}
			})
		}
	}
}

// TestCandidateLoopCancel: a cancel flag that goes up inside the third
// refinement stops the loop under both policies, inline and pooled. The
// run reports Cancelled; what it confirmed is exact; every candidate it
// pulled but did not resolve is pending with a bound between its filter
// distance and its exact distance; inline that is the interrupted
// candidate alone, and nothing is pulled after it.
func TestCandidateLoopCancel(t *testing.T) {
	const n = 60
	filter, exact := make([]float64, n), make([]float64, n)
	for i := range exact {
		filter[i], exact[i] = float64(i), float64(i)+0.5
	}
	for _, workers := range []int{1, 4} {
		for _, pol := range []query{{k: n}, {eps: n}} {
			var cancel atomic.Bool
			var refinements atomic.Int64
			q := pol
			q.workers, q.cancel = workers, &cancel
			got, pending, stats, err := q.run(func() (Ranking, error) { return NewScanRanking(filter), nil },
				func(i int, _ float64) Refinement {
					if refinements.Add(1) == 3 {
						cancel.Store(true)
					}
					if cancel.Load() {
						return Refinement{Dist: filter[i] + 0.25, Interrupted: true}
					}
					return Refinement{Dist: exact[i]}
				})
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Cancelled || len(pending) == 0 {
				t.Fatalf("workers=%d k=%d: cancelled %v, %d pending", workers, pol.k, stats.Cancelled, len(pending))
			}
			seen := map[int]bool{}
			for _, r := range got {
				if r.Dist != exact[r.Index] || seen[r.Index] {
					t.Fatalf("workers=%d k=%d: confirmed %v", workers, pol.k, r)
				}
				seen[r.Index] = true
			}
			for _, p := range pending {
				if p.Lower < filter[p.Index] || p.Lower > exact[p.Index] || seen[p.Index] {
					t.Fatalf("workers=%d k=%d: pending %v", workers, pol.k, p)
				}
				seen[p.Index] = true
			}
			if len(seen) != stats.Pulled {
				t.Fatalf("workers=%d k=%d: %d candidates accounted for, %d pulled", workers, pol.k, len(seen), stats.Pulled)
			}
			if workers == 1 && (stats.Pulled != 3 || stats.Refinements != 3 || len(got) != 2 ||
				len(pending) != 1 || pending[0] != (PendingCandidate{Index: 2, Lower: 2.25})) {
				t.Fatalf("inline k=%d: pulled %d refined %d confirmed %v pending %v", pol.k, stats.Pulled, stats.Refinements, got, pending)
			}
		}
	}
}
