package vptree

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// points2D builds an n-point 2-D Euclidean test metric.
func points2D(rng *rand.Rand, n int) ([][2]float64, DistFunc) {
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	dist := func(i, j int) float64 {
		return math.Hypot(pts[i][0]-pts[j][0], pts[i][1]-pts[j][1])
	}
	return pts, dist
}

func drainStream(t *testing.T, s *Stream) []Result {
	t.Helper()
	var out []Result
	prev := math.Inf(-1)
	for {
		r, ok := s.Next()
		if !ok {
			return out
		}
		if r.Dist < prev {
			t.Fatalf("emission %d: Dist %g < previous %g", len(out), r.Dist, prev)
		}
		prev = r.Dist
		out = append(out, r)
	}
}

func TestStreamEmitsAllInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(300)
		pts, dist := points2D(rng, n)
		tr, err := Build(n, dist, rand.New(rand.NewSource(int64(trial))))
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		q := [2]float64{rng.Float64() * 10, rng.Float64() * 10}
		qdist := func(i int) float64 {
			return math.Hypot(q[0]-pts[i][0], q[1]-pts[i][1])
		}
		got := drainStream(t, tr.Stream(qdist, nil, 0))
		if len(got) != n {
			t.Fatalf("trial %d: %d emissions, want %d", trial, len(got), n)
		}
		want := make([]Result, n)
		for i := range want {
			want[i] = Result{Index: i, Dist: qdist(i)}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Dist != want[j].Dist {
				return want[i].Dist < want[j].Dist
			}
			return want[i].Index < want[j].Index
		})
		seen := make(map[int]bool, n)
		for i, r := range got {
			if seen[r.Index] {
				t.Fatalf("trial %d: index %d emitted twice", trial, r.Index)
			}
			seen[r.Index] = true
			if math.Abs(r.Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("trial %d emission %d: Dist = %g, want %g", trial, i, r.Dist, want[i].Dist)
			}
		}
	}
}

func TestStreamSkipsDeleted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 250
	pts, dist := points2D(rng, n)
	tr, err := Build(n, dist, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	deleted := map[int]bool{}
	for i := 0; i < 50; i++ {
		deleted[rng.Intn(n)] = true
	}
	qdist := func(i int) float64 {
		return math.Hypot(5-pts[i][0], 5-pts[i][1])
	}
	got := drainStream(t, tr.Stream(qdist, func(id int) bool { return deleted[id] }, 0))
	if len(got) != n-len(deleted) {
		t.Fatalf("%d emissions, want %d", len(got), n-len(deleted))
	}
	for _, r := range got {
		if deleted[r.Index] {
			t.Fatalf("deleted index %d emitted", r.Index)
		}
	}
}

func TestFlattenRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{0, 1, 7, 8, 9, 150} {
		pts, dist := points2D(rng, n+1)
		tr, err := Build(n, dist, rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(tr.Flatten()); err != nil {
			t.Fatalf("n=%d: gob encode: %v", n, err)
		}
		var back Flat
		if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
			t.Fatalf("n=%d: gob decode: %v", n, err)
		}
		re, err := RestoreFlat(&back, n)
		if err != nil {
			t.Fatalf("n=%d: RestoreFlat: %v", n, err)
		}
		if re.Len() != n || re.Nodes() != tr.Nodes() {
			t.Fatalf("n=%d: restored Len/Nodes = %d/%d, want %d/%d", n, re.Len(), re.Nodes(), n, tr.Nodes())
		}
		qdist := func(i int) float64 {
			return math.Hypot(3-pts[i][0], 7-pts[i][1])
		}
		a := drainStream(t, tr.Stream(qdist, nil, 0))
		b := drainStream(t, re.Stream(qdist, nil, 0))
		if len(a) != len(b) {
			t.Fatalf("n=%d: %d vs %d emissions", n, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d emission %d: %+v vs %+v (must be bit-identical)", n, i, a[i], b[i])
			}
		}
	}
}

func TestRestoreFlatRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	n := 80
	_, dist := points2D(rng, n)
	tr, err := Build(n, dist, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	fresh := func() *Flat { return tr.Flatten() }
	leafIdx := -1
	internalIdx := -1
	for i, fn := range fresh().Nodes {
		if fn.Vantage < 0 && leafIdx < 0 {
			leafIdx = i
		}
		if fn.Vantage >= 0 && internalIdx < 0 {
			internalIdx = i
		}
	}
	if leafIdx < 0 || internalIdx < 0 {
		t.Fatal("fixture tree lacks a leaf or internal node")
	}
	if root := fresh().Nodes[0]; root.Inside < 0 || root.Outside < 0 || root.ILo >= root.IHi || root.OLo >= root.OHi {
		t.Fatalf("fixture root lacks two children with nondegenerate annuli: %+v", root)
	}
	cases := []struct {
		name   string
		mutate func(f *Flat)
	}{
		{"vantage out of range", func(f *Flat) { f.Nodes[internalIdx].Vantage = int32(n) }},
		{"bucket item out of range", func(f *Flat) { f.Nodes[leafIdx].Bucket[0] = -2 }},
		{"negative bucket distance", func(f *Flat) {
			if f.Nodes[leafIdx].BDist != nil {
				f.Nodes[leafIdx].BDist[0] = -1
			} else {
				f.Nodes[leafIdx].BDist = []float64{-1}
			}
		}},
		{"size mismatch", func(f *Flat) { f.N++ }},
		{"child self-loop", func(f *Flat) { f.Nodes[internalIdx].Inside = int32(internalIdx) }},
		{"leaf with children", func(f *Flat) { f.Nodes[leafIdx].Inside = int32(leafIdx + 1) }},
		{"infinite radius", func(f *Flat) { f.Nodes[internalIdx].Radius = math.Inf(1) }},
		{"inverted inside annulus", func(f *Flat) { r := &f.Nodes[0]; r.ILo, r.IHi = r.IHi, r.ILo }},
		{"inverted outside annulus", func(f *Flat) { r := &f.Nodes[0]; r.OLo, r.OHi = r.OHi, r.OLo }},
		{"inside annulus beyond radius", func(f *Flat) { r := &f.Nodes[0]; r.IHi = r.Radius + 1 }},
		{"outside annulus within radius", func(f *Flat) { r := &f.Nodes[0]; r.OLo = r.Radius - 1 }},
		{"short row", func(f *Flat) { r := &f.Nodes[leafIdx]; r.Rows = r.Rows[:len(r.Rows)-1] }},
		{"long row", func(f *Flat) { r := &f.Nodes[leafIdx]; r.Rows = append(r.Rows, 1) }},
		{"rows on the root", func(f *Flat) { f.Nodes[0].Rows = []float64{1} }},
		{"NaN row entry", func(f *Flat) { f.Nodes[leafIdx].Rows[0] = math.NaN() }},
		{"infinite row entry", func(f *Flat) { f.Nodes[leafIdx].Rows[0] = math.Inf(1) }},
		{"negative row entry", func(f *Flat) { f.Nodes[leafIdx].Rows[0] = -1 }},
		{"one node without rows", func(f *Flat) { f.Nodes[leafIdx].Rows = nil }},
		{"deeper than a build", func(f *Flat) {
			// Hang a one-item leaf below the deepest leaf, which
			// becomes an internal node with that leaf as its child.
			deepest, level := 0, map[int32]int{0: 0}
			for i, fn := range f.Nodes {
				for _, c := range [2]int32{fn.Inside, fn.Outside} {
					if c >= 0 {
						level[c] = level[int32(i)] + 1
					}
				}
				if fn.Vantage < 0 && level[int32(i)] > level[int32(deepest)] {
					deepest = i
				}
			}
			r := &f.Nodes[deepest]
			l := level[int32(deepest)]
			leaf := FlatNode{Vantage: -1, Bucket: r.Bucket[1:], Inside: -1, Outside: -1}
			leaf.Rows = make([]float64, len(leaf.Bucket)*(l+1))
			r.Vantage, r.Bucket, r.BDist, r.Rows = r.Bucket[0], nil, nil, r.Rows[:l]
			r.Inside = int32(len(f.Nodes))
			f.Nodes = append(f.Nodes, leaf)
		}},
		{"empty leaf", func(f *Flat) { r := &f.Nodes[leafIdx]; r.Bucket, r.BDist, r.Rows = nil, nil, nil }},
		// Older fields the rows contradict: a reader from before the
		// rows would prune with them.
		{"parent annulus disagrees with rows", func(f *Flat) { f.Nodes[leafIdx].PLo += 0.25 }},
		{"vantage distance disagrees with rows", func(f *Flat) {
			for i := range f.Nodes {
				if i > 0 && f.Nodes[i].Vantage >= 0 {
					f.Nodes[i].DVP += 0.25
					return
				}
			}
			t.Fatal("fixture tree has one internal node")
		}},
		{"bucket distance disagrees with rows", func(f *Flat) { f.Nodes[leafIdx].BDist[0] += 0.25 }},
		{"child annulus disagrees with rows", func(f *Flat) { f.Nodes[0].OHi += 0.25 }},
	}
	for _, c := range cases {
		f := fresh()
		c.mutate(f)
		if _, err := RestoreFlat(f, n); err == nil || errors.Is(err, ErrNoRows) {
			t.Errorf("%s: RestoreFlat err = %v, want a corruption error", c.name, err)
		}
	}
	if _, err := RestoreFlat(fresh(), n); err != nil {
		t.Fatalf("unmutated flat rejected: %v", err)
	}
	// A form from before the rows existed is refused as such, not as
	// corruption: its owner rebuilds the tree.
	legacy := fresh()
	for i := range legacy.Nodes {
		legacy.Nodes[i].Rows = nil
	}
	if _, err := RestoreFlat(legacy, n); !errors.Is(err, ErrNoRows) {
		t.Fatalf("flat without rows: err = %v, want ErrNoRows", err)
	}
}

// lineMetric places items at integer positions on a line, several per
// position so exact distance ties abound. The exact metric is
// |pos_i - pos_j|; the reported one subtracts u·delta, u in [0, 1],
// from every stored (item-item) and every query distance — the shape
// of an index metric evaluated through a certified lower-bound exit.
type lineMetric struct {
	pos   []float64 // the query sits at 0, left of every item
	delta float64
	// uPair and uQuery give u per item pair and per item.
	uPair  func(i, j int) float64
	uQuery func(i int) float64
}

func (m *lineMetric) exact(i int) float64 { return m.pos[i] }

func (m *lineMetric) pair(i, j int) float64 {
	return math.Abs(m.pos[i]-m.pos[j]) - m.uPair(min(i, j), max(i, j))*m.delta
}

func (m *lineMetric) query(i int) float64 { return m.exact(i) - m.uQuery(i)*m.delta }

// newLineMetric spreads n items over positions 1..n/2 with the query at
// 0. adversarial sets every stored distance short by the full delta and
// every query distance exact — the collinear case where q = 0, p = 10,
// o = 5 and a stored d(p, o) = 5 - delta give the key 5 + delta >
// d(q, o); otherwise u is drawn per pair and per item from seed.
func newLineMetric(n int, delta float64, adversarial bool, seed int64) *lineMetric {
	m := &lineMetric{pos: make([]float64, n), delta: delta}
	for i := range m.pos {
		m.pos[i] = float64(1 + i/2)
	}
	if adversarial {
		m.uPair = func(i, j int) float64 { return 1 }
		m.uQuery = func(i int) float64 { return 0 }
		return m
	}
	// u on a 2^-20 grid keeps every distance, key and sum exact in
	// float64 for a power-of-two delta, so the checks need no tolerance.
	rng := rand.New(rand.NewSource(seed))
	draw := func() float64 { return float64(rng.Intn(1<<20+1)) / (1 << 20) }
	pair := make([]float64, n*n)
	for k := range pair {
		pair[k] = draw()
	}
	query := make([]float64, n)
	for k := range query {
		query[k] = draw()
	}
	m.uPair = func(i, j int) float64 { return pair[i*n+j] }
	m.uQuery = func(i int) float64 { return query[i] }
	return m
}

// checkApproxStream drains a stream over the reported metric and
// checks what the engine's candidate loop relies on: every item is
// emitted once, emissions never decrease and never exceed the item's
// exact distance. It then runs the multistep k-NN over a second stream
// — refine each emission with the exact distance, stop once the next
// emission exceeds the k-th exact distance — and compares the set of
// items within the final k-th distance, ties included, with brute
// force.
func checkApproxStream(tr *Tree, m *lineMetric, slack float64, k int) error {
	s := tr.Stream(m.query, nil, slack)
	seen := make(map[int]bool)
	prev := math.Inf(-1)
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		if seen[r.Index] {
			return fmt.Errorf("item %d emitted twice", r.Index)
		}
		seen[r.Index] = true
		if r.Dist < prev {
			return fmt.Errorf("emission of item %d: %v after %v", r.Index, r.Dist, prev)
		}
		prev = r.Dist
		if r.Dist > m.exact(r.Index) {
			return fmt.Errorf("item %d emitted at %v above its exact distance %v", r.Index, r.Dist, m.exact(r.Index))
		}
	}
	if len(seen) != len(m.pos) {
		return fmt.Errorf("%d of %d items emitted", len(seen), len(m.pos))
	}

	exact := make([]float64, len(m.pos))
	for i := range exact {
		exact[i] = m.exact(i)
	}
	sorted := append([]float64(nil), exact...)
	sort.Float64s(sorted)
	kth := sorted[k-1]
	var refined []float64
	got := map[int]bool{}
	s = tr.Stream(m.query, nil, slack)
	for {
		r, ok := s.Next()
		if !ok || len(refined) >= k && r.Dist > refined[k-1] {
			break
		}
		refined = append(refined, exact[r.Index])
		sort.Float64s(refined)
		got[r.Index] = true
	}
	for i, d := range exact {
		if want := d <= kth; want != (got[i] && d <= refined[k-1]) {
			return fmt.Errorf("k=%d: item %d at exact distance %v (k-th %v): in answer %v, want %v", k, i, d, kth, !want, want)
		}
	}
	return nil
}

// TestStreamApproximateMetricSlack: under a metric that under-reports
// by up to delta, a stream given slack delta stays sound — emissions
// at or below the exact distance, in order, and multistep k-NN equal to
// brute force over the exact metric, ties included. With slack 0 the
// adversarial collinear metric breaks it: a triangle key overshoots an
// exact distance. The deep trees (at least 4 levels) put every item
// under several ancestor pivots, each of whose keys must stay sound.
func TestStreamApproximateMetricSlack(t *testing.T) {
	const delta = 0x1p-10
	for _, size := range []struct{ n, minDepth int }{{40, 2}, {200, 4}} {
		broken := 0
		for seed := int64(0); seed < 20; seed++ {
			for _, adversarial := range []bool{false, true} {
				m := newLineMetric(size.n, delta, adversarial, seed)
				tr, err := Build(size.n, m.pair, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				if tr.depth < size.minDepth {
					t.Fatalf("n=%d: tree depth %d, want at least %d", size.n, tr.depth, size.minDepth)
				}
				for _, k := range []int{1, 3, 10, size.n / 4} {
					if err := checkApproxStream(tr, m, delta, k); err != nil {
						t.Fatalf("n=%d seed %d adversarial=%v slack delta: %v", size.n, seed, adversarial, err)
					}
				}
				if adversarial && checkApproxStream(tr, m, 0, 1) != nil {
					broken++
				}
			}
		}
		if broken == 0 {
			t.Fatalf("n=%d: slack 0 passed on every adversarial tree; the test no longer reaches the overshoot", size.n)
		}
		t.Logf("n=%d: slack 0 broke %d of 20 adversarial trees", size.n, broken)
	}
}
