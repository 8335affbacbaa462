package mtree

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// euclid2D builds an n-point 2-D Euclidean test metric.
func euclid2D(rng *rand.Rand, n int) ([][2]float64, DistFunc) {
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{rng.Float64() * 10, rng.Float64() * 10}
	}
	dist := func(i, j int) float64 {
		return math.Hypot(pts[i][0]-pts[j][0], pts[i][1]-pts[j][1])
	}
	return pts, dist
}

func buildTestTree(t *testing.T, dist DistFunc, n int, seed int64) *Tree {
	t.Helper()
	tr, err := New(dist, 6, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < n; i++ {
		tr.Insert(i)
	}
	return tr
}

// drainStream collects all emissions, asserting monotone distances.
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
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(300)
		pts, dist := euclid2D(rng, n)
		tr := buildTestTree(t, dist, n, int64(trial))
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
	rng := rand.New(rand.NewSource(32))
	n := 200
	pts, dist := euclid2D(rng, n)
	tr := buildTestTree(t, dist, n, 7)
	deleted := map[int]bool{}
	for i := 0; i < 40; i++ {
		deleted[rng.Intn(n)] = true
	}
	q := [2]float64{5, 5}
	qdist := func(i int) float64 {
		return math.Hypot(q[0]-pts[i][0], q[1]-pts[i][1])
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

// TestStreamPrefixMatchesKNN: consuming k emissions equals the batch
// KNN answer — the property the engine's incremental filter relies on.
func TestStreamPrefixMatchesKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 500
	pts, dist := euclid2D(rng, n)
	tr := buildTestTree(t, dist, n, 9)
	for _, k := range []int{1, 5, 25} {
		q := [2]float64{rng.Float64() * 10, rng.Float64() * 10}
		qdist := func(i int) float64 {
			return math.Hypot(q[0]-pts[i][0], q[1]-pts[i][1])
		}
		want, _, err := tr.KNN(qdist, k)
		if err != nil {
			t.Fatalf("KNN: %v", err)
		}
		s := tr.Stream(qdist, nil, 0)
		for i := 0; i < k; i++ {
			r, ok := s.Next()
			if !ok {
				t.Fatalf("k=%d: stream dry after %d emissions", k, i)
			}
			if r.Index != want[i].Index || math.Abs(r.Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("k=%d emission %d: got (%d, %g), want (%d, %g)",
					k, i, r.Index, r.Dist, want[i].Index, want[i].Dist)
			}
		}
		if st := s.Stats(); st.DistanceCalls >= n && n > 50 {
			t.Fatalf("k=%d: %d distance calls for n=%d, expected pruning", k, st.DistanceCalls, n)
		}
	}
}

func TestFlattenRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, n := range []int{0, 1, 5, 120} {
		pts, dist := euclid2D(rng, n+1) // n+1 so qdist works for n=0
		tr := buildTestTree(t, dist, n, 11)
		flat := tr.Flatten()

		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(flat); err != nil {
			t.Fatalf("n=%d: gob encode: %v", n, err)
		}
		var back Flat
		if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
			t.Fatalf("n=%d: gob decode: %v", n, err)
		}
		re, err := RestoreFlat(&back, n, rand.New(rand.NewSource(12)))
		if err != nil {
			t.Fatalf("n=%d: RestoreFlat: %v", n, err)
		}
		if re.Len() != n || re.Nodes() != tr.Nodes() {
			t.Fatalf("n=%d: restored Len/Nodes = %d/%d, want %d/%d", n, re.Len(), re.Nodes(), n, tr.Nodes())
		}
		q := [2]float64{3, 7}
		qdist := func(i int) float64 {
			return math.Hypot(q[0]-pts[i][0], q[1]-pts[i][1])
		}
		a := drainStream(t, tr.Stream(qdist, nil, 0))
		b := drainStream(t, re.Stream(qdist, nil, 0))
		if len(a) != len(b) {
			t.Fatalf("n=%d: %d vs %d emissions after restore", n, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d emission %d: %+v vs %+v (must be bit-identical)", n, i, a[i], b[i])
			}
		}
	}
}

func TestRestoreFlatRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	n := 60
	_, dist := euclid2D(rng, n)
	tr := buildTestTree(t, dist, n, 13)
	fresh := func() *Flat {
		return tr.Flatten()
	}
	cases := []struct {
		name   string
		mutate func(f *Flat)
	}{
		{"object out of range", func(f *Flat) { f.Nodes[0].Entries[0].Object = int32(n) }},
		{"negative radius", func(f *Flat) { f.Nodes[0].Entries[0].Radius = -1 }},
		{"nan radius", func(f *Flat) { f.Nodes[0].Entries[0].Radius = math.NaN() }},
		{"size mismatch", func(f *Flat) { f.Size++ }},
		{"capacity too small", func(f *Flat) { f.Capacity = 1 }},
		{"child self-loop", func(f *Flat) {
			for i := range f.Nodes {
				for j := range f.Nodes[i].Entries {
					if f.Nodes[i].Entries[j].Child >= 0 {
						f.Nodes[i].Entries[j].Child = 0
						return
					}
				}
			}
		}},
		{"no nodes", func(f *Flat) { f.Nodes = nil }},
	}
	for _, c := range cases {
		f := fresh()
		c.mutate(f)
		if _, err := RestoreFlat(f, n, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("%s: RestoreFlat accepted corrupted input", c.name)
		}
	}
	if _, err := RestoreFlat(fresh(), n, rand.New(rand.NewSource(1))); err != nil {
		t.Fatalf("unmutated flat rejected: %v", err)
	}
}

// TestCloneInsertExtends: cloning a restored tree and inserting new
// ids yields the same answers as querying all ids — the engine's
// incremental index maintenance path.
func TestCloneInsertExtends(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	total := 150
	pts, dist := euclid2D(rng, total)
	n0 := 100
	tr := buildTestTree(t, dist, n0, 17)
	re, err := RestoreFlat(tr.Flatten(), n0, rand.New(rand.NewSource(18)))
	if err != nil {
		t.Fatalf("RestoreFlat: %v", err)
	}
	cl, err := re.Clone(dist, rand.New(rand.NewSource(19)))
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	for i := n0; i < total; i++ {
		cl.Insert(i)
	}
	if cl.Len() != total {
		t.Fatalf("Len = %d, want %d", cl.Len(), total)
	}
	q := [2]float64{2, 8}
	qdist := func(i int) float64 {
		return math.Hypot(q[0]-pts[i][0], q[1]-pts[i][1])
	}
	got := drainStream(t, cl.Stream(qdist, nil, 0))
	if len(got) != total {
		t.Fatalf("%d emissions, want %d", len(got), total)
	}
	prevIdx := make(map[int]bool)
	for _, r := range got {
		if prevIdx[r.Index] {
			t.Fatalf("index %d emitted twice", r.Index)
		}
		prevIdx[r.Index] = true
		if math.Abs(r.Dist-qdist(r.Index)) > 1e-9 {
			t.Fatalf("index %d: Dist %g, want %g", r.Index, r.Dist, qdist(r.Index))
		}
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
// brute force over the exact metric, ties included. Capacity 4 makes
// trees several levels deep, so covering radii built from sums of
// stored distances are exercised. With slack 0 the adversarial collinear
// metric breaks it: a parent-distance key overshoots an exact
// distance.
func TestStreamApproximateMetricSlack(t *testing.T) {
	const n, delta = 40, 0x1p-10
	broken := 0
	for seed := int64(0); seed < 20; seed++ {
		for _, adversarial := range []bool{false, true} {
			m := newLineMetric(n, delta, adversarial, seed)
			tr, err := New(m.pair, 4, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				tr.Insert(i)
			}
			for _, k := range []int{1, 3, 10} {
				if err := checkApproxStream(tr, m, delta, k); err != nil {
					t.Fatalf("seed %d adversarial=%v slack delta: %v", seed, adversarial, err)
				}
			}
			if adversarial && checkApproxStream(tr, m, 0, 1) != nil {
				broken++
			}
		}
	}
	if broken == 0 {
		t.Fatal("slack 0 passed on every adversarial tree; the test no longer reaches the overshoot")
	}
	t.Logf("slack 0 broke %d of 20 adversarial trees", broken)
}
