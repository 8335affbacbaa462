package emdsearch

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"emdsearch/internal/persist"
)

// TestSaveLoadCascadeSection round-trips the reduction cascade through
// the snapshot: a Hierarchy engine writes every level (finest first, no
// plan), an engine configured with the same levels resumes the chain
// without Build, and any other configuration silently falls back to the
// single-level filter — never an error, never a wrong answer.
func TestSaveLoadCascadeSection(t *testing.T) {
	hierOpts := Options{Hierarchy: []int{8, 4, 2}, SampleSize: 10}
	eng, queries := buildEngine(t, hierOpts, 60)
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
	if snap.Cascade == nil {
		t.Fatal("snapshot of a 3-level engine carries no cascade section")
	}
	if len(snap.Cascade.Levels) != 3 || snap.Cascade.Auto || snap.Cascade.PlanLevels != nil || snap.Cascade.PlanID != 0 {
		t.Fatalf("cascade section: %d levels, plan %v (id %x, auto=%v), want 3 levels and no plan",
			len(snap.Cascade.Levels), snap.Cascade.PlanLevels, snap.Cascade.PlanID, snap.Cascade.Auto)
	}
	for i, want := range []int{8, 4, 2} {
		if got := snap.Cascade.Levels[i].Reduced; got != want {
			t.Fatalf("cascade level %d has d'=%d, want %d (finest first)", i, got, want)
		}
	}

	for _, c := range []struct {
		name   string
		opts   Options
		levels int
	}{
		{"hier-loaded", hierOpts, 3},
		// The saved chain is not the configured one: dropped.
		{"hier-mismatch", Options{Hierarchy: []int{8, 4}, SampleSize: 10}, 1},
		{"single-level", Options{ReducedDims: 8, SampleSize: 10}, 1},
	} {
		loaded, err := LoadEngine(bytes.NewReader(raw), eng.Cost(), c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		lsnap, err := loaded.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := len(lsnap.plan.reductions()); got != c.levels {
			t.Fatalf("%s: loaded pipeline runs %d levels, want %d", c.name, got, c.levels)
		}
		got, _, err := loaded.KNN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, c.name, "KNN", got, want)
	}
}

// snapshotAsV3 rewrites a current-format snapshot as a version-3 file:
// the version word is patched, the cascade frame dropped, and an empty
// frame put where a version-3 file carried its quantized filter, which
// readers skip without decoding.
func snapshotAsV3(t *testing.T, v5 []byte) []byte {
	t.Helper()
	f := snapshotFrames(t, v5)
	empty := []byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0} // length 0, ^0, CRC32 of nothing
	return forgeSnapshot(3, f[0], f[1], f[2], f[3], empty, f[4])
}

// TestLoadV3SnapshotCascadeCompat: a version-3 file (no cascade frame)
// must load cleanly under a Hierarchy; the engine starts on the
// single-level filter, answers identically, and Build re-derives the
// configured chain.
func TestLoadV3SnapshotCascadeCompat(t *testing.T) {
	opts := Options{Hierarchy: []int{8, 2}, SampleSize: 10}
	eng, queries := buildEngine(t, opts, 50)
	q := queries[0]
	want, _, err := eng.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v3 := snapshotAsV3(t, buf.Bytes())

	snap, err := persist.ReadSnapshot(bytes.NewReader(v3))
	if err != nil {
		t.Fatalf("version-3 snapshot rejected: %v", err)
	}
	if snap.Cascade != nil {
		t.Fatal("version-3 snapshot decoded a cascade section")
	}
	loaded, err := LoadEngine(bytes.NewReader(v3), eng.Cost(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(loaded.plan.reductions()); got != 1 {
		t.Fatalf("v3-loaded engine runs %d levels, want the single-level filter", got)
	}
	got, _, err := loaded.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "v3", "KNN", got, want)
	if err := loaded.Build(); err != nil {
		t.Fatal(err)
	}
	if got := len(loaded.plan.reductions()); got != 2 {
		t.Fatalf("rebuilt engine runs %d levels, want 2", got)
	}
	got, _, err = loaded.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "v3-rebuilt", "KNN", got, want)
}

// TestLoadRejectsBadCascadeSection covers CRC-valid but semantically
// damaged cascade sections: the frame decodes fine, so only load-time
// re-validation stands between the bytes and an unsound filter chain
// (a non-nested "cascade" would prune true answers). The fixture's
// section also carries the plan an engine that planned its chain at run
// time wrote. Every case must fail with ErrCorrupt.
func TestLoadRejectsBadCascadeSection(t *testing.T) {
	opts := Options{Hierarchy: []int{8, 4, 2}, SampleSize: 10}
	eng, _ := buildEngine(t, opts, 40)
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := func() *persist.Snapshot {
		s, err := persist.ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if s.Cascade == nil || len(s.Cascade.Levels) != 3 {
			t.Fatalf("fixture carries no 3-level cascade section: %+v", s.Cascade)
		}
		s.Cascade.PlanLevels = []int{2, 4, 8}
		s.Cascade.PlanID, s.Cascade.Auto = planID(s.Cascade.PlanLevels), true
		return s
	}
	write := func(s *persist.Snapshot) []byte {
		var out bytes.Buffer
		if err := persist.WriteSnapshot(&out, s); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	good := write(fresh())
	cases := []struct {
		name   string
		mutate func(s *persist.Snapshot)
	}{
		{"empty section", func(s *persist.Snapshot) { s.Cascade = &persist.CascadeSection{} }},
		{"single-level chain", func(s *persist.Snapshot) {
			s.Cascade.Levels = s.Cascade.Levels[:1]
			s.Cascade.PlanLevels, s.Cascade.PlanID = nil, 0
		}},
		{"finest disagrees with engine reduction", func(s *persist.Snapshot) {
			a := append([]int(nil), s.Cascade.Levels[0].Assign...)
			a[0] = (a[0] + 1) % s.Cascade.Levels[0].Reduced
			s.Cascade.Levels[0].Assign = a
		}},
		{"not strictly coarser", func(s *persist.Snapshot) { s.Cascade.Levels[2] = s.Cascade.Levels[1] }},
		{"not nested", func(s *persist.Snapshot) {
			// Break the coarsest level: move one original bin to another
			// group so two fine-level groupmates land in different coarse
			// groups somewhere.
			a := append([]int(nil), s.Cascade.Levels[2].Assign...)
			a[0] = (a[0] + 1) % s.Cascade.Levels[2].Reduced
			s.Cascade.Levels[2].Assign = a
		}},
		{"plan fingerprint mismatch", func(s *persist.Snapshot) { s.Cascade.PlanID ^= 1 }},
		{"plan not ascending", func(s *persist.Snapshot) {
			s.Cascade.PlanLevels = []int{8, 4, 2}
			s.Cascade.PlanID = planID(s.Cascade.PlanLevels)
		}},
		{"plan disagrees with chain", func(s *persist.Snapshot) {
			s.Cascade.PlanLevels = []int{3, 4, 8}
			s.Cascade.PlanID = planID(s.Cascade.PlanLevels)
		}},
	}
	for _, c := range cases {
		s := fresh()
		c.mutate(s)
		_, err := LoadEngine(bytes.NewReader(write(s)), eng.Cost(), opts)
		if err == nil {
			t.Errorf("%s: load accepted a damaged cascade section", c.name)
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
	}
	if _, err := LoadEngine(bytes.NewReader(good), eng.Cost(), opts); err != nil {
		t.Fatalf("unmutated snapshot rejected: %v", err)
	}
}

// TestTortureSnapshotCascadeFlipMatrix repeats the snapshot flip
// matrix over files carrying the cascade section, so the damage sweep
// covers that frame too: one a Hierarchy engine writes, and the
// version-4 golden whose section also carries a run-time plan. Every
// single-byte flip must fail typed; a flip the CRC forgave could plant
// an unsound filter chain into the query path.
func TestTortureSnapshotCascadeFlipMatrix(t *testing.T) {
	d := 8
	cost := LinearCost(d)
	opts := Options{Hierarchy: []int{4, 2}, SampleSize: 6, Seed: 11}
	eng, err := NewEngine(cost, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 12; i++ {
		if _, err := eng.Add("", randHist(rng, d)); err != nil {
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
	golden, err := os.ReadFile("testdata/v4_auto_2_4.snap")
	if err != nil {
		t.Fatal(err)
	}
	for _, good := range [][]byte{buf.Bytes(), golden} {
		if snap, err := persist.ReadSnapshot(bytes.NewReader(good)); err != nil || snap.Cascade == nil {
			t.Fatalf("fixture snapshot carries no cascade section (err=%v)", err)
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
}

// TestLoadLegacyAutoCascadeSnapshot pins what engines that planned
// their chain at run time wrote (testdata/v4_auto_2_4.snap: the
// TestTortureSnapshotCascadeFlipMatrix fixture, with the chain [2 4]
// adopted after Build). Its section is adopted like any other, when its
// dimensionalities are the configured chain's: under Hierarchy {4, 2}
// the engine runs the golden's own reductions bit for bit, answers
// equal to brute force, and re-saves without the plan. Under
// ReducedDims 4 it runs the finest level alone. A forged plan
// fingerprint or plan level list fails ErrCorrupt.
func TestLoadLegacyAutoCascadeSnapshot(t *testing.T) {
	const d = 8
	cost := LinearCost(d)
	golden, err := os.ReadFile("testdata/v4_auto_2_4.snap")
	if err != nil {
		t.Fatal(err)
	}
	want, err := persist.ReadSnapshot(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if cs := want.Cascade; cs == nil || !cs.Auto || !slices.Equal(cs.PlanLevels, []int{2, 4}) || len(cs.Levels) != 2 {
		t.Fatalf("golden cascade section %+v, want levels and the auto plan [2 4]", cs)
	}
	if got, pinned := planID(want.Cascade.PlanLevels), want.Cascade.PlanID; got != pinned {
		t.Fatalf("planID([2 4]) = %016x, the golden carries %016x", got, pinned)
	}

	hier := Options{Hierarchy: []int{4, 2}, SampleSize: 6, Seed: 11}
	loaded, err := LoadEngine(bytes.NewReader(golden), cost, hier)
	if err != nil {
		t.Fatal(err)
	}
	if got, shape := planShape(loaded.plan), []string{"Potentials", "Red-EMD-2@2", "Red-EMD-4@4"}; !slices.Equal(got, shape) {
		t.Fatalf("restored levels %v, want %v", got, shape)
	}
	reds := loaded.plan.reductions()
	for i, lv := range want.Cascade.Levels { // finest first
		r := reds[len(reds)-1-i]
		if !slices.Equal(r.Assignment(), lv.Assign) || r.ReducedDims() != lv.Reduced {
			t.Errorf("level d'=%d: restored %v, golden %v", lv.Reduced, r.Assignment(), lv.Assign)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for qi := 0; qi < 3; qi++ {
		checkExactKNN(t, fmt.Sprintf("auto golden query %d", qi), loaded, randHist(rng, d), 5)
	}
	var resaved bytes.Buffer
	if err := loaded.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	got, err := persist.ReadSnapshot(bytes.NewReader(resaved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want.Cascade.PlanLevels, want.Cascade.PlanID, want.Cascade.Auto = nil, 0, false
	if !reflect.DeepEqual(got, want) {
		t.Errorf("re-saved golden decodes to\n%+v\nwant the golden without its plan\n%+v", got, want)
	}

	single, err := LoadEngine(bytes.NewReader(golden), cost, Options{ReducedDims: 4, SampleSize: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if got, shape := planShape(single.plan), []string{"Potentials", "Red-EMD@4"}; !slices.Equal(got, shape) {
		t.Fatalf("ReducedDims 4 restored levels %v, want %v", got, shape)
	}
	checkExactKNN(t, "auto golden, single level", single, randHist(rng, d), 5)

	for name, forge := range map[string]func(cs *persist.CascadeSection){
		"forged plan id":     func(cs *persist.CascadeSection) { cs.PlanID ^= 1 },
		"forged plan levels": func(cs *persist.CascadeSection) { cs.PlanLevels = []int{3, 4}; cs.PlanID = planID(cs.PlanLevels) },
	} {
		s, err := persist.ReadSnapshot(bytes.NewReader(golden))
		if err != nil {
			t.Fatal(err)
		}
		forge(s.Cascade)
		var buf bytes.Buffer
		if err := persist.WriteSnapshot(&buf, s); err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{hier, {ReducedDims: 4, SampleSize: 6, Seed: 11}} {
			if _, err := LoadEngine(bytes.NewReader(buf.Bytes()), cost, opts); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s (d'=%d, hierarchy %v): err = %v, want ErrCorrupt", name, opts.ReducedDims, opts.Hierarchy, err)
			}
		}
	}
}
