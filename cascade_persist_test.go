package emdsearch

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"emdsearch/internal/cascadeplan"
	"emdsearch/internal/persist"
)

// TestSaveLoadCascadeSection round-trips the reduction cascade and the
// auto-cascade plan through the version-4 snapshot: an AutoCascade
// engine must resume its planned chain exactly (no re-derivation, no
// re-plan needed), a Hierarchy engine must adopt a matching saved
// chain, and a non-matching configuration must silently fall back to
// the single-level filter — never an error, never a wrong answer.
func TestSaveLoadCascadeSection(t *testing.T) {
	autoOpts := Options{ReducedDims: 8, SampleSize: 10, AutoCascade: true}
	eng, queries := buildEngine(t, autoOpts, 60)
	if err := eng.adoptChain([]int{2, 4, 8}); err != nil {
		t.Fatal(err)
	}
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
		t.Fatal("snapshot of a planned engine carries no cascade section")
	}
	if len(snap.Cascade.Levels) != 3 || !snap.Cascade.Auto {
		t.Fatalf("cascade section: %d levels, auto=%v, want 3/true", len(snap.Cascade.Levels), snap.Cascade.Auto)
	}
	if !slices.Equal(snap.Cascade.PlanLevels, []int{2, 4, 8}) {
		t.Fatalf("cascade section plan %v, want [2 4 8]", snap.Cascade.PlanLevels)
	}

	loaded, err := LoadEngine(bytes.NewReader(raw), eng.Cost(), autoOpts)
	if err != nil {
		t.Fatal(err)
	}
	if plan := loaded.Metrics().CascadePlan; !slices.Equal(plan, []int{2, 4, 8}) {
		t.Fatalf("loaded plan %v, want [2 4 8]", plan)
	}
	got, _, err := loaded.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "auto-loaded", "KNN", got, want)
	lsnap, err := loaded.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(lsnap.plan.reductions()) != 3 {
		t.Fatalf("loaded pipeline runs %d levels, want 3", len(lsnap.plan.reductions()))
	}

	// A Hierarchy engine writes the same section (minus the plan) and a
	// matching configuration resumes it without Build.
	hierOpts := Options{Hierarchy: []int{8, 2}, SampleSize: 10}
	heng, hqueries := buildEngine(t, hierOpts, 60)
	hq := hqueries[0]
	hwant, _, err := heng.KNN(hq, 5)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := heng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	hraw := append([]byte(nil), buf.Bytes()...)
	hsnap, err := persist.ReadSnapshot(bytes.NewReader(hraw))
	if err != nil {
		t.Fatal(err)
	}
	if hsnap.Cascade == nil || len(hsnap.Cascade.Levels) != 2 || hsnap.Cascade.Auto {
		t.Fatalf("hierarchy cascade section: %+v", hsnap.Cascade)
	}
	if hsnap.Cascade.PlanLevels != nil {
		t.Fatalf("hierarchy section carries a plan: %v", hsnap.Cascade.PlanLevels)
	}
	hloaded, err := LoadEngine(bytes.NewReader(hraw), heng.Cost(), hierOpts)
	if err != nil {
		t.Fatal(err)
	}
	hsn, err := hloaded.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(hsn.plan.reductions()) != 2 {
		t.Fatalf("hierarchy-loaded pipeline runs %d levels, want 2", len(hsn.plan.reductions()))
	}
	hgot, _, err := hloaded.KNN(hq, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "hier-loaded", "KNN", hgot, hwant)

	// A different Hierarchy drops the saved chain silently and serves
	// the single-level filter — still the exact answers.
	otherOpts := Options{Hierarchy: []int{8, 4}, SampleSize: 10}
	other, err := LoadEngine(bytes.NewReader(hraw), heng.Cost(), otherOpts)
	if err != nil {
		t.Fatal(err)
	}
	osn, err := other.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(osn.plan.reductions()) != 1 {
		t.Fatalf("mismatched hierarchy adopted %d saved levels, want single-level fallback", len(osn.plan.reductions()))
	}
	ogot, _, err := other.KNN(hq, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "hier-mismatch", "KNN", ogot, hwant)
}

// TestLoadAutoCascadeRelaxesDPrimeCheck: a re-plan may leave the
// finest level at a d' other than Options.ReducedDims; reloading such
// a snapshot with the original options must succeed under AutoCascade
// (the option is the planner's starting point, not a contract) and
// still answer identically.
func TestLoadAutoCascadeRelaxesDPrimeCheck(t *testing.T) {
	opts := Options{ReducedDims: 8, SampleSize: 10, AutoCascade: true}
	eng, queries := buildEngine(t, opts, 50)
	// Adopt a chain whose finest level (12) differs from ReducedDims.
	if err := eng.adoptChain([]int{4, 12}); err != nil {
		t.Fatal(err)
	}
	q := queries[0]
	want, _, err := eng.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(bytes.NewReader(buf.Bytes()), eng.Cost(), opts)
	if err != nil {
		t.Fatalf("AutoCascade load with re-planned d' rejected: %v", err)
	}
	if plan := loaded.Metrics().CascadePlan; !slices.Equal(plan, []int{4, 12}) {
		t.Fatalf("loaded plan %v, want [4 12]", plan)
	}
	got, _, err := loaded.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "replanned-loaded", "KNN", got, want)

	// Without AutoCascade the mismatch is still a configuration error.
	if _, err := LoadEngine(bytes.NewReader(buf.Bytes()), eng.Cost(), Options{ReducedDims: 8, SampleSize: 10}); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("non-auto load of d'=12 snapshot: err = %v, want ErrConfigMismatch", err)
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
// must load cleanly under AutoCascade; the engine starts on the
// single-level filter, answers identically, and the planner can
// re-plan from live counters.
func TestLoadV3SnapshotCascadeCompat(t *testing.T) {
	opts := Options{ReducedDims: 8, SampleSize: 10, AutoCascade: true}
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
	got, _, err := loaded.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "v3", "KNN", got, want)
	// The planner still works over the loaded engine: a forced pass
	// runs off the counters the query above produced.
	if _, err := loaded.replan(); err != nil {
		t.Fatalf("Replan over a v3-loaded engine: %v", err)
	}
	got, _, err = loaded.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "v3-replanned", "KNN", got, want)
}

// TestLoadRejectsBadCascadeSection covers CRC-valid but semantically
// damaged cascade sections: the frame decodes fine, so only load-time
// re-validation stands between the bytes and an unsound filter chain
// (a non-nested "cascade" would prune true answers). Every case must
// fail with ErrCorrupt.
func TestLoadRejectsBadCascadeSection(t *testing.T) {
	opts := Options{ReducedDims: 8, SampleSize: 10, AutoCascade: true}
	eng, _ := buildEngine(t, opts, 40)
	if err := eng.adoptChain([]int{2, 4, 8}); err != nil {
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
		if s.Cascade == nil || len(s.Cascade.Levels) != 3 {
			t.Fatalf("fixture carries no 3-level cascade section: %+v", s.Cascade)
		}
		return s
	}
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
			s.Cascade.PlanID = cascadeplan.PlanID(s.Cascade.PlanLevels)
		}},
		{"plan disagrees with chain", func(s *persist.Snapshot) {
			s.Cascade.PlanLevels = []int{3, 4, 8}
			s.Cascade.PlanID = cascadeplan.PlanID(s.Cascade.PlanLevels)
		}},
	}
	for _, c := range cases {
		s := fresh()
		c.mutate(s)
		var mut bytes.Buffer
		if err := persist.WriteSnapshot(&mut, s); err != nil {
			t.Fatal(err)
		}
		_, err := LoadEngine(bytes.NewReader(mut.Bytes()), eng.Cost(), opts)
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
// matrix over a version-4 file carrying the cascade/plan section, so
// the damage sweep covers the new frame too. Every single-byte flip
// must fail typed; a flip the CRC forgave could plant an unsound
// filter chain into the query path.
func TestTortureSnapshotCascadeFlipMatrix(t *testing.T) {
	d := 8
	cost := LinearCost(d)
	opts := Options{ReducedDims: 4, SampleSize: 6, AutoCascade: true, Seed: 11}
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
	if err := eng.adoptChain([]int{2, 4}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
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
