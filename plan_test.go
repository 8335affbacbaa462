package emdsearch

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"emdsearch/internal/persist"
)

// planShape renders a plan's level list as "name@d'" strings, the form
// the tables below pin.
func planShape(p *plan) []string {
	var out []string
	for _, lv := range p.levels {
		if lv.kind == kindPotential {
			out = append(out, p.stageName(lv)) // no reduction, no d'
			continue
		}
		out = append(out, fmt.Sprintf("%s@%d", p.stageName(lv), lv.dims))
	}
	return out
}

// TestCompilePlan pins the Options → level list mapping: which lower
// bounds run, in which order, at which d', under which stage names —
// and which Options combinations are not a chain at all.
func TestCompilePlan(t *testing.T) {
	const d = 64
	cases := []struct {
		name    string
		opts    Options
		want    []string // nil with wantErr
		wantErr string
		auto    bool
	}{
		{name: "unreduced", opts: Options{}, want: nil},
		{name: "single-level", opts: Options{ReducedDims: 8},
			want: []string{"Potentials", "Red-EMD@8"}},
		{name: "hierarchy-32-8", opts: Options{Hierarchy: []int{32, 8}},
			want: []string{"Potentials", "Red-EMD-8@8", "Red-EMD-32@32"}},
		{name: "hierarchy-8-4-2", opts: Options{Hierarchy: []int{8, 4, 2}, ReducedDims: 8},
			want: []string{"Potentials", "Red-EMD-2@2", "Red-EMD-4@4", "Red-EMD-8@8"}},
		{name: "hierarchy-of-one", opts: Options{Hierarchy: []int{8}},
			want: []string{"Potentials", "Red-EMD@8"}},
		{name: "auto-cascade", opts: Options{ReducedDims: 8, AutoCascade: true},
			want: []string{"Potentials", "Red-EMD@8"}, auto: true},

		{name: "d' above d", opts: Options{ReducedDims: d + 1}, wantErr: "ReducedDims"},
		{name: "negative d'", opts: Options{ReducedDims: -1}, wantErr: "ReducedDims"},
		{name: "index kind", opts: Options{ReducedDims: 8, IndexKind: "btree"}, wantErr: "IndexKind"},
		{name: "removed index kind", opts: Options{ReducedDims: 8, IndexKind: "vptree"}, wantErr: "removed"},
		{name: "negative sample", opts: Options{ReducedDims: 8, SampleSize: -1}, wantErr: "SampleSize"},
		{name: "method", opts: Options{ReducedDims: 8, Method: "bogus"}, wantErr: "method"},
		{name: "method, unreduced", opts: Options{Method: "bogus"}, wantErr: "method"},
		{name: "level above d", opts: Options{Hierarchy: []int{8, d + 1}}, wantErr: "out of range"},
		{name: "level zero", opts: Options{Hierarchy: []int{8, 0}}, wantErr: "out of range"},
		{name: "repeated level", opts: Options{Hierarchy: []int{8, 8}}, wantErr: "distinct"},
		{name: "d' not the finest level", opts: Options{Hierarchy: []int{8, 2}, ReducedDims: 4}, wantErr: "conflicts"},
		{name: "auto without d'", opts: Options{AutoCascade: true}, wantErr: "requires ReducedDims"},
		{name: "auto+hierarchy", opts: Options{Hierarchy: []int{8, 2}, AutoCascade: true}, wantErr: "conflicts"},
	}
	for _, c := range cases {
		if c.wantErr != "" {
			// Rejected where the caller meets it. Negative SampleSize used
			// to pass NewEngine and panic inside Build with the engine lock
			// held, and an unknown Method failed only at Build.
			if _, err := NewEngine(LinearCost(d), c.opts); err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: NewEngine err = %v, want one naming %q", c.name, err, c.wantErr)
			}
			continue
		}
		p, err := compilePlan(c.opts.withDefaults(), d)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := planShape(p); !slices.Equal(got, c.want) {
			t.Errorf("%s: levels %v, want %v", c.name, got, c.want)
		}
		if p.auto != c.auto {
			t.Errorf("%s: auto=%v, want %v", c.name, p.auto, c.auto)
		}
		if p.finest() != nil || len(p.reductions()) != 0 {
			t.Errorf("%s: a compiled plan carries reductions before Build", c.name)
		}
	}
}

// TestLoadParentSnapshotEqualPlan loads version-4 snapshots written by
// the binary of the commit before the plan value existed (testdata/,
// the TestTortureSnapshotCascadeFlipMatrix fixture: 12 items, d=8,
// seed 11, rand source 29) and checks that they restore to the plan —
// level list and every reduction — that this code derives for the same
// engine from scratch. Saving either engine writes the current format:
// every section that remains decodes equal to the parent's (the cached
// quantized filter is gone), and two saves are byte-identical. The
// loaded engine answers equal to brute force.
func TestLoadParentSnapshotEqualPlan(t *testing.T) {
	const d = 8
	cost := LinearCost(d)
	for _, c := range []struct {
		file  string
		opts  Options
		adopt []int
		want  []string
	}{
		{"testdata/v4_auto_2_4.snap", Options{ReducedDims: 4, SampleSize: 6, AutoCascade: true, Seed: 11}, []int{2, 4},
			[]string{"Potentials", "Red-EMD-2@2", "Red-EMD-4@4"}},
		{"testdata/v4_hierarchy_4_2.snap", Options{Hierarchy: []int{4, 2}, SampleSize: 6, Seed: 11}, nil,
			[]string{"Potentials", "Red-EMD-2@2", "Red-EMD-4@4"}},
	} {
		golden, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadEngine(bytes.NewReader(golden), cost, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		fresh, err := NewEngine(cost, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(29))
		for i := 0; i < 12; i++ {
			if _, err := fresh.Add("", randHist(rng, d)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fresh.Build(); err != nil {
			t.Fatal(err)
		}
		if c.adopt != nil {
			if err := fresh.adoptChain(c.adopt); err != nil {
				t.Fatal(err)
			}
		} else if _, _, err := fresh.KNN(fresh.Vector(0), 2); err != nil {
			t.Fatal(err)
		}
		if got := planShape(loaded.plan); !slices.Equal(got, c.want) || loaded.plan.auto != fresh.plan.auto {
			t.Fatalf("%s: restored levels %v auto=%v, want %v auto=%v", c.file, got, loaded.plan.auto, c.want, fresh.plan.auto)
		}
		lr, fr := loaded.plan.reductions(), fresh.plan.reductions()
		if len(lr) != len(fr) {
			t.Fatalf("%s: restored %d reductions, fresh build has %d", c.file, len(lr), len(fr))
		}
		for i := range lr {
			if !lr[i].Equal(fr[i]) {
				t.Errorf("%s: level %d: restored reduction %v, fresh build derives %v", c.file, i, lr[i].Assignment(), fr[i].Assignment())
			}
		}
		if loaded.plan.id() != fresh.plan.id() {
			t.Errorf("%s: plan id %x, want %x", c.file, loaded.plan.id(), fresh.plan.id())
		}
		want, err := persist.ReadSnapshot(bytes.NewReader(golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []*Engine{loaded, fresh} {
			var first, second bytes.Buffer
			if err := eng.Save(&first); err != nil {
				t.Fatal(err)
			}
			if err := eng.Save(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Errorf("%s: two saves of one engine differ", c.file)
			}
			got, err := persist.ReadSnapshot(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: saving again decodes to\n%+v\nwant the parent's\n%+v", c.file, got, want)
			}
		}
		for qi := 0; qi < 3; qi++ {
			checkExactKNN(t, fmt.Sprintf("%s query %d", c.file, qi), loaded, randHist(rng, d), 5)
		}
	}
}

// TestOptionCountsPinned makes the next knob or method a deliberate
// edit: adding an exported field to an options struct, or an exported
// method to a public type, fails here until the pin is raised, with the
// reason in the same diff.
func TestOptionCountsPinned(t *testing.T) {
	exported := func(v any) int {
		n := 0
		for i, ty := 0, reflect.TypeOf(v); i < ty.NumField(); i++ {
			if ty.Field(i).IsExported() {
				n++
			}
		}
		return n
	}
	methods := func(v any) int { return reflect.TypeOf(v).NumMethod() }
	for _, c := range []struct {
		name string
		got  int
		pin  int
	}{
		// 9: AsymmetricQuery, Positions and PositionNorm went with the
		// asymmetric level and the centroid stream; no caller set them
		// (TestEveryOptionIsSet). RefineHook became the unexported
		// refineHook once cmd/emdbench's overload sweep, its only
		// non-test setter, went.
		{"Options fields", exported(Options{}), 9},
		// 4: HedgeAfter went with hedging; MergeReserve, RetryMax,
		// RetryBase, RetryCap and QuarantineCooldown became constants;
		// ShardTimeout and Seed went and ReplicaShipHook became an
		// unexported test seam. No non-test file set any of them
		// (TestEveryOptionIsSet). QuarantineAfter became the constant
		// quarantineAfter (3) with an unexported test override once
		// cmd/emdbench's shard experiment, its only non-test setter,
		// went.
		{"ShardSetOptions fields", exported(ShardSetOptions{}), 4},
		// 1: DegradeAt, DegradeBudget and BreakerThreshold became
		// constants; no non-test file set them. MaxQueue and
		// BreakerCooldown became unexported test seams once
		// cmd/emdbench's overload sweep, their only non-test setter,
		// went.
		{"GateOptions fields", exported(GateOptions{}), 1},
		// 26: four methods nothing called went, and two that duplicated
		// Metrics().CascadePlan and ReopenWALRetry. Replan became the
		// unexported replan once cmd/emdbench's cascade experiment, its
		// only non-test caller, went.
		{"*Engine methods", methods(&Engine{}), 26},
		// 20: Gate(i) went; only a test called it.
		{"*ShardSet methods", methods(&ShardSet{}), 20},
		{"*Gate methods", methods(&Gate{}), 5},
	} {
		if c.got != c.pin {
			t.Errorf("%s: %d exported, pinned at %d: an option or method is an API and a test-matrix axis — edit the pin downward only, with the reason in the same diff", c.name, c.got, c.pin)
		}
	}
}
