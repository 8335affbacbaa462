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
)

// planShape renders a plan's level list as "name@d'" strings, the form
// the tables below pin.
func planShape(p *plan) []string {
	var out []string
	for _, lv := range p.levels {
		name := p.stageName(lv)
		if lv.kind != kindCentroid {
			name = fmt.Sprintf("%s@%d", name, lv.dims)
		}
		out = append(out, name)
	}
	return out
}

// TestCompilePlan pins the Options → level list mapping: which lower
// bounds run, in which order, at which d', under which stage names —
// and which Options combinations are not a chain at all.
func TestCompilePlan(t *testing.T) {
	const d = 64
	positions := make([][]float64, d)
	for i := range positions {
		positions[i] = []float64{float64(i)}
	}
	cases := []struct {
		name      string
		opts      Options
		want      []string // nil with wantErr
		wantErr   string
		auto      bool
		indexable bool
	}{
		{name: "unreduced", opts: Options{}, want: nil},
		{name: "single-level", opts: Options{ReducedDims: 8},
			want: []string{"Q-Red-IM@8", "Red-IM@8", "Red-EMD@8"}, indexable: true},
		{name: "hierarchy-32-8", opts: Options{Hierarchy: []int{32, 8}},
			want: []string{"Q-Red-IM@8", "Red-IM@8", "Red-EMD-8@8", "Red-EMD-32@32"}},
		{name: "hierarchy-8-4-2", opts: Options{Hierarchy: []int{8, 4, 2}, ReducedDims: 8},
			want: []string{"Q-Red-IM@2", "Red-IM@2", "Red-EMD-2@2", "Red-EMD-4@4", "Red-EMD-8@8"}},
		{name: "hierarchy-of-one", opts: Options{Hierarchy: []int{8}},
			want: []string{"Q-Red-IM@8", "Red-IM@8", "Red-EMD@8"}, indexable: true},
		{name: "auto-cascade", opts: Options{ReducedDims: 8, AutoCascade: true},
			want: []string{"Q-Red-IM@8", "Red-IM@8", "Red-EMD@8"}, auto: true, indexable: true},
		{name: "asymmetric", opts: Options{ReducedDims: 8, AsymmetricQuery: true},
			want: []string{"Q-Red-IM@8", "Red-IM@8", "Asym-Red-EMD@8"}},
		{name: "positions", opts: Options{ReducedDims: 8, Positions: positions},
			want: []string{"Centroid", "Red-IM@8", "Red-EMD@8"}},
		{name: "positions-unreduced", opts: Options{Positions: positions},
			want: []string{"Centroid"}},

		{name: "d' above d", opts: Options{ReducedDims: d + 1}, wantErr: "ReducedDims"},
		{name: "negative d'", opts: Options{ReducedDims: -1}, wantErr: "ReducedDims"},
		{name: "index kind", opts: Options{ReducedDims: 8, IndexKind: "btree"}, wantErr: "IndexKind"},
		{name: "negative sample", opts: Options{ReducedDims: 8, SampleSize: -1}, wantErr: "SampleSize"},
		{name: "method", opts: Options{ReducedDims: 8, Method: "bogus"}, wantErr: "method"},
		{name: "method, unreduced", opts: Options{Method: "bogus"}, wantErr: "method"},
		{name: "level above d", opts: Options{Hierarchy: []int{8, d + 1}}, wantErr: "out of range"},
		{name: "level zero", opts: Options{Hierarchy: []int{8, 0}}, wantErr: "out of range"},
		{name: "repeated level", opts: Options{Hierarchy: []int{8, 8}}, wantErr: "distinct"},
		{name: "d' not the finest level", opts: Options{Hierarchy: []int{8, 2}, ReducedDims: 4}, wantErr: "conflicts"},
		{name: "auto without d'", opts: Options{AutoCascade: true}, wantErr: "requires ReducedDims"},
		{name: "auto+hierarchy", opts: Options{Hierarchy: []int{8, 2}, AutoCascade: true}, wantErr: "conflicts"},
		{name: "auto+asymmetric", opts: Options{ReducedDims: 8, AutoCascade: true, AsymmetricQuery: true}, wantErr: "conflicts"},
		{name: "asymmetric+hierarchy", opts: Options{Hierarchy: []int{8, 2}, AsymmetricQuery: true}, wantErr: "conflicts"},
		{name: "asymmetric+hierarchy of one", opts: Options{Hierarchy: []int{8}, AsymmetricQuery: true}, wantErr: "conflicts"},
	}
	for _, c := range cases {
		if c.wantErr != "" {
			// Rejected where the caller meets it. Negative SampleSize used
			// to pass NewEngine and panic inside Build with the engine lock
			// held, an unknown Method failed only at Build, and
			// AsymmetricQuery with a Hierarchy was silently half-ignored.
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
		if p.auto != c.auto || p.indexEligible() != c.indexable {
			t.Errorf("%s: auto=%v indexEligible=%v, want %v/%v", c.name, p.auto, p.indexEligible(), c.auto, c.indexable)
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
// engine from scratch, and that saving again reproduces the parent's
// bytes: the format did not move in either direction.
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
			[]string{"Q-Red-IM@2", "Red-IM@2", "Red-EMD-2@2", "Red-EMD-4@4"}},
		{"testdata/v4_hierarchy_4_2.snap", Options{Hierarchy: []int{4, 2}, SampleSize: 6, Seed: 11}, nil,
			[]string{"Q-Red-IM@2", "Red-IM@2", "Red-EMD-2@2", "Red-EMD-4@4"}},
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
		for _, eng := range []*Engine{loaded, fresh} {
			var buf bytes.Buffer
			if err := eng.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), golden) {
				t.Errorf("%s: saving again wrote %d bytes that differ from the parent's %d", c.file, buf.Len(), len(golden))
			}
		}
	}
}

// TestOptionCountsPinned makes the next knob a deliberate edit: adding
// an exported field to an options struct fails here until the pin is
// raised, with the reason for the new option in the same diff.
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
	for _, c := range []struct {
		name string
		got  int
		pin  int
	}{
		{"Options", exported(Options{}), 14},
		{"ShardSetOptions", exported(ShardSetOptions{}), 14},
		{"GateOptions", exported(GateOptions{}), 6},
	} {
		if c.got != c.pin {
			t.Errorf("%s has %d exported fields, pinned at %d: an option is an API and a test-matrix axis — change the pin only with the reason in the same diff", c.name, c.got, c.pin)
		}
	}
}
