package main

import "testing"

// scaled shrinks the workload's counts by f (0 < f <= 1), for the smoke
// test. Floors keep every code path alive at the smallest scale.
func (sp spec) scaled(f float64) spec {
	scale := func(n, floor int) int {
		if n = int(float64(n) * f); n < floor {
			n = floor
		}
		return n
	}
	sp.N = scale(sp.N, 120)
	sp.Queries = scale(sp.Queries, 2*minBeyond+1)
	sp.HashOps = scale(sp.HashOps, 0)
	sp.TraceOps = scale(sp.TraceOps, 12)
	return sp
}

// The same seed must generate the same corpus, queries and op lists —
// the program under test sees nothing else — and another seed must not.
func TestGenerateIsSeedDriven(t *testing.T) {
	for _, sp := range specs {
		sp = sp.scaled(0.02)
		nAdds := 0
		if sp.Ingest {
			nAdds = 40
		}
		hash := func(seed int64) uint64 {
			in, err := generate(sp, seed, nAdds)
			if err != nil {
				t.Fatalf("%s: %v", sp.Name, err)
			}
			if len(in.corpus) != sp.N || len(in.queries) != sp.Queries || len(in.adds) != nAdds {
				t.Fatalf("%s: %d items, %d queries, %d adds; want %d, %d, %d",
					sp.Name, len(in.corpus), len(in.queries), len(in.adds), sp.N, sp.Queries, nAdds)
			}
			return in.hash()
		}
		a, b, c := hash(42), hash(42), hash(7)
		if a != b {
			t.Errorf("%s: seed 42 hashed %x, then %x", sp.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 42 and 7 both hash %x", sp.Name, a)
		}
	}
}

// Every read op names a query that exists; the Ingest traced list
// deletes only members of the initial corpus, each at most once.
func TestOpListsAreWellFormed(t *testing.T) {
	for _, sp := range specs {
		sp = sp.scaled(0.02)
		nAdds := 0
		if sp.Ingest {
			nAdds = 40
		}
		in, err := generate(sp, 42, nAdds)
		if err != nil {
			t.Fatal(err)
		}
		if len(in.reads) < sp.HashOps || len(in.traced) == 0 {
			t.Errorf("%s: %d reads for %d hashed ops, %d traced ops", sp.Name, len(in.reads), sp.HashOps, len(in.traced))
		}
		deleted := map[int]bool{}
		knn := 0
		for _, o := range append(append([]op(nil), in.reads...), in.traced...) {
			switch o.Kind {
			case opKNN, opRange:
				if o.Arg < 0 || o.Arg >= len(in.queries) {
					t.Fatalf("%s: read op names query %d of %d", sp.Name, o.Arg, len(in.queries))
				}
				if o.Kind == opKNN {
					knn++
				}
			case opAdd:
				if o.Arg < 0 || o.Arg >= len(in.adds) {
					t.Fatalf("%s: add op names item %d of %d", sp.Name, o.Arg, len(in.adds))
				}
			case opDelete:
				if o.Arg < 0 || o.Arg >= sp.N || deleted[o.Arg] {
					t.Fatalf("%s: delete of %d (corpus %d, repeated=%v)", sp.Name, o.Arg, sp.N, deleted[o.Arg])
				}
				deleted[o.Arg] = true
			}
		}
		if knn == 0 {
			t.Errorf("%s: no KNN op", sp.Name)
		}
	}
}
