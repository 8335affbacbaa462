//go:build !race

package emdsearch

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"

	"emdsearch/internal/persist"
)

// Under -race sync.Pool drops a share of its Puts on purpose, so the
// pooled solver states and buffers are reallocated at random and the
// counts below only hold in an ordinary build.

// TestKNNAllocs pins the allocations of one k-NN through the filter
// chain at n = 1500, through a background and through a cancellable
// context: 27 and 31, with a margin of one, and its bytes, about
// 38.5 KB, under 42 KiB. The eager potential scan fills one distance
// slice; the count grows only with the candidates the Red-EMD level
// passes on, since its gathers and the refinements draw on pooled
// scratch and solver states.
func TestKNNAllocs(t *testing.T) {
	const n, k = 1500, 10
	const maxBytes = 42 << 10
	eng, queries := buildEngine(t, Options{ReducedDims: 8, SampleSize: 10}, n)
	q := queries[0]
	if _, _, err := eng.KNN(q, k); err != nil {
		t.Fatalf("warm-up query: %v", err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
		max  float64
	}{
		{"background", context.Background(), 28},
		{"cancellable", cctx, 32},
	} {
		query := func() {
			if _, err := eng.KNNCtx(c.ctx, q, k); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, query)
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			query()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %v allocs, %d B per query", c.name, allocs, bytes)
		if allocs > c.max {
			t.Errorf("%s: %v allocs per k-NN, want at most %v", c.name, allocs, c.max)
		}
		if bytes > maxBytes {
			t.Errorf("%s: %d B per k-NN, want at most %d", c.name, bytes, maxBytes)
		}
	}
}

// readSnapshotBytes is the fewest bytes one ReadSnapshot of raw
// allocated over five runs.
func readSnapshotBytes(t *testing.T, raw []byte) uint64 {
	t.Helper()
	best := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := persist.ReadSnapshot(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestLegacyIndexSectionNotDecoded: reading the v5 golden, whose index
// section holds a 437 KB tree blob, costs at most two copies of the
// section beyond reading the same file with the section emptied: the
// frame read for its CRC and gob's message buffer. Decoding the blob
// out, as the reader once did, is a third copy and fails the bound by
// about 400 KB.
func TestLegacyIndexSectionNotDecoded(t *testing.T) {
	raw, _, _ := v5Golden(t)
	frames, at, _ := indexFrame(t, raw)
	section := uint64(len(frames[at]))
	full := readSnapshotBytes(t, raw)
	empty := readSnapshotBytes(t, withIndexSection(t, raw, nil))
	t.Logf("ReadSnapshot allocates %d B, %d B with the %d B index frame emptied", full, empty, section)
	if limit := empty + 2*section + 32<<10; full > limit {
		t.Errorf("ReadSnapshot allocates %d B, want at most %d: the index section is decoded", full, limit)
	}
}
