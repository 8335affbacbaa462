package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	emdsearch "emdsearch"
	"emdsearch/internal/data"
)

const (
	knnK   = 10 // k of every KNN op
	shards = 2  // ShardSetOptions.Shards of every workload
	// clients is the number of closed-loop clients; the box has 2 cores.
	clients = 2
)

// spec fixes one workload. Everything not listed is the library's
// default Options/ShardSetOptions, so that a later change of a default
// (say IndexAuto choosing a VP-tree) shows up as a gain or a loss.
//
// Sizes are set by two things. The acceptance driver allows about 35 s
// per run including three set-ups, so corpora are a fraction of a
// production shard. And IndexAuto builds a tree only for engines of at
// least 4096 live items, so index_gm keeps every shard just above that
// line while the other three keep even the union of their shards below
// it: which path a workload takes is then the library's own decision.
type spec struct {
	Name string
	Why  string

	Gen     string // "music" (MusicSpectra) or "gm" (GaussianMixtures)
	N       int    // corpus items before the measured window
	Queries int    // held-out queries
	D       int    // histogram dimensionality
	Modes   int    // GaussianMixtures modes
	Opts    emdsearch.Options

	// Oracle is how many queries are checked against the brute-force
	// scan: 16, but 8 on index_gm, where a scan is 8200 exact EMDs of
	// 0.3 ms and 16 of them would be a sixth of the run.
	Oracle     int
	KNNPercent int // share of KNN among the read ops; the rest is Range
	HashOps    int // ops [0,HashOps) always run and feed answers_fnv
	TraceOps   int // ops the traced pass replays

	HTTP    bool // served by a cmd/emdserve child over loopback HTTP
	Ingest  bool // WAL + replica, open-loop writer beside the reader
	AddRate int  // Ingest: Adds per second; one Delete per 10 Adds
}

var specs = []spec{
	{
		Name: "serve_http",
		Why:  "HTTP+JSON into emdserve; scan cascade with exact refinement dominant, so solver changes show and index changes do not",
		Gen:  "music", N: 4000, Queries: 400, D: 32,
		Opts:   emdsearch.Options{ReducedDims: 8},
		Oracle: 16, KNNPercent: 90, HashOps: 400, TraceOps: 300,
		HTTP: true,
	},
	{
		Name: "index_gm",
		Why:  "low intrinsic dimension, shards above the IndexAuto size: the metric index replaces the scan and tree build dominates set-up",
		Gen:  "gm", N: 8200, Queries: 200, D: 32, Modes: 2,
		Opts:   emdsearch.Options{ReducedDims: 16},
		Oracle: 8, KNNPercent: 80, HashOps: 300, TraceOps: 200,
	},
	{
		Name: "cascade_d64",
		Why:  "d=64 with a fixed {32,8} hierarchy: index declined, Red-EMD filter evaluation dominant; guards the cascade simplification",
		Gen:  "gm", N: 500, Queries: 200, D: 64, Modes: 4,
		Opts:   emdsearch.Options{Hierarchy: []int{32, 8}},
		Oracle: 16, KNNPercent: 100, HashOps: 240, TraceOps: 60,
	},
	{
		Name: "ingest_mixed",
		Why:  "open-loop Adds through WAL fsync and replica shipping beside a KNN reader that sees a fresh snapshot per query, then crash recovery",
		Gen:  "music", N: 3000, Queries: 400, D: 32,
		Opts:   emdsearch.Options{ReducedDims: 8},
		Oracle: 16, KNNPercent: 100, TraceOps: 300,
		Ingest: true, AddRate: 200,
	},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.Name == name {
			return sp, true
		}
	}
	return spec{}, false
}

type opKind uint8

const (
	opKNN opKind = iota
	opRange
	opAdd
	opDelete
)

// op is one operation: Arg is a query index for reads, an index into
// inputs.adds for opAdd, and a global item id for opDelete.
type op struct {
	Kind opKind
	Arg  int
}

// inputs is everything generated from the seed. The program under test
// sees only these values, never the seed.
type inputs struct {
	cost    emdsearch.CostMatrix
	corpus  []emdsearch.Histogram
	adds    []emdsearch.Histogram // Ingest: the items the writer adds, in order
	queries []emdsearch.Histogram
	// reads is the read-op list the closed-loop clients cycle through;
	// traced is the op list of the traced pass (for Ingest it
	// interleaves writes).
	reads  []op
	traced []op
	// deletes are the ids the writer deletes, in order: distinct
	// members of the initial corpus.
	deletes []int
}

// dataSeed generates every workload's data set and seeds the engines'
// own randomness (Options.Seed: the k-medoids restarts of the
// reduction); heldOut is how many times more held-out items the
// generator call makes than a run draws as its queries. Drawing half of
// a pool varies less from seed to seed than drawing a quarter of it.
//
// The data set is part of the workload, like a database benchmark's,
// and --seed draws the queries, the op order and the write order. One
// workload has to be one difficulty, and difficulty follows the data
// and the reduction: GaussianMixtures places its class modes from the
// seed, a 500-item corpus is a small sample, and a reduction from an
// unlucky restart refines a quarter more. With all of it following
// --seed, seeds 1..9 measured 22 to 44 ms per KNN on index_gm, 40 to
// 111 ms on cascade_d64 and 11.3 to 14.4 ms on serve_http; with the
// data fixed, another draw of the queries moves the median by 2 to 5 %.
const (
	dataSeed = 42
	heldOut  = 2
)

// generate builds the workload's inputs from seed. nAdds is how many
// items the Ingest writer may add (0 otherwise).
//
// Queries are held out from the same generator call as the corpus
// (Dataset.Split), never drawn with a second seed: GaussianMixtures
// places its class modes from the seed, so a query set from seed+1
// comes from different classes than the corpus and measured 10,073
// refinements per query where held-out queries measure 226. Both
// generators draw their items one after the other, so the first N
// items of this call are the corpus emdserve generates for itself from
// (N, d, dataSeed).
func generate(sp spec, seed int64, nAdds int) (*inputs, error) {
	held := heldOut * sp.Queries
	total := sp.N + nAdds + held
	var ds *data.Dataset
	var err error
	if sp.Gen == "music" {
		ds, err = data.MusicSpectra(total, sp.D, dataSeed)
	} else {
		ds, err = data.GaussianMixtures(total, sp.D, sp.Modes, dataSeed)
	}
	if err != nil {
		return nil, err
	}
	db, pool, err := ds.Split(held)
	if err != nil {
		return nil, err
	}
	in := &inputs{cost: ds.Cost, corpus: db[:sp.N], adds: append([]emdsearch.Histogram(nil), db[sp.N:]...)}
	rng := rand.New(rand.NewSource(seed))
	for _, j := range rng.Perm(held)[:sp.Queries] {
		in.queries = append(in.queries, pool[j])
	}
	rng.Shuffle(len(in.adds), func(i, j int) { in.adds[i], in.adds[j] = in.adds[j], in.adds[i] })

	// One shuffled pass over the queries per cycle, so every query is
	// met equally often and neighbouring ops share no cache lines.
	nReads := sp.HashOps
	if nReads < 4*sp.Queries {
		nReads = 4 * sp.Queries
	}
	for len(in.reads) < nReads {
		for _, q := range rng.Perm(sp.Queries) {
			kind := opKNN
			if rng.Intn(100) >= sp.KNNPercent {
				kind = opRange
			}
			in.reads = append(in.reads, op{kind, q})
		}
	}
	if sp.Ingest {
		in.deletes = rng.Perm(sp.N)
		// Traced pass: add, query, add, query, ... over every item of
		// in.adds, with a delete after every tenth add, so each query
		// meets a fresh snapshot as in the measured window.
		adds := 0
		for i := 0; adds < len(in.adds); i++ {
			in.traced = append(in.traced, op{opAdd, adds})
			adds++
			if adds%10 == 0 {
				in.traced = append(in.traced, op{opDelete, in.deletes[adds/10-1]})
			}
			in.traced = append(in.traced, in.reads[i%len(in.reads)])
		}
	} else {
		in.traced = in.reads[:sp.TraceOps]
	}
	return in, nil
}

// hash fingerprints the generated inputs: every vector's bits and
// every op. Equal seeds must give equal hashes.
func (in *inputs) hash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, set := range [][]emdsearch.Histogram{in.corpus, in.adds, in.queries} {
		for _, v := range set {
			for _, x := range v {
				put(math.Float64bits(x))
			}
		}
	}
	for _, list := range [][]op{in.reads, in.traced} {
		for _, o := range list {
			put(uint64(o.Kind)<<56 | uint64(o.Arg))
		}
	}
	return h.Sum64()
}

// options returns the engine and shard-set options of the workload,
// as emdserve sets them from its flags.
func (sp spec) options() (emdsearch.Options, emdsearch.ShardSetOptions) {
	eo := sp.Opts
	eo.Seed = dataSeed
	so := emdsearch.ShardSetOptions{Shards: shards}
	if sp.Ingest {
		so.Replicas = 1
	}
	return eo, so
}

// newSet builds the workload's ShardSet over items the way a
// deployment does: optional WAL first, bulk load through Add, Build.
// walDir is the WAL directory of an Ingest set, "" otherwise.
func (sp spec) newSet(in *inputs, walDir string) (*emdsearch.ShardSet, error) {
	eo, so := sp.options()
	set, err := emdsearch.NewShardSet(in.cost, eo, so)
	if err != nil {
		return nil, err
	}
	if walDir != "" {
		if err := set.OpenWAL(walDir); err != nil {
			set.Close()
			return nil, err
		}
	}
	for i, v := range in.corpus {
		if _, err := set.Add("", v); err != nil {
			set.Close()
			return nil, fmt.Errorf("bulk load item %d: %w", i, err)
		}
	}
	if err := set.Build(); err != nil {
		set.Close()
		return nil, err
	}
	return set, nil
}
