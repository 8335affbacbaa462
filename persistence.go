package emdsearch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"sort"
	"time"

	"emdsearch/internal/cascadeplan"
	"emdsearch/internal/colscan"
	"emdsearch/internal/core"
	"emdsearch/internal/db"
	"emdsearch/internal/mtree"
	"emdsearch/internal/persist"
	"emdsearch/internal/shardset"
	"emdsearch/internal/vptree"
)

// Typed persistence errors. Every failure of Save, SaveFile,
// LoadEngine, LoadEngineFile, OpenWAL, Checkpoint and RecoverEngine
// that stems from the state of a file (rather than plain I/O) matches
// exactly one of these under errors.Is.
var (
	// ErrCorrupt reports damaged persisted bytes: failed checksums,
	// torn snapshot sections, undecodable payloads, or decoded data
	// that fails validation (NaN/negative/unnormalized histograms,
	// malformed reductions, out-of-range ids).
	ErrCorrupt = persist.ErrCorrupt
	// ErrVersion reports a snapshot or WAL written in a format version
	// this build does not read.
	ErrVersion = persist.ErrVersion
	// ErrConfigMismatch reports a snapshot or WAL that belongs to an
	// engine configured differently (dimensionality, ground-distance
	// matrix, reduction d') than the one loading it.
	ErrConfigMismatch = persist.ErrConfigMismatch
	// ErrWALBroken reports a write-ahead log latched unusable: an append
	// failed AND rolling the partial frame back failed too, so the
	// file's tail state is unknown. Every further logged mutation fails
	// with this error until ReopenWAL succeeds (reopening re-scans the
	// file and truncates the damage). The engine's in-memory state stays
	// correct throughout — a mutation that failed durability was never
	// applied.
	ErrWALBroken = persist.ErrWALBroken
)

// costHash fingerprints the engine's ground-distance matrix for the
// snapshot and WAL headers.
func (e *Engine) costHash() uint64 { return persist.CostHash(e.cost) }

// snapshotRecordLocked assembles the persistable engine state: items,
// registered and engine reductions, and the soft-deleted set. The
// caller must hold e.mu. Vectors are shared, not copied — they are
// immutable once added, so the record stays valid after the lock is
// released.
func (e *Engine) snapshotRecordLocked() *persist.Snapshot {
	n := e.store.Len()
	items := make([]persist.Item, n)
	for i := 0; i < n; i++ {
		it := e.store.Item(i)
		items[i] = persist.Item{ID: it.ID, Label: it.Label, Vector: it.Vector}
	}
	var named map[string]persist.Reduction
	if reds := e.store.Reductions(); len(reds) > 0 {
		named = make(map[string]persist.Reduction, len(reds))
		for name, r := range reds {
			named[name] = persistReduction(r)
		}
	}
	chain := e.plan.reductions() // coarse→fine; empty while unreduced
	var engRed *persist.Reduction
	redDims := 0
	if n := len(chain); n > 0 {
		r := persistReduction(chain[n-1])
		engRed, redDims = &r, r.Reduced
	}
	deleted := make([]int, 0, len(e.deleted))
	for id := range e.deleted {
		deleted = append(deleted, id)
	}
	sort.Ints(deleted)
	// Persist the quantized columnar filter when the stash matches the
	// current item count (it can lag behind after mutations that have
	// not been followed by a query; the filter is an optimization, so
	// a stale one is simply omitted rather than saved dead). The slices
	// are shared with the immutable Quantized, never mutated.
	var quant *persist.QuantSection
	if qz := e.savedQuant; qz != nil && qz.Len() == n {
		quant = &persist.QuantSection{
			N:       qz.Len(),
			Dims:    qz.Dims(),
			Block:   qz.BlockSize(),
			CostMax: qz.CostMax(),
			RedHash: e.savedQuantHash,
			Scales:  qz.Scales(),
			Margins: qz.Margins(),
			Cols:    qz.Data(),
		}
	}
	// Persist the metric index under the same policy as the quantized
	// filter: only when the stash covers the current item count, so a
	// restored tree never needs patching — it is either reusable as-is
	// (or by appending new items) or rebuilt.
	var index *persist.IndexSection
	if si := e.savedIndex; si != nil && si.n == n {
		var blob bytes.Buffer
		var encErr error
		switch si.kind {
		case IndexMTree:
			encErr = gob.NewEncoder(&blob).Encode(si.mt.Flatten())
		case IndexVPTree:
			encErr = gob.NewEncoder(&blob).Encode(si.vt.Flatten())
		}
		if encErr == nil && blob.Len() > 0 {
			index = &persist.IndexSection{
				Kind:           si.kind,
				N:              si.n,
				DeletedAtBuild: si.deletedAtBuild,
				RedHash:        si.redHash,
				Blob:           blob.Bytes(),
			}
		}
	}
	// Persist the reduction cascade and the auto-cascade plan. Unlike
	// the quantized filter and the index, these are not rebuildable
	// optimizations — re-deriving a cascade consumes randomness and an
	// auto plan encodes observed workload history — so they are saved
	// whenever present and validated structurally on load. The section
	// lists levels finest first; an auto plan adds its dimensionalities
	// and their fingerprint.
	var cascade *persist.CascadeSection
	if n := len(chain); n > 1 || (n > 0 && e.plan.auto) {
		cascade = &persist.CascadeSection{}
		if n > 1 {
			cascade.Levels = make([]persist.Reduction, n)
			for i, r := range chain {
				cascade.Levels[n-1-i] = persistReduction(r)
			}
		}
		if e.plan.auto {
			cascade.PlanLevels, cascade.PlanID, cascade.Auto = e.plan.dims(), e.plan.id(), true
		}
	}
	return &persist.Snapshot{
		Header: persist.Header{
			Dim:         e.store.Dim(),
			CostHash:    e.costHash(),
			Items:       n,
			ReducedDims: redDims,
		},
		Items:           items,
		Reductions:      named,
		EngineReduction: engRed,
		Deleted:         deleted,
		Quant:           quant,
		Index:           index,
		Cascade:         cascade,
	}
}

func persistReduction(r *core.Reduction) persist.Reduction {
	return persist.Reduction{Assign: r.Assignment(), Reduced: r.ReducedDims()}
}

// Save writes the engine's full persistent state — items, reduction,
// and the soft-deleted set — to w in the versioned, checksummed
// snapshot format (magic, format version, configuration fingerprint,
// per-section CRC32 trailers). Prefer SaveFile for writing to disk: it
// additionally guarantees the file is replaced atomically.
func (e *Engine) Save(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := persist.WriteSnapshot(w, e.snapshotRecordLocked()); err != nil {
		return fmt.Errorf("emdsearch: save: %w", err)
	}
	return nil
}

// SaveFile writes the engine's state to path atomically: the snapshot
// is streamed to a temp file in the same directory, fsynced, and
// renamed over path. A crash at any point leaves either the previous
// snapshot or the complete new one — never a torn file.
func (e *Engine) SaveFile(path string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.saveFileLocked(path)
}

func (e *Engine) saveFileLocked(path string) error {
	s := e.snapshotRecordLocked()
	err := persist.AtomicWriteFile(path, func(w io.Writer) error {
		return persist.WriteSnapshot(w, s)
	})
	if err != nil {
		return fmt.Errorf("emdsearch: save %s: %w", path, err)
	}
	e.metrics.snapshotSaved()
	return nil
}

// LoadEngine restores an engine saved with Save or SaveFile; cost and
// opts must match the saved engine's configuration (they are not
// serialized — the snapshot carries a fingerprint that is verified,
// and a mismatch fails with ErrConfigMismatch). Damaged input fails
// with ErrCorrupt and a future format with ErrVersion; loaded
// histograms are re-validated, so a tampered snapshot can never plant
// invalid data in the validated refinement path.
//
// Streams that do not start with the snapshot magic are read as legacy
// (version-0) gob databases, as written by emdgen and by Engine.Save
// before the versioned format existed. The legacy format carries no
// checksums and no soft-deleted set; undecodable legacy bytes fail
// with ErrCorrupt.
//
// Snapshots carry the full reduction cascade and the auto-cascade
// plan (format version 4). A Hierarchy engine whose configured levels
// match the saved chain, and any AutoCascade engine, resume the full
// cascade immediately; otherwise — including files written before
// version 4 — the engine answers queries exactly after loading but
// runs the single-level filter until Build re-derives the cascade (or
// the auto planner re-plans one).
func LoadEngine(r io.Reader, cost CostMatrix, opts Options) (*Engine, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(persist.Magic))
	if err != nil || !bytes.Equal(head, []byte(persist.Magic)) {
		return loadLegacyEngine(br, cost, opts)
	}
	snap, err := persist.ReadSnapshot(br)
	if err != nil {
		return nil, fmt.Errorf("emdsearch: load: %w", err)
	}
	return engineFromSnapshot(snap, cost, opts)
}

// LoadEngineFile restores an engine from a snapshot file written by
// SaveFile (or Save, or a legacy gob file).
func LoadEngineFile(path string, cost CostMatrix, opts Options) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("emdsearch: load %s: %w", path, err)
	}
	defer f.Close()
	e, err := LoadEngine(f, cost, opts)
	if err != nil {
		return nil, fmt.Errorf("emdsearch: load %s: %w", path, err)
	}
	return e, nil
}

// engineFromSnapshot validates a decoded snapshot against the caller's
// configuration and materializes the engine. All content failures are
// ErrCorrupt; all configuration disagreements are ErrConfigMismatch.
func engineFromSnapshot(s *persist.Snapshot, cost CostMatrix, opts Options) (*Engine, error) {
	e, err := NewEngine(cost, opts)
	if err != nil {
		return nil, err
	}
	if s.Header.Dim != e.Dim() {
		return nil, fmt.Errorf("emdsearch: %w: snapshot stores %d-dimensional histograms, cost matrix is %dx%d",
			ErrConfigMismatch, s.Header.Dim, e.Dim(), e.Dim())
	}
	if s.Header.CostHash != e.costHash() {
		return nil, fmt.Errorf("emdsearch: %w: snapshot cost-matrix fingerprint %016x does not match the supplied cost matrix (%016x)",
			ErrConfigMismatch, s.Header.CostHash, e.costHash())
	}
	for i, it := range s.Items {
		if it.ID != i {
			return nil, fmt.Errorf("emdsearch: %w: item %d carries id %d", ErrCorrupt, i, it.ID)
		}
		// store.Add re-runs full operand validation: dimensionality,
		// non-negativity, finiteness, mass normalization.
		if _, err := e.store.Add(it.Label, it.Vector); err != nil {
			return nil, fmt.Errorf("emdsearch: %w: snapshot item %d: %v", ErrCorrupt, i, err)
		}
	}
	for name, rr := range s.Reductions {
		red, err := core.NewReduction(rr.Assign, rr.Reduced)
		if err != nil {
			return nil, fmt.Errorf("emdsearch: %w: snapshot reduction %q: %v", ErrCorrupt, name, err)
		}
		if err := e.store.Precompute(name, red); err != nil {
			return nil, fmt.Errorf("emdsearch: %w: snapshot reduction %q: %v", ErrCorrupt, name, err)
		}
	}
	var chain []*core.Reduction // coarse→fine; stays nil when the snapshot is unreduced
	if s.EngineReduction != nil {
		red, err := core.NewReduction(s.EngineReduction.Assign, s.EngineReduction.Reduced)
		if err != nil {
			return nil, fmt.Errorf("emdsearch: %w: snapshot engine reduction: %v", ErrCorrupt, err)
		}
		if red.OriginalDims() != e.Dim() {
			return nil, fmt.Errorf("emdsearch: %w: snapshot engine reduction covers %d dimensions, want %d",
				ErrCorrupt, red.OriginalDims(), e.Dim())
		}
		// Under AutoCascade, Options.ReducedDims is the planner's
		// starting point rather than a contract: a re-plan may have
		// re-derived the finest level at a different d', and that is
		// exactly the state a snapshot preserves. Skip the exact-match
		// check there; everywhere else a disagreement is a misconfig.
		if opts.ReducedDims != 0 && red.ReducedDims() != opts.ReducedDims && !opts.AutoCascade {
			return nil, fmt.Errorf("emdsearch: %w: saved reduction has d'=%d, options request %d",
				ErrConfigMismatch, red.ReducedDims(), opts.ReducedDims)
		}
		chain = []*core.Reduction{red}
	}
	for _, id := range s.Deleted {
		if id < 0 || id >= e.store.Len() {
			return nil, fmt.Errorf("emdsearch: %w: deleted id %d out of range [0, %d)", ErrCorrupt, id, e.store.Len())
		}
		if e.deleted == nil {
			e.deleted = make(map[int]bool, len(s.Deleted))
		}
		e.deleted[id] = true
	}
	if s.Quant != nil {
		// Revalidate every structural invariant of the quantized filter
		// before stashing it: a CRC-valid but semantically damaged
		// section must fail the load, never reach a scan. Whether the
		// stash is actually reused is decided at pipeline build time by
		// matching its geometry and reduction fingerprint.
		if s.Quant.N != e.store.Len() {
			return nil, fmt.Errorf("emdsearch: %w: quantized filter covers %d items, snapshot carries %d",
				ErrCorrupt, s.Quant.N, e.store.Len())
		}
		qz, err := colscan.RestoreQuantized(s.Quant.N, s.Quant.Dims, s.Quant.Block,
			s.Quant.CostMax, s.Quant.Scales, s.Quant.Margins, s.Quant.Cols)
		if err != nil {
			return nil, fmt.Errorf("emdsearch: %w: quantized filter: %v", ErrCorrupt, err)
		}
		e.savedQuant, e.savedQuantHash = qz, s.Quant.RedHash
	}
	if s.Index != nil {
		si, err := restoreIndexSection(s.Index, e.store.Len())
		if err != nil {
			return nil, fmt.Errorf("emdsearch: %w: metric index: %v", ErrCorrupt, err)
		}
		e.savedIndex = si
	}
	if s.Cascade != nil {
		levels, err := restoreCascadeSection(s.Cascade, chain, e.Dim())
		if err != nil {
			return nil, fmt.Errorf("emdsearch: %w: cascade: %v", ErrCorrupt, err)
		}
		// Adoption policy: an AutoCascade engine takes the saved chain
		// (the planner resumes from the persisted state and re-plans on
		// drift); a Hierarchy engine takes it only when it matches its
		// configured levels exactly; anyone else drops the section and
		// runs the single-level filter until Build re-derives — the
		// answers are exact either way.
		if e.plan.auto || slices.Equal(chainDims(levels), e.plan.dims()) {
			chain = levels
		}
	}
	if chain != nil {
		e.plan = e.plan.withChain(chain)
		if e.plan.auto {
			e.metrics.planActive(e.plan, false)
		}
	}
	return e, nil
}

// restoreCascadeSection validates a persisted cascade section and
// returns the chain it describes, coarse→fine: its own levels, or — for
// a section carrying only a single-level auto plan — engChain, the
// engine reduction alone. A CRC-valid but semantically damaged section
// must fail the load, never reach a filter: every level is re-validated
// structurally, the finest level must be byte-identical to the engine
// reduction, successive levels must be strictly coarser AND nested
// (same-group-stays-same-group — the property the lower-bound proof
// rests on), and a persisted plan must fingerprint to its own levels
// and list exactly the chain's dimensionalities.
func restoreCascadeSection(cs *persist.CascadeSection, engChain []*core.Reduction, dim int) ([]*core.Reduction, error) {
	if len(cs.Levels) == 0 && len(cs.PlanLevels) == 0 {
		return nil, fmt.Errorf("section carries neither levels nor a plan")
	}
	if engChain == nil {
		return nil, fmt.Errorf("cascade without an engine reduction")
	}
	chain := engChain
	if n := len(cs.Levels); n > 0 {
		if n < 2 {
			return nil, fmt.Errorf("cascade of %d level", n)
		}
		chain = make([]*core.Reduction, n)
		for i, rr := range cs.Levels { // finest first
			red, err := core.NewReduction(rr.Assign, rr.Reduced)
			if err != nil {
				return nil, fmt.Errorf("level %d: %v", i, err)
			}
			if red.OriginalDims() != dim {
				return nil, fmt.Errorf("level %d covers %d dimensions, want %d", i, red.OriginalDims(), dim)
			}
			chain[n-1-i] = red
		}
		if !chain[n-1].Equal(engChain[0]) {
			return nil, fmt.Errorf("finest cascade level disagrees with the engine reduction")
		}
		for i := 1; i < n; i++ {
			fine, coarse := chain[n-i], chain[n-1-i]
			if coarse.ReducedDims() >= fine.ReducedDims() {
				return nil, fmt.Errorf("level %d has d'=%d, not coarser than level %d (d'=%d)",
					i, coarse.ReducedDims(), i-1, fine.ReducedDims())
			}
			// Nesting: two original bins merged by the finer level must
			// be merged by the coarser one too, i.e. the coarse group is
			// a function of the fine group.
			fa, ca := fine.Assignment(), coarse.Assignment()
			group := make([]int, fine.ReducedDims())
			for g := range group {
				group[g] = -1
			}
			for b := range fa {
				if group[fa[b]] == -1 {
					group[fa[b]] = ca[b]
				} else if group[fa[b]] != ca[b] {
					return nil, fmt.Errorf("level %d is not a nested coarsening of level %d", i, i-1)
				}
			}
		}
	}
	if len(cs.PlanLevels) > 0 {
		if err := cascadeplan.ValidateLevels(cs.PlanLevels, dim); err != nil {
			return nil, fmt.Errorf("plan: %v", err)
		}
		if want := cascadeplan.PlanID(cs.PlanLevels); cs.PlanID != want {
			return nil, fmt.Errorf("plan fingerprint %016x does not match its levels (%016x)", cs.PlanID, want)
		}
		if !slices.Equal(chainDims(chain), cs.PlanLevels) {
			return nil, fmt.Errorf("plan levels %v disagree with the persisted chain", cs.PlanLevels)
		}
	}
	return chain, nil
}

// restoreIndexSection validates and materializes a persisted metric
// index. A CRC-valid but semantically damaged section must fail the
// load, never reach a traversal; RestoreFlat re-checks every
// structural invariant of the tree. Whether the stash is actually
// reused is decided at pipeline build time by matching its kind and
// reduction fingerprint — a stale index is silently rebuilt.
func restoreIndexSection(is *persist.IndexSection, items int) (*savedIndex, error) {
	if is.N != items {
		return nil, fmt.Errorf("covers %d items, snapshot carries %d", is.N, items)
	}
	if is.DeletedAtBuild < 0 || is.DeletedAtBuild > is.N {
		return nil, fmt.Errorf("deleted-at-build %d out of range [0, %d]", is.DeletedAtBuild, is.N)
	}
	si := &savedIndex{
		kind:           is.Kind,
		n:              is.N,
		deletedAtBuild: is.DeletedAtBuild,
		redHash:        is.RedHash,
	}
	dec := gob.NewDecoder(bytes.NewReader(is.Blob))
	switch is.Kind {
	case IndexMTree:
		var f mtree.Flat
		if err := dec.Decode(&f); err != nil {
			return nil, fmt.Errorf("decode m-tree: %v", err)
		}
		mt, err := mtree.RestoreFlat(&f, items, rand.New(rand.NewSource(0x6d726573)))
		if err != nil {
			return nil, err
		}
		si.mt = mt
	case IndexVPTree:
		var f vptree.Flat
		if err := dec.Decode(&f); err != nil {
			return nil, fmt.Errorf("decode vp-tree: %v", err)
		}
		vt, err := vptree.RestoreFlat(&f, items)
		if err != nil {
			return nil, err
		}
		si.vt = vt
	default:
		return nil, fmt.Errorf("unknown index kind %q", is.Kind)
	}
	return si, nil
}

// loadLegacyEngine is the version-0 fallback: a raw gob database
// stream from before the versioned snapshot format. db.Load re-runs
// full validation over every decoded histogram and wraps decode
// failures in ErrCorrupt.
func loadLegacyEngine(r io.Reader, cost CostMatrix, opts Options) (*Engine, error) {
	e, err := NewEngine(cost, opts)
	if err != nil {
		return nil, err
	}
	store, err := db.Load(r)
	if err != nil {
		return nil, fmt.Errorf("emdsearch: load: %w", err)
	}
	if store.Dim() != e.Dim() {
		return nil, fmt.Errorf("emdsearch: %w: saved data has %d dimensions, cost matrix has %d",
			ErrConfigMismatch, store.Dim(), e.Dim())
	}
	e.store = store
	if red, ok := store.Reduction("engine"); ok {
		if dims := e.plan.dims(); len(dims) > 0 && red.ReducedDims() != dims[len(dims)-1] {
			return nil, fmt.Errorf("emdsearch: %w: saved reduction has d'=%d, options request %d",
				ErrConfigMismatch, red.ReducedDims(), dims[len(dims)-1])
		}
		e.plan = e.plan.withChain([]*core.Reduction{red})
	}
	return e, nil
}

// OpenWAL attaches a write-ahead log at path to the engine: every
// subsequent Add and Delete is validated, appended to the log,
// fsynced, and only then applied in memory, so acknowledged mutations
// survive a crash and are replayed by RecoverEngine over the last
// snapshot.
//
// A fresh or empty file is initialized with the log preamble
// (including the engine's configuration fingerprint). An existing file
// is integrity-checked first: it must carry the same fingerprint
// (ErrConfigMismatch), complete-frame damage fails with ErrCorrupt, a
// torn final record — the signature of a crash mid-append — is
// truncated away, and a log holding mutations beyond the engine's
// current state is refused (run RecoverEngine first, then reopen).
func (e *Engine) OpenWAL(path string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal != nil {
		return fmt.Errorf("emdsearch: engine already has an open WAL at %s", e.wal.Path())
	}
	w, scan, err := persist.OpenWAL(path, persist.WALHeader{Dim: e.store.Dim(), CostHash: e.costHash()})
	if err != nil {
		return fmt.Errorf("emdsearch: open WAL: %w", err)
	}
	if scan.MaxAddID >= e.store.Len() {
		cerr := w.Close()
		return fmt.Errorf("emdsearch: WAL %s holds mutations beyond the engine's %d items; recover with RecoverEngine before reopening (close: %v)",
			path, e.store.Len(), cerr)
	}
	e.wal = w
	return nil
}

// ReopenWAL recovers a broken write-ahead log in place: it closes the
// current log file and reopens the same path, re-running the open-time
// integrity scan (which truncates any torn tail the failed rollback
// left behind). On success the engine resumes durable logging exactly
// where the last acknowledged mutation left off — the log's valid
// prefix always equals the acknowledged mutations, because a mutation
// whose append failed was never applied in memory either.
//
// It is safe to call on a healthy WAL too (the scan is a no-op then),
// and callers typically invoke it with backoff after Add/Delete starts
// failing with ErrWALBroken — transient storage faults (full disk,
// remounted volume) heal, permanent ones keep failing here and keep
// the engine read-only-durable rather than silently non-durable.
func (e *Engine) ReopenWAL() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal == nil {
		return fmt.Errorf("emdsearch: ReopenWAL: engine has no WAL attached")
	}
	path := e.wal.Path()
	// Close the old handle first; its buffered state is unusable and a
	// close error on a broken file adds nothing actionable.
	_ = e.wal.Close()
	e.wal = nil
	w, scan, err := persist.OpenWAL(path, persist.WALHeader{Dim: e.store.Dim(), CostHash: e.costHash()})
	if err != nil {
		return fmt.Errorf("emdsearch: reopen WAL: %w", err)
	}
	if scan.MaxAddID >= e.store.Len() {
		cerr := w.Close()
		return fmt.Errorf("emdsearch: WAL %s holds mutations beyond the engine's %d items; recover with RecoverEngine before reopening (close: %v)",
			path, e.store.Len(), cerr)
	}
	e.wal = w
	return nil
}

// ReopenWALRetry is ReopenWAL under a jittered capped exponential
// backoff: up to attempts tries (<= 0 defaults to 10), sleeping a
// uniformly jittered delay drawn from the 1ms, 2ms, 4ms ... schedule
// capped at 256ms between them. The jitter desynchronizes many
// processes healing a shared disk fault at once. It returns nil as
// soon as one reopen succeeds, ctx.Err() if the context ends first,
// and otherwise the last reopen error.
func (e *Engine) ReopenWALRetry(ctx context.Context, attempts int) error {
	if attempts <= 0 {
		attempts = 10
	}
	b := &shardset.Backoff{Base: time.Millisecond, Cap: 256 * time.Millisecond}
	var err error
	for i := 0; i < attempts; i++ {
		if err = e.ReopenWAL(); err == nil {
			return nil
		}
		if i == attempts-1 {
			break // no point sleeping after the final failure
		}
		if !b.Sleep(ctx, i, 0) {
			return fmt.Errorf("emdsearch: ReopenWALRetry: %w (last reopen error: %v)", ctx.Err(), err)
		}
	}
	return err
}

// CloseWAL detaches and closes the engine's write-ahead log. Further
// mutations are no longer logged. Closing an engine without an open
// WAL is a no-op.
func (e *Engine) CloseWAL() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal == nil {
		return nil
	}
	err := e.wal.Close()
	e.wal = nil
	return err
}

// Checkpoint writes a fresh snapshot to path (atomically, like
// SaveFile) and then resets the write-ahead log, bounding replay work
// at the next recovery. The snapshot is durable before the log is
// truncated, and WAL replay is idempotent over snapshot contents, so a
// crash between the two steps recovers correctly: the replayed records
// are recognized as already applied and skipped.
//
// Checkpoint holds the engine's write lock for the duration of the
// file write; concurrent queries that already hold a pipeline snapshot
// proceed, new queries block until the checkpoint completes.
func (e *Engine) Checkpoint(path string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.saveFileLocked(path); err != nil {
		return err
	}
	if e.wal != nil {
		if err := e.wal.Reset(); err != nil {
			return fmt.Errorf("emdsearch: checkpoint: rotate WAL: %w", err)
		}
	}
	e.metrics.checkpointed()
	return nil
}

// RecoverStats reports what RecoverEngine found and did.
type RecoverStats struct {
	// SnapshotLoaded is false when no snapshot file existed and
	// recovery started from an empty engine.
	SnapshotLoaded bool
	// WALRecords is the number of log records applied on top of the
	// snapshot.
	WALRecords int
	// WALSkipped counts records recognized as already contained in the
	// snapshot (a crash between Checkpoint's snapshot write and its
	// log rotation leaves such records; replay is idempotent).
	WALSkipped int
	// TornBytes counts trailing log bytes discarded as an append torn
	// by a crash; the mutation they belonged to was never acknowledged.
	TornBytes int64
}

// RecoverEngine rebuilds an engine after a crash: it loads the last
// good snapshot from snapshotPath (an absent file starts from an empty
// engine; a damaged one fails with ErrCorrupt rather than guessing),
// then replays the write-ahead log at walPath over it, truncating a
// torn final record. Replay is idempotent: records the snapshot
// already contains are skipped, so recovery is correct no matter where
// between Checkpoint's two steps a crash landed. Either both paths may
// point at files from the same engine lineage, or the respective file
// may not exist; a log that skips past the snapshot's state (a missing
// or foreign snapshot) fails with ErrCorrupt, and configuration
// disagreements fail with ErrConfigMismatch.
//
// The returned engine has no open WAL; call OpenWAL(walPath) — usually
// after a Checkpoint — to resume logging.
func RecoverEngine(snapshotPath, walPath string, cost CostMatrix, opts Options) (*Engine, *RecoverStats, error) {
	stats := &RecoverStats{}
	var e *Engine
	if _, err := os.Stat(snapshotPath); err == nil {
		e, err = LoadEngineFile(snapshotPath, cost, opts)
		if err != nil {
			return nil, nil, err
		}
		stats.SnapshotLoaded = true
	} else if os.IsNotExist(err) {
		e, err = NewEngine(cost, opts)
		if err != nil {
			return nil, nil, err
		}
	} else {
		return nil, nil, fmt.Errorf("emdsearch: recover: stat snapshot: %w", err)
	}
	if walPath == "" {
		return e, stats, nil
	}
	if _, err := os.Stat(walPath); os.IsNotExist(err) {
		return e, stats, nil
	} else if err != nil {
		return nil, nil, fmt.Errorf("emdsearch: recover: stat WAL: %w", err)
	}
	recs, scan, err := persist.ReplayWAL(walPath, persist.WALHeader{Dim: e.Dim(), CostHash: persist.CostHash(cost)})
	if err != nil {
		return nil, nil, fmt.Errorf("emdsearch: recover: %w", err)
	}
	stats.TornBytes = scan.TornBytes
	for i, rec := range recs {
		switch rec.Op {
		case persist.WALAdd:
			switch {
			case rec.ID < e.Len():
				stats.WALSkipped++
			case rec.ID == e.Len():
				if _, err := e.Add(rec.Label, rec.Vector); err != nil {
					return nil, nil, fmt.Errorf("emdsearch: recover: %w: WAL record %d (add %d): %v", ErrCorrupt, i, rec.ID, err)
				}
				stats.WALRecords++
			default:
				return nil, nil, fmt.Errorf("emdsearch: recover: %w: WAL record %d adds item %d but the snapshot ends at %d — snapshot and log do not belong together",
					ErrCorrupt, i, rec.ID, e.Len())
			}
		case persist.WALDelete:
			if rec.ID < 0 || rec.ID >= e.Len() {
				return nil, nil, fmt.Errorf("emdsearch: recover: %w: WAL record %d deletes unknown item %d", ErrCorrupt, i, rec.ID)
			}
			if e.Deleted(rec.ID) {
				stats.WALSkipped++
				continue
			}
			if err := e.Delete(rec.ID); err != nil {
				return nil, nil, fmt.Errorf("emdsearch: recover: %w: WAL record %d (delete %d): %v", ErrCorrupt, i, rec.ID, err)
			}
			stats.WALRecords++
		default:
			return nil, nil, fmt.Errorf("emdsearch: recover: %w: WAL record %d has unknown op %d", ErrCorrupt, i, rec.Op)
		}
	}
	e.metrics.walReplayed(stats.WALRecords)
	return e, stats, nil
}
