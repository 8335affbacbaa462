package emdsearch

import (
	"fmt"

	"emdsearch/internal/persist"
)

// Delete removes item i from query results. The deletion is "soft":
// the item keeps its index (ids of other items are stable) and its
// filter representations remain in place, but its refinement distance
// is treated as infinite, so it can never appear in the results of
// Search (and its KNN and Range views), Rank or ApproxKNN. Space is reclaimed only by
// rebuilding the engine from the surviving items. Safe for concurrent
// use; queries already in flight keep answering over the snapshot
// they started with and may still return the item.
//
// With an open write-ahead log (OpenWAL), the deletion is appended to
// the log and fsynced before the in-memory state changes, so an
// acknowledged Delete survives a crash. Deletions are also persisted
// by Save/SaveFile/Checkpoint, so they never resurrect across a
// save/load round-trip.
func (e *Engine) Delete(i int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i < 0 || i >= e.store.Len() {
		return fmt.Errorf("emdsearch: Delete(%d): index out of range [0, %d)", i, e.store.Len())
	}
	if e.deleted == nil {
		e.deleted = make(map[int]bool)
	}
	if e.deleted[i] {
		return fmt.Errorf("emdsearch: item %d already deleted", i)
	}
	if e.wal != nil {
		if err := e.wal.Append(persist.WALRecord{Op: persist.WALDelete, ID: i}); err != nil {
			return fmt.Errorf("emdsearch: delete: %w", err)
		}
		e.metrics.walAppended()
	}
	e.deleted[i] = true
	e.snap = nil
	return nil
}

// Deleted reports whether item i has been soft-deleted.
func (e *Engine) Deleted(i int) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.deleted[i]
}

// Alive returns the number of non-deleted items.
func (e *Engine) Alive() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store.Len() - len(e.deleted)
}
