package ttdb

import (
	"sort"

	"warp/internal/sqldb"
)

// This file implements the per-partition version index (§4.1 applied to
// repair performance): for every partition, the database remembers which
// rows had a version event (insert, update, delete, rollback) in that
// partition and when. Repair's partition-level rollback — "undo everything
// that touched partition P at or after time T" — becomes an index lookup
// plus per-row rollbacks instead of a scan over every physical row version
// of the table.

// partEntry is one version event in the per-partition index.
type partEntry struct {
	rowID sqldb.Value
	t     int64
}

// indexVersionEvent records that a row had a version event in the given
// partitions at time t. The index is shared by every partition of the
// table, so it is touched under the bookkeeping latch.
func (m *tableMeta) indexVersionEvent(ps []Partition, rowID sqldb.Value, t int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.partIdx == nil {
		m.partIdx = make(map[Partition][]partEntry)
	}
	for _, p := range ps {
		m.partIdx[p] = append(m.partIdx[p], partEntry{rowID: rowID, t: t})
	}
}

// rowsSince returns the distinct row IDs with a version event in p at or
// after since, in a stable order.
func (m *tableMeta) rowsSince(p Partition, since int64) []sqldb.Value {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[string]bool)
	var out []sqldb.Value
	collect := func(entries []partEntry) {
		for _, e := range entries {
			if e.t < since || seen[e.rowID.Key()] {
				continue
			}
			seen[e.rowID.Key()] = true
			out = append(out, e.rowID)
		}
	}
	if p.IsWholeTable() {
		// Whole-table queries union every partition's events.
		keys := make([]Partition, 0, len(m.partIdx))
		for k := range m.partIdx {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.Column != b.Column {
				return a.Column < b.Column
			}
			return a.Key < b.Key
		})
		for _, k := range keys {
			collect(m.partIdx[k])
		}
	} else {
		collect(m.partIdx[p])
		// Tables without partition columns index events whole-table.
		collect(m.partIdx[WholeTable(m.name)])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// pruneIndexBefore drops index entries older than the GC horizon. Entries
// below the horizon can never satisfy a valid rollback (rollback refuses
// times at or before the horizon).
func (m *tableMeta) pruneIndexBefore(beforeTime int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p, entries := range m.partIdx {
		keep := entries[:0]
		for _, e := range entries {
			if e.t >= beforeTime {
				keep = append(keep, e)
			}
		}
		if len(keep) == 0 {
			delete(m.partIdx, p)
			continue
		}
		m.partIdx[p] = keep
	}
}

// PartitionRowsSince returns the distinct row IDs of rows with a version
// event in partition p at or after time since, via the per-partition
// version index. Events older than the GC horizon may have been pruned.
func (db *DB) PartitionRowsSince(p Partition, since int64) ([]sqldb.Value, error) {
	m, err := db.meta(p.Table)
	if err != nil {
		return nil, err
	}
	// The index latch is sufficient for a read-only probe.
	return m.rowsSince(p, since), nil
}

// partitionScope derives the lock scope for operating on one partition:
// the partition's own key when it is on the lock column, the whole table
// otherwise (other columns cut across the lock column's slices).
func (m *tableMeta) partitionScope(db *DB, p Partition) lockScope {
	if !p.IsWholeTable() && p.Column == m.lockCol {
		return m.effectiveScope(keyScope([]string{p.Key}))
	}
	return wholeScope()
}

// RollbackPartition rolls back every row with a version event in partition
// p at or after time t to time t, in the repair generation. It is the
// partition-granularity analog of RollbackRows and returns the partitions
// whose contents changed. Rolling back a row the repair already restored
// is a no-op, so the index's over-approximation is safe.
func (db *DB) RollbackPartition(p Partition, t int64) ([]Partition, error) {
	st, err := db.repairSnapshot()
	if err != nil {
		return nil, err
	}
	m, err := db.meta(p.Table)
	if err != nil {
		return nil, err
	}
	sc := m.partitionScope(db, p)
	// Accumulated across an escalation retry, same as RollbackRows: dirt
	// from rollbacks completed under the narrow scope must survive.
	set := NewPartitionSet()
	for {
		m.locks.lock(sc)
		err := func() error {
			for _, id := range m.rowsSince(p, t) {
				ps, err := db.rollbackRowLocked(m, id, t, st, sc)
				if err != nil {
					return err
				}
				set.AddAll(ps)
			}
			return nil
		}()
		m.locks.unlock(sc)
		if err == errScopeConflict && !sc.whole {
			// A row in p also has versions outside p's lock-column slice
			// (its partition column was rewritten): retry whole-table.
			scopeEscalations.Inc()
			sc = wholeScope()
			continue
		}
		if err != nil {
			return nil, err
		}
		return set.Slice(), nil
	}
}
