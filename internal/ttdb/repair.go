package ttdb

import (
	"fmt"

	"warp/internal/sqldb"
)

// repairState snapshots the generation state a repair-side operation runs
// under: the repair ("next") generation and the GC horizon. Snapshotting
// it once at operation entry lets the scope-locked internals run without
// re-acquiring db.mu (the lock ordering forbids that).
type repairState struct {
	next     int64
	gcBefore int64
}

// repairSnapshot returns the current repair state, or an error when no
// repair is open.
func (db *DB) repairSnapshot() (repairState, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.inRepair {
		return repairState{}, fmt.Errorf("ttdb: no repair in progress")
	}
	return repairState{next: db.currentGen.Load() + 1, gcBefore: db.gcBefore}, nil
}

// BeginRepair opens the next repair generation (§4.3): a logical fork of
// the current database contents. Repair-time operations (ReExec, Rollback)
// apply to the next generation while normal execution continues against the
// current one. It returns the generation number repair runs in.
func (db *DB) BeginRepair() (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.inRepair {
		return 0, fmt.Errorf("ttdb: repair already in progress")
	}
	db.inRepair = true
	return db.currentGen.Load() + 1, nil
}

// FinishRepair atomically makes the repaired generation current. The caller
// (WARP's core) is responsible for briefly suspending the web server and
// draining final requests first (§4.3), and for ensuring all repair workers
// have completed. Rows visible only to older generations are purged.
//
// The purge mutates only rows this repair demoted or created — every one
// of which was dirty-marked (at partition-shard granularity) by the
// repair operation that touched it — so the generation switch adds no
// dirt of its own and a repaired hot row marks a sub-table section, not
// the whole table (docs/persistence.md).
func (db *DB) FinishRepair() error {
	metas := db.lockAll()
	defer db.unlockAll(metas)
	if !db.inRepair {
		return fmt.Errorf("ttdb: no repair in progress")
	}
	cur := db.currentGen.Add(1)
	db.inRepair = false
	// Purge rows invisible from the new current generation onward.
	for _, m := range metas {
		if _, err := db.raw.ExecCached(db.stmtsFor(m).purgeOld, []sqldb.Value{sqldb.Int(cur)}); err != nil {
			return err
		}
	}
	return nil
}

// AbortRepair discards the next generation, restoring the database to the
// state normal execution sees. WARP uses this when a user-initiated undo
// would cause conflicts for other users (§5.5). Like FinishRepair, it
// mutates only rows repair operations already dirty-marked.
func (db *DB) AbortRepair() error {
	metas := db.lockAll()
	defer db.unlockAll(metas)
	if !db.inRepair {
		return fmt.Errorf("ttdb: no repair in progress")
	}
	cur := db.currentGen.Load()
	next := cur + 1
	for _, m := range metas {
		st := db.stmtsFor(m)
		// Rows created by repair vanish...
		if _, err := db.raw.ExecCached(st.purgeNew, []sqldb.Value{sqldb.Int(next)}); err != nil {
			return err
		}
		// ...and rows demoted during repair become shared again.
		if _, err := db.raw.ExecCached(st.unDemote, []sqldb.Value{sqldb.Int(cur)}); err != nil {
			return err
		}
	}
	db.inRepair = false
	return nil
}

// physicalRow captures one stored version with its bookkeeping columns.
// The column index is shared across every row of one decode batch, so
// decoding n versions costs one map, not n.
type physicalRow struct {
	cols  map[string]int // column name -> position in row (shared)
	row   []sqldb.Value
	rowID sqldb.Value
	start int64
	end   int64
	sGen  int64
	eGen  int64
}

// val returns the named column's value and whether the column exists.
func (pr *physicalRow) val(c string) (sqldb.Value, bool) {
	i, ok := pr.cols[c]
	if !ok {
		return sqldb.Value{}, false
	}
	return pr.row[i], true
}

// colVal is val without the presence flag (missing columns read NULL).
func (pr *physicalRow) colVal(c string) sqldb.Value {
	v, _ := pr.val(c)
	return v
}

func (db *DB) decodePhysical(m *tableMeta, res *sqldb.Result) []physicalRow {
	colOf := make(map[string]int, len(res.Columns))
	for i, c := range res.Columns {
		colOf[c] = i
	}
	out := make([]physicalRow, 0, len(res.Rows))
	for _, row := range res.Rows {
		pr := physicalRow{cols: colOf, row: row}
		pr.rowID = pr.colVal(m.rowIDCol)
		pr.start = pr.colVal(ColStartTime).AsInt()
		pr.end = pr.colVal(ColEndTime).AsInt()
		pr.sGen = pr.colVal(ColStartGen).AsInt()
		pr.eGen = pr.colVal(ColEndGen).AsInt()
		out = append(out, pr)
	}
	return out
}

// checkVersionsInScope verifies that every version's lock-column value
// falls inside the scope, before anything is mutated. A miss means the
// operation's statically derived scope was too narrow (a row's partition
// column was rewritten after the original record, or a uniqueness
// collision landed in a sibling partition); the entry point retries
// under the whole-table scope.
func (db *DB) checkVersionsInScope(m *tableMeta, versions []physicalRow, sc lockScope) error {
	if sc.whole || m.lockCol == "" {
		return nil
	}
	for _, pr := range versions {
		if err := sc.check(pr.colVal(m.lockCol).Key()); err != nil {
			return err
		}
	}
	return nil
}

// demote confines a shared physical row to generations up to current, so
// the next generation no longer sees it (§4.4 preservation).
func (db *DB) demote(m *tableMeta, pr physicalRow) error {
	return db.execTarget(m, "demote", db.stmtsFor(m).demote, targetParams(pr, sqldb.Int(db.currentGen.Load())))
}

// deletePhysical removes one physical row version outright.
func (db *DB) deletePhysical(m *tableMeta, pr physicalRow) error {
	return db.execTarget(m, "delete", db.stmtsFor(m).deleteVersion, targetParams(pr))
}

// execTarget runs a handle that must affect exactly the one version its
// target parameters name.
func (db *DB) execTarget(m *tableMeta, op string, cs *sqldb.CachedStmt, params []sqldb.Value) error {
	res, err := db.raw.ExecCached(cs, params)
	if err != nil {
		return err
	}
	if res.Affected != 1 {
		return fmt.Errorf("ttdb: %s targeted %d rows in %s, want 1", op, res.Affected, m.name)
	}
	return nil
}

// insertCopy inserts a copy of pr with the given version overrides.
func (db *DB) insertCopy(m *tableMeta, pr physicalRow, end int64, sGen, eGen int64) error {
	vals := append([]sqldb.Value(nil), pr.row...)
	vals[pr.cols[ColEndTime]] = sqldb.Int(end)
	vals[pr.cols[ColStartGen]] = sqldb.Int(sGen)
	vals[pr.cols[ColEndGen]] = sqldb.Int(eGen)
	_, err := db.raw.ExecCached(db.stmtsFor(m).insertRow, vals)
	return err
}

// scopeForRows derives the lock scope for operating on the given rows:
// the lock-column keys of every version of every row, from an unlocked
// pre-scan of the raw engine. The pre-scan may go stale before the scope
// is acquired; the scope checks inside the locked operation catch that
// and escalate, so staleness costs a retry, never correctness.
func (db *DB) scopeForRows(m *tableMeta, rowIDs []sqldb.Value) lockScope {
	if m.lockCol == "" || len(rowIDs) == 0 {
		return wholeScope()
	}
	probe := db.stmtsFor(m).lockKey
	var keys []string
	for _, id := range rowIDs {
		res, err := db.raw.ExecCached(probe, []sqldb.Value{id})
		if err != nil {
			return wholeScope()
		}
		for _, row := range res.Rows {
			keys = append(keys, row[0].Key())
		}
	}
	return db.maybeCoalesce(m, keyScope(keys))
}

// RollbackRow rolls back a single row (named by row ID) to time t in the
// repair generation (§4.1): versions from t onward disappear from the next
// generation, and the version covering t becomes live again. Versions
// shared with the current generation are preserved for it by demotion.
// It returns the partitions whose contents changed.
func (db *DB) RollbackRow(table string, rowID sqldb.Value, t int64) ([]Partition, error) {
	return db.RollbackRows(table, []sqldb.Value{rowID}, t)
}

// rollbackRowLocked is the per-row rollback, run under a scope covering
// the row's lock-column keys. Every row it would mutate is verified
// against the scope before any mutation, so an errScopeConflict return
// leaves the table untouched by this row's rollback and the caller can
// retry under a wider scope; a completed rollback re-run under the wider
// scope is a no-op.
func (db *DB) rollbackRowLocked(m *tableMeta, rowID sqldb.Value, t int64, st repairState, sc lockScope) ([]Partition, error) {
	if t <= st.gcBefore {
		return nil, fmt.Errorf("ttdb: rollback to %d is beyond the GC horizon %d", t, st.gcBefore)
	}
	next := st.next

	// All versions of this row visible anywhere in the next generation.
	versions, err := db.readVersions(m, rowID, next)
	if err != nil {
		return nil, err
	}
	if err := db.checkVersionsInScope(m, versions, sc); err != nil {
		return nil, err
	}

	set := NewPartitionSet()
	var keep []physicalRow
	for _, pr := range versions {
		for _, p := range m.rowPartitions(pr.colVal) {
			set.Add(p)
		}
		if pr.start < t {
			keep = append(keep, pr)
		}
	}
	// Revive the version covering t, if it was closed; find it before
	// mutating so the revival's uniqueness colliders can be scope-checked
	// up front.
	var latest *physicalRow
	for i := range keep {
		if latest == nil || keep[i].start > latest.start {
			latest = &keep[i]
		}
	}
	revive := latest != nil && latest.end != Infinity && latest.end >= t
	var colliders []collider
	if revive {
		// The revival can collide with a row inserted later under the same
		// uniqueness key: the §6 case where an INSERT's success changes
		// during repair. Probe once: the set is verified against the scope
		// before any mutation, and the same set is resolved after the main
		// row's versions are cleared (clearing them cannot add or remove
		// colliders — the probe already excludes the main row).
		var err error
		colliders, err = db.revivalColliders(m, *latest, st)
		if err != nil {
			return nil, err
		}
		for _, other := range colliders {
			if err := db.checkVersionsInScope(m, other.versions, sc); err != nil {
				return nil, err
			}
		}
	}

	db.markDirtyScope(m, sc)
	for _, pr := range versions {
		if pr.start < t {
			continue
		}
		// This version vanishes from the next generation.
		if pr.sGen >= next {
			if err := db.deletePhysical(m, pr); err != nil {
				return nil, err
			}
		} else {
			if err := db.demote(m, pr); err != nil {
				return nil, err
			}
		}
	}
	if revive {
		if err := db.resolveRevivalCollisions(m, colliders, st, set, sc); err != nil {
			return nil, err
		}
		if latest.sGen >= next {
			if _, err := db.raw.ExecCached(db.stmtsFor(m).revive, targetParams(*latest)); err != nil {
				return nil, err
			}
		} else {
			if err := db.demote(m, *latest); err != nil {
				return nil, err
			}
			if err := db.insertCopy(m, *latest, Infinity, next, Infinity); err != nil {
				return nil, err
			}
		}
	}
	// Index the rollback itself: the partitions' contents changed at t.
	m.indexVersionEvent(set.Slice(), rowID, t)
	return set.Slice(), nil
}

// collider is one row whose live next-generation version shares a
// uniqueness key with a row about to be revived.
type collider struct {
	rowID    sqldb.Value
	versions []physicalRow
}

// revivalColliders probes (read-only) for live next-generation rows that
// share a uniqueness key with pr, returning each with all of its
// next-generation-visible versions.
func (db *DB) revivalColliders(m *tableMeta, pr physicalRow, st repairState) ([]collider, error) {
	var out []collider
	seen := make(map[string]bool)
	for _, probe := range db.stmtsFor(m).colliders {
		params := make([]sqldb.Value, 0, len(probe.cols)+1)
		for _, col := range probe.cols {
			if v, ok := pr.val(col); ok && !v.IsNull() {
				params = append(params, v)
			}
		}
		if len(params) < len(probe.cols) {
			continue // a NULL key never collides
		}
		res, err := db.raw.ExecCached(probe.stmt, append(params, sqldb.Int(st.next)))
		if err != nil {
			return nil, err
		}
		for _, other := range db.decodePhysical(m, res) {
			if other.rowID.Equal(pr.rowID) || seen[other.rowID.Key()] {
				continue
			}
			seen[other.rowID.Key()] = true
			versions, err := db.readVersions(m, other.rowID, st.next)
			if err != nil {
				return nil, err
			}
			out = append(out, collider{rowID: other.rowID, versions: versions})
		}
	}
	return out, nil
}

// resolveRevivalCollisions rolls back the probed live next-generation
// rows that share a uniqueness key with the row about to be revived
// (§6). Each collider is rolled back to before its first appearance, so
// in the repaired timeline its insert fails; its own rollback keeps no
// versions, so it never revives or recurses. The colliders' partitions
// are added to dirt so the inserts that created them re-execute and
// observe their changed (now failing) outcome.
func (db *DB) resolveRevivalCollisions(m *tableMeta, colliders []collider, st repairState, dirt *PartitionSet, sc lockScope) error {
	for _, other := range colliders {
		first := int64(0)
		for i, pr := range other.versions {
			if i == 0 || pr.start < first {
				first = pr.start
			}
		}
		ps, err := db.rollbackRowLocked(m, other.rowID, first, st, sc)
		if err != nil {
			return err
		}
		dirt.AddAll(ps)
	}
	return nil
}

// RollbackRows rolls back several rows of one table to time t. The scope
// is derived from the rows' own lock-column keys, so rollbacks of rows in
// disjoint partitions proceed concurrently; a rollback that escapes its
// derived scope retries under the whole-table scope (completed per-row
// rollbacks are idempotent, so the retry re-converges).
func (db *DB) RollbackRows(table string, rowIDs []sqldb.Value, t int64) ([]Partition, error) {
	st, err := db.repairSnapshot()
	if err != nil {
		return nil, err
	}
	m, err := db.meta(table)
	if err != nil {
		return nil, err
	}
	sc := db.scopeForRows(m, rowIDs)
	// The set accumulates across an escalation retry: per-row rollbacks
	// completed in a narrow-scope attempt stay applied (the retry re-runs
	// them as no-ops), so their dirt — including uniqueness-collider
	// rollbacks the no-op re-run will not re-probe — must not be lost.
	set := NewPartitionSet()
	for {
		m.locks.lock(sc)
		err := func() error {
			for _, id := range rowIDs {
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

// ReExec re-executes a query at its original time t in the repair
// generation (§4.4). For writes it performs the paper's two-phase
// re-execution (§4.2): it computes the new matching row set, rolls back
// both the original and the new rows to just before t, and then executes
// the write in the next generation. orig is the record from the original
// execution, or nil for a query with no original counterpart (for example,
// a patched application run issuing a brand-new query).
//
// The returned Record describes the re-executed query; its WritePartitions
// include everything touched by rollback, which the repair controller uses
// for dependency propagation.
func (db *DB) ReExec(src string, params []sqldb.Value, t int64, orig *Record) (*sqldb.Result, *Record, error) {
	cs, err := db.stmts.Get(src)
	if err != nil {
		return nil, nil, err
	}
	return db.ReExecPrepared(cs, params, t, orig)
}

// origScope derives the lock-column keys the original record's write set
// touched — the rows a two-phase re-execution must roll back.
func origScope(m *tableMeta, orig *Record) lockScope {
	if orig == nil {
		return keyScope(nil)
	}
	var keys []string
	for _, p := range orig.WritePartitions {
		if p.IsWholeTable() {
			return wholeScope()
		}
		if p.Column == m.lockCol {
			keys = append(keys, p.Key)
		}
	}
	if len(keys) == 0 && len(orig.WriteRowIDs) > 0 {
		// Rows were written but no lock-column partition recorded:
		// cannot bound the rollback.
		return wholeScope()
	}
	return keyScope(keys)
}

// ReExecPrepared is ReExec for a cached statement handle: repair replay
// re-executes each recorded query without re-parsing or re-stringifying
// its SQL (the handle carries both the AST and the canonical text).
// Re-executions on disjoint partition scopes — different tables, or
// disjoint lock-column keys of one table — run in parallel; the scope is
// held for the full two-phase span so a re-execution is atomic with
// respect to overlapping operations.
func (db *DB) ReExecPrepared(cs *sqldb.CachedStmt, params []sqldb.Value, t int64, orig *Record) (*sqldb.Result, *Record, error) {
	stmt := cs.Stmt
	st, err := db.repairSnapshot()
	if err != nil {
		return nil, nil, fmt.Errorf("ttdb: ReExec outside repair")
	}
	db.clock.AdvanceTo(t)

	run := func(table string, fn func(m *tableMeta, sc lockScope, dirt *PartitionSet) (*sqldb.Result, *Record, error)) (*sqldb.Result, *Record, error) {
		m, err := db.meta(table)
		if err != nil {
			return nil, nil, err
		}
		sc := db.maybeCoalesce(m, m.effectiveScope(m.scopeForStmt(stmt, params).merge(origScope(m, orig))))
		// dirt accumulates across an escalation retry: rollbacks completed
		// in a narrow-scope attempt stay applied (the retry re-runs them as
		// no-ops), so their partitions — including uniqueness-collider
		// rollbacks the no-op re-run will not re-probe — must survive into
		// the returned record's write set.
		dirt := NewPartitionSet()
		for {
			m.locks.lock(sc)
			res, rec, err := fn(m, sc, dirt)
			m.locks.unlock(sc)
			if err == errScopeConflict && !sc.whole {
				// The statically derived scope was too narrow (see
				// locks.go); fall back to the table lock and re-run. No
				// mutation escaped the narrow scope, and completed row
				// rollbacks within it are idempotent under the retry.
				scopeEscalations.Inc()
				sc = wholeScope()
				continue
			}
			return res, rec, err
		}
	}

	switch s := stmt.(type) {
	case *sqldb.Insert:
		return run(s.Table, func(m *tableMeta, sc lockScope, dirt *PartitionSet) (*sqldb.Result, *Record, error) {
			return db.reExecInsert(cs, params, t, st, orig, m, sc, dirt)
		})
	case *sqldb.Update:
		return run(s.Table, func(m *tableMeta, sc lockScope, dirt *PartitionSet) (*sqldb.Result, *Record, error) {
			return db.reExecWrite(cs, params, t, st, orig, m, sc, dirt)
		})
	case *sqldb.Delete:
		return run(s.Table, func(m *tableMeta, sc lockScope, dirt *PartitionSet) (*sqldb.Result, *Record, error) {
			return db.reExecWrite(cs, params, t, st, orig, m, sc, dirt)
		})
	default:
		// Reads re-execute at their original time; DDL during repair
		// replays as-is in the shared schema space.
		m, sc, unlock, err := db.lockFor(stmt, params)
		if err != nil {
			return nil, nil, err
		}
		defer unlock()
		return db.execAt(cs, params, t, st.next, orig, m, sc)
	}
}

func (db *DB) reExecInsert(cs *sqldb.CachedStmt, params []sqldb.Value, t int64, st repairState, orig *Record, m *tableMeta, sc lockScope, dirt *PartitionSet) (*sqldb.Result, *Record, error) {
	db.markDirtyScope(m, sc)
	if orig != nil {
		for _, id := range orig.WriteRowIDs {
			ps, err := db.rollbackRowLocked(m, id, t, st, sc)
			if err != nil {
				return nil, nil, err
			}
			dirt.AddAll(ps)
		}
	}
	res, rec, err := db.execAt(cs, params, t, st.next, orig, m, sc)
	if err != nil && rec == nil {
		return nil, nil, err
	}
	if rec != nil {
		set := NewPartitionSet()
		set.AddAll(rec.WritePartitions)
		set.AddAll(dirt.Slice())
		rec.WritePartitions = set.Slice()
	}
	return res, rec, err
}

// reExecWrite implements two-phase re-execution for UPDATE and DELETE.
func (db *DB) reExecWrite(cs *sqldb.CachedStmt, params []sqldb.Value, t int64, st repairState, orig *Record, m *tableMeta, sc lockScope, dirt *PartitionSet) (*sqldb.Result, *Record, error) {
	db.markDirtyScope(m, sc) // phases B/C mutate even when the final exec fails
	next := st.next

	// Phase A: find the rows the new WHERE clause matches at time t in the
	// repair generation, through the statement's capture read.
	a := db.rewriteFor(m, cs)
	ext, err := a.bind(params, t, next, nil)
	if err != nil {
		return nil, nil, err
	}
	matches, err := db.raw.ExecCached(a.read, ext)
	if err != nil {
		return nil, nil, err
	}

	// Phase B: roll back original ∪ new row IDs to just before t.
	seen := make(map[string]bool)
	var all []sqldb.Value
	if orig != nil {
		for _, id := range orig.WriteRowIDs {
			if !seen[id.Key()] {
				seen[id.Key()] = true
				all = append(all, id)
			}
		}
	}
	for _, pr := range db.decodePhysical(m, matches) {
		if !seen[pr.rowID.Key()] {
			seen[pr.rowID.Key()] = true
			all = append(all, pr.rowID)
		}
	}
	for _, id := range all {
		ps, err := db.rollbackRowLocked(m, id, t, st, sc)
		if err != nil {
			return nil, nil, err
		}
		dirt.AddAll(ps)
	}

	// Phase C: execute the write at t in the repair generation, preserving
	// any still-shared matched rows for the current generation first.
	if err := db.preserveSharedMatches(m, a, ext, next); err != nil {
		return nil, nil, err
	}
	res, rec, err := db.execAt(cs, params, t, next, orig, m, sc)
	if err != nil && rec == nil {
		return nil, nil, err
	}
	if rec != nil {
		set := NewPartitionSet()
		set.AddAll(rec.WritePartitions)
		set.AddAll(dirt.Slice())
		rec.WritePartitions = set.Slice()
	}
	return res, rec, err
}

// preserveSharedMatches implements §4.4: before a repair-generation write
// touches rows still shared with the current generation, each such row is
// demoted and a next-generation copy takes its place. ext binds a's
// capture read at the write's time in generation next.
func (db *DB) preserveSharedMatches(m *tableMeta, a *rewrite, ext []sqldb.Value, next int64) error {
	res, err := db.raw.ExecCached(a.read, ext)
	if err != nil {
		return err
	}
	for _, pr := range db.decodePhysical(m, res) {
		if pr.sGen >= next {
			continue // already private to the next generation
		}
		if err := db.demote(m, pr); err != nil {
			return err
		}
		if err := db.insertCopy(m, pr, pr.end, next, Infinity); err != nil {
			return err
		}
	}
	return nil
}

// GC discards row versions that ended before the horizon, in sync with the
// action history graph's garbage collection (§4.2). Rollback to a time at
// or before the horizon becomes impossible afterwards, and partition-index
// entries older than the horizon are pruned. GC is refused while a repair
// is in progress.
func (db *DB) GC(beforeTime int64) error {
	metas := db.lockAll()
	defer db.unlockAll(metas)
	if db.inRepair {
		return fmt.Errorf("ttdb: GC during repair")
	}
	cur := db.currentGen.Load()
	db.markAllDirty() // GC rewrites every table's physical row set
	for _, m := range metas {
		if _, err := db.raw.ExecCached(db.stmtsFor(m).gc, []sqldb.Value{sqldb.Int(beforeTime), sqldb.Int(cur)}); err != nil {
			return err
		}
		m.pruneIndexBefore(beforeTime)
	}
	if beforeTime > db.gcBefore {
		db.gcBefore = beforeTime
	}
	if db.obs != nil {
		db.obs.Collected(beforeTime)
	}
	return nil
}
