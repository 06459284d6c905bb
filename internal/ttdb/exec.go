package ttdb

import (
	"fmt"

	"warp/internal/sqldb"
)

// Exec parses and executes one query under normal execution: at the
// current logical time, in the current generation, with full versioning
// and dependency recording. The returned Record is what the caller (the
// application repair manager) stores in the action history graph.
// Parsing goes through the statement cache, so a repeated query form is
// parsed once and its canonical SQL string (Record.SQL) is built once.
func (db *DB) Exec(src string, params ...sqldb.Value) (*sqldb.Result, *Record, error) {
	cs, err := db.stmts.Get(src)
	if err != nil {
		return nil, nil, err
	}
	return db.execStmt(cs, params)
}

// execStmt is the normal-execution path. Statements on disjoint partition
// scopes — different tables, or disjoint lock-column keys of one table —
// run in parallel; statements on overlapping scopes serialize, with the
// timestamp assigned inside the scope so version intervals of any one
// partition never interleave.
func (db *DB) execStmt(cs *sqldb.CachedStmt, params []sqldb.Value) (*sqldb.Result, *Record, error) {
	stmt := cs.Stmt
	if gate := db.writeGate.Load(); gate != nil {
		if _, isRead := stmt.(*sqldb.Select); !isRead {
			if err := (*gate)(); err != nil {
				return nil, nil, err
			}
		}
	}
	m, sc, unlock, err := db.lockFor(stmt, params)
	if err != nil {
		return nil, nil, err
	}
	defer unlock()
	t := db.clock.Tick()
	res, rec, err := db.execAt(cs, params, t, db.currentGen.Load(), nil, m, sc)
	// Emit the committed mutation while the statement's scope is still
	// held, so the observer sees per-partition events in execution order.
	// Reads are not emitted (they change nothing), and neither are failed
	// writes (their only trace is the record the caller logs).
	if err == nil && rec != nil && rec.Kind != KindRead && db.obs != nil {
		db.obs.RecordApplied(rec)
	}
	return res, rec, err
}

// lockFor acquires the locks a statement needs: every table's whole
// scope for DDL, the target table's derived partition scope for DML,
// nothing for table-less selects. It returns the target table's meta
// (nil for DDL / table-less statements), the scope held, and the
// release function.
func (db *DB) lockFor(stmt sqldb.Statement, params []sqldb.Value) (*tableMeta, lockScope, func(), error) {
	var table string
	switch s := stmt.(type) {
	case *sqldb.CreateTable, *sqldb.CreateIndex, *sqldb.AlterTableAdd, *sqldb.DropTable:
		metas := db.lockAll()
		return nil, wholeScope(), func() { db.unlockAll(metas) }, nil
	case *sqldb.Select:
		if s.Table == "" {
			return nil, lockScope{}, func() {}, nil
		}
		table = s.Table
	case *sqldb.Insert:
		table = s.Table
	case *sqldb.Update:
		table = s.Table
	case *sqldb.Delete:
		table = s.Table
	default:
		return nil, lockScope{}, nil, fmt.Errorf("ttdb: unsupported statement %T", stmt)
	}
	m, err := db.meta(table)
	if err != nil {
		return nil, lockScope{}, nil, err
	}
	sc := m.scopeForStmt(stmt, params)
	if db.obs != nil && isWriteStmt(stmt) {
		// A durable deployment logs every normal-execution write as a WAL
		// record, and replay rebuilds state by re-executing those records
		// serially in log order — so per-table record order must equal
		// execution order, which only holds if logged writes on one table
		// do not interleave. Logged writes therefore take the whole-table
		// scope; reads keep partition scopes, and repair-generation
		// re-execution (made durable by its commit checkpoint, not by
		// records) keeps partition scopes too — the concurrency the
		// partition lock manager exists for.
		sc = wholeScope()
	}
	sc = db.maybeCoalesce(m, m.effectiveScope(sc))
	m.locks.lock(sc)
	return m, sc, func() { m.locks.unlock(sc) }, nil
}

// isWriteStmt reports whether a statement mutates table contents.
func isWriteStmt(stmt sqldb.Statement) bool {
	switch stmt.(type) {
	case *sqldb.Insert, *sqldb.Update, *sqldb.Delete:
		return true
	}
	return false
}

// scopeForStmt derives a statement's partition lock scope from static
// analysis. The fallback for anything the analysis cannot bound — no
// usable conjunct over the lock column, a non-constant value, a SET of
// the lock column itself — is the whole table, the same conservative
// rule the paper's partition extraction uses (§4.1).
func (m *tableMeta) scopeForStmt(stmt sqldb.Statement, params []sqldb.Value) lockScope {
	if m.lockCol == "" {
		return wholeScope()
	}
	switch s := stmt.(type) {
	case *sqldb.Select:
		return m.scopeFromWhere(s.Where, params)
	case *sqldb.Insert:
		cols := s.Columns
		if len(cols) == 0 {
			cols = m.userCols
		}
		var keys []string
		for _, row := range s.Rows {
			found := false
			for i, c := range cols {
				if c != m.lockCol || i >= len(row) {
					continue
				}
				if v, ok := constValueOf(row[i], params); ok {
					keys = append(keys, v.Key())
					found = true
				}
			}
			if !found {
				return wholeScope()
			}
		}
		return keyScope(keys)
	case *sqldb.Update:
		for _, a := range s.Set {
			if a.Column == m.lockCol {
				// Rewriting the lock column moves rows across partitions;
				// only the whole-table scope covers both sides.
				return wholeScope()
			}
		}
		return m.scopeFromWhere(s.Where, params)
	case *sqldb.Delete:
		return m.scopeFromWhere(s.Where, params)
	}
	return wholeScope()
}

// scopeFromWhere bounds a WHERE clause to lock-column keys: top-level
// AND-conjuncts of the form `lockCol = const` or `lockCol IN (consts)`.
// Anything else is unbounded.
func (m *tableMeta) scopeFromWhere(where sqldb.Expr, params []sqldb.Value) lockScope {
	if where == nil {
		return wholeScope()
	}
	var keys []string
	bounded := false
	collectConjuncts(where, func(e sqldb.Expr) {
		switch e := e.(type) {
		case *sqldb.BinaryExpr:
			if e.Op != sqldb.OpEq {
				return
			}
			col, v, ok := constEqParts(e, params)
			if ok && col == m.lockCol {
				keys = append(keys, v.Key())
				bounded = true
			}
		case *sqldb.InExpr:
			if e.Not {
				return
			}
			col, ok := e.Expr.(*sqldb.ColumnRef)
			if !ok || col.Name != m.lockCol {
				return
			}
			var inKeys []string
			for _, item := range e.List {
				v, ok := constValueOf(item, params)
				if !ok {
					return // non-constant member: cannot bound
				}
				inKeys = append(inKeys, v.Key())
			}
			keys = append(keys, inKeys...)
			bounded = true
		}
	})
	if !bounded {
		return wholeScope()
	}
	return keyScope(keys)
}

// markDirtyStmt marks the shards a statement can touch, derived from
// the statement's own partition analysis. This is deliberately
// independent of the lock scope held: a logged write holds the whole
// table for WAL ordering (lockFor) but still dirties only its own
// partitions' shards, so checkpoints stay proportional to the write
// set.
func (db *DB) markDirtyStmt(m *tableMeta, stmt sqldb.Statement, params []sqldb.Value) {
	db.markDirtyScope(m, m.effectiveScope(m.scopeForStmt(stmt, params)))
}

// execAt dispatches a statement at an explicit time and generation. The
// caller holds the locks lockFor would acquire; m is the target table's
// meta for DML statements and sc the scope held. cs is the statement's
// cached handle: its canonical SQL becomes Record.SQL, and DML executes
// through its cached rewrite (fastpath.go). reuse carries the original
// record during repair re-execution, or nil. Every non-read case marks
// its statement's shards dirty for the incremental checkpointer — before
// executing, so even a write that fails partway can only over-mark,
// never leave a mutated shard clean.
func (db *DB) execAt(cs *sqldb.CachedStmt, params []sqldb.Value, t, gen int64, reuse *Record, m *tableMeta, sc lockScope) (*sqldb.Result, *Record, error) {
	rec := &Record{SQL: cs.Canonical(), Params: params, Time: t, Gen: gen}
	switch s := cs.Stmt.(type) {
	case *sqldb.CreateTable:
		rec.Kind = KindDDL
		rec.Table = s.Table
		db.markDirtyWhole(s.Table)
		if err := db.createTable(s); err != nil {
			return nil, nil, err
		}
		rec.Result = &sqldb.Result{}
		return rec.Result, rec, nil
	case *sqldb.CreateIndex, *sqldb.AlterTableAdd, *sqldb.DropTable:
		return db.execDDL(cs, params, rec)
	case *sqldb.Select:
		return db.execSelect(s, cs, params, t, gen, rec, m)
	case *sqldb.Insert:
		db.markDirtyStmt(m, s, params)
		return db.execInsert(s, db.rewriteFor(m, cs), params, t, gen, rec, reuse, m)
	case *sqldb.Update:
		db.markDirtyStmt(m, s, params)
		return db.execUpdate(s, db.rewriteFor(m, cs), params, t, gen, rec, m)
	case *sqldb.Delete:
		db.markDirtyStmt(m, s, params)
		return db.execDelete(s, db.rewriteFor(m, cs), params, t, gen, rec, m)
	default:
		return nil, nil, fmt.Errorf("ttdb: unsupported statement %T", cs.Stmt)
	}
}

// execDDL runs CREATE INDEX, ALTER TABLE ADD and DROP TABLE on the raw
// engine as-is and keeps the table registry in step.
func (db *DB) execDDL(cs *sqldb.CachedStmt, params []sqldb.Value, rec *Record) (*sqldb.Result, *Record, error) {
	rec.Kind = KindDDL
	var tm *tableMeta
	switch s := cs.Stmt.(type) {
	case *sqldb.CreateIndex:
		rec.Table = s.Table
	case *sqldb.AlterTableAdd:
		rec.Table = s.Table
		var err error
		if tm, err = db.meta(s.Table); err != nil {
			return nil, nil, err
		}
	case *sqldb.DropTable:
		rec.Table = s.Table
	}
	db.markDirtyWhole(rec.Table)
	res, err := db.raw.ExecCached(cs, params)
	if err != nil {
		return nil, nil, err
	}
	switch s := cs.Stmt.(type) {
	case *sqldb.AlterTableAdd:
		tm.userCols = append(tm.userCols, s.Column.Name)
	case *sqldb.DropTable:
		db.tablesMu.Lock()
		delete(db.tables, s.Table)
		db.tablesMu.Unlock()
	}
	rec.Result = res
	return res, rec, nil
}

// physicalColumns returns user columns plus WARP bookkeeping columns.
func (db *DB) physicalColumns(m *tableMeta) []string {
	return append(append([]string{}, m.userCols...), m.metaColumns()...)
}

// physicalSelect builds a read of full physical rows matching where, in
// scan order.
func (db *DB) physicalSelect(m *tableMeta, where sqldb.Expr) *sqldb.Select {
	cols := db.physicalColumns(m)
	items := make([]sqldb.SelectItem, len(cols))
	for i, c := range cols {
		items[i] = sqldb.SelectItem{Expr: sqldb.Col(c)}
	}
	return &sqldb.Select{Items: items, Table: m.name, Where: where}
}

func (db *DB) execSelect(s *sqldb.Select, cs *sqldb.CachedStmt, params []sqldb.Value, t, gen int64, rec *Record, m *tableMeta) (*sqldb.Result, *Record, error) {
	rec.Kind = KindRead
	if s.Table == "" {
		res, err := db.raw.ExecCached(cs, params)
		if err != nil {
			return nil, nil, err
		}
		rec.Result = res
		return res, rec, nil
	}
	rec.Table = s.Table
	a := db.rewriteFor(m, cs)
	ext, err := a.bind(params, t, gen, nil)
	if err != nil {
		return nil, nil, err
	}
	res, err := db.raw.ExecCached(a.read, ext)
	if err != nil {
		return nil, nil, err
	}
	rec.ReadPartitions = m.readPartitions(s.Where, params)
	rec.Result = res
	return res, rec, nil
}

// checkWritableColumns rejects application writes to reserved or row-ID
// columns: the paper requires row IDs to be assigned once and never
// overwritten (§4.1).
func (db *DB) checkWritableColumns(m *tableMeta, cols []string, isInsert bool) error {
	for _, c := range cols {
		switch c {
		case ColRowID, ColStartTime, ColEndTime, ColStartGen, ColEndGen:
			return fmt.Errorf("ttdb: table %s: column %s is reserved", m.name, c)
		}
		if !isInsert && c == m.rowIDCol {
			return fmt.Errorf("ttdb: table %s: row ID column %s must not be updated", m.name, c)
		}
	}
	return nil
}

func (db *DB) execInsert(s *sqldb.Insert, a *rewrite, params []sqldb.Value, t, gen int64, rec *Record, reuse *Record, m *tableMeta) (*sqldb.Result, *Record, error) {
	rec.Kind = KindInsert
	rec.Table = s.Table
	if a.err != nil {
		return nil, nil, a.err
	}
	var rowIDs []sqldb.Value
	if m.synthetic {
		// Reuse the originally assigned row IDs during repair so row
		// identity is stable across re-execution. The allocator is shared
		// by every partition of the table, so it is touched only under the
		// bookkeeping latch.
		var reuseIDs []sqldb.Value
		if reuse != nil {
			reuseIDs = reuse.WriteRowIDs
		}
		rowIDs = make([]sqldb.Value, len(s.Rows))
		m.mu.Lock()
		for i := range rowIDs {
			var rid int64
			if i < len(reuseIDs) {
				rid = reuseIDs[i].AsInt()
				// Keep the allocator ahead of every reused ID, so rows
				// inserted after a replayed or re-executed insert never
				// collide with it (recovery replays reuse all IDs).
				if rid >= m.nextRowID {
					m.nextRowID = rid + 1
				}
			} else {
				rid = m.nextRowID
				m.nextRowID++
			}
			rowIDs[i] = sqldb.Int(rid)
		}
		m.mu.Unlock()
	}
	ext, err := a.bind(params, t, gen, rowIDs)
	if err != nil {
		return nil, nil, err
	}
	nApp := len(s.Returning)
	res, err := db.raw.ExecCached(a.write, ext)
	if err != nil {
		if sqldb.IsUniqueViolation(err) {
			// A failed INSERT is still a recorded outcome: repair watches
			// for success/failure changes (§6).
			rec.ErrText = err.Error()
			rec.ReadPartitions = db.insertPartitionsFromRows(m, a.cols, s.Rows, params)
			return nil, rec, err
		}
		return nil, nil, err
	}
	db.fillWriteInfo(m, rec, res, nApp)
	// An INSERT "reads" the partitions it lands in: uniqueness success
	// depends on them (§6), so repair must re-check inserts in dirty
	// partitions.
	rec.ReadPartitions = rec.WritePartitions
	rec.Result = stripResult(res, s.Returning, nApp, res.Affected)
	return rec.Result, rec, nil
}

// insertPartitionsFromRows computes partitions for INSERT rows from the
// statement itself, used when the insert failed and no RETURNING data
// exists.
func (db *DB) insertPartitionsFromRows(m *tableMeta, cols []string, rows [][]sqldb.Expr, params []sqldb.Value) []Partition {
	set := NewPartitionSet()
	for _, row := range rows {
		byCol := make(map[string]sqldb.Value)
		for i, c := range cols {
			if i < len(row) {
				if v, ok := constValueOf(row[i], params); ok {
					byCol[c] = v
				}
			}
		}
		if len(m.partCols) == 0 {
			set.Add(WholeTable(m.name))
			continue
		}
		for col := range m.partCols {
			v, ok := byCol[col]
			if !ok {
				set.Add(WholeTable(m.name))
				continue
			}
			set.Add(Partition{Table: m.name, Column: col, Key: v.Key()})
		}
	}
	return set.Slice()
}

// fillWriteInfo extracts row IDs and partitions from a write's RETURNING
// data and indexes the version events in the per-partition index. The
// bookkeeping columns start at index nApp.
func (db *DB) fillWriteInfo(m *tableMeta, rec *Record, res *sqldb.Result, nApp int) {
	set := NewPartitionSet()
	for _, row := range res.Rows {
		rec.WriteRowIDs = append(rec.WriteRowIDs, row[nApp])
		if len(m.partCols) == 0 {
			set.Add(WholeTable(m.name))
			m.indexVersionEvent([]Partition{WholeTable(m.name)}, row[nApp], rec.Time)
			continue
		}
		var rowParts []Partition
		for i, col := range res.Columns[nApp+1:] {
			p := Partition{Table: m.name, Column: col, Key: row[nApp+1+i].Key()}
			set.Add(p)
			rowParts = append(rowParts, p)
		}
		m.indexVersionEvent(rowParts, row[nApp], rec.Time)
	}
	rec.WritePartitions = append(rec.WritePartitions, set.Slice()...)
}

// stripResult hides WARP's RETURNING additions from the application.
func stripResult(res *sqldb.Result, appReturning []string, nApp int, affected int) *sqldb.Result {
	out := &sqldb.Result{Affected: affected}
	if nApp == 0 {
		return out
	}
	out.Columns = append(out.Columns, appReturning...)
	for _, row := range res.Rows {
		out.Rows = append(out.Rows, row[:nApp])
	}
	return out
}

func (db *DB) execUpdate(s *sqldb.Update, a *rewrite, params []sqldb.Value, t, gen int64, rec *Record, m *tableMeta) (*sqldb.Result, *Record, error) {
	rec.Kind = KindUpdate
	rec.Table = s.Table
	if a.err != nil {
		return nil, nil, a.err
	}
	rec.ReadPartitions = m.readPartitions(s.Where, params)
	ext, err := a.bind(params, t, gen, nil)
	if err != nil {
		return nil, nil, err
	}

	// Phase 1: capture the old versions of every matched row. The result
	// is consumed within this call (partition recording copies values,
	// phase 3 re-inserts them), so its pooled row storage is released on
	// every exit path.
	oldRows, err := db.raw.ExecCachedOwned(a.read, ext)
	if err != nil {
		return nil, nil, err
	}
	defer sqldb.PutResult(oldRows)
	if len(oldRows.Rows) == 0 {
		rec.Result = &sqldb.Result{Affected: 0, Columns: append([]string{}, s.Returning...)}
		return rec.Result, rec, nil
	}
	db.recordOldPartitions(m, rec, oldRows)
	db.capturePreImage(m, s, rec, oldRows)

	// Phase 2: update the live versions in place, bumping start_time.
	nApp := len(s.Returning)
	res, err := db.raw.ExecCached(a.write, ext)
	if err != nil {
		if sqldb.IsUniqueViolation(err) {
			rec.ErrText = err.Error()
			return nil, rec, err
		}
		return nil, nil, err
	}
	db.fillWriteInfo(m, rec, res, nApp)

	// Phase 3: re-insert the old versions as history, closed at t.
	if err := db.insertHistorical(m, oldRows, t); err != nil {
		return nil, nil, err
	}
	rec.Result = stripResult(res, s.Returning, nApp, res.Affected)
	return rec.Result, rec, nil
}

// capturePreImage records the overwritten value of a mergeable UPDATE:
// exactly one matched row, exactly one SET column, and a text value in
// that column before the write. The pre-image is the merge base online
// repair needs to reconcile a live write with a concurrently repaired
// value; anything wider than one row/column has no well-defined base, so
// it is simply not captured and such writes queue instead of merging.
func (db *DB) capturePreImage(m *tableMeta, s *sqldb.Update, rec *Record, oldRows *sqldb.Result) {
	if len(s.Set) != 1 || len(oldRows.Rows) != 1 {
		return
	}
	for i, c := range oldRows.Columns {
		if c == s.Set[0].Column {
			if v := oldRows.Rows[0][i]; v.Kind == sqldb.KindText {
				rec.PreImage = v.Str
				rec.HasPreImage = true
			}
			return
		}
	}
}

// recordOldPartitions adds the pre-write partition values of the matched
// rows to the record's write set and indexes the events.
func (db *DB) recordOldPartitions(m *tableMeta, rec *Record, oldRows *sqldb.Result) {
	set := NewPartitionSet()
	set.AddAll(rec.WritePartitions)
	colOf := make(map[string]int, len(oldRows.Columns))
	for i, c := range oldRows.Columns {
		colOf[c] = i
	}
	for _, row := range oldRows.Rows {
		if len(m.partCols) == 0 {
			set.Add(WholeTable(m.name))
			m.indexVersionEvent([]Partition{WholeTable(m.name)}, row[colOf[m.rowIDCol]], rec.Time)
			continue
		}
		var rowParts []Partition
		for col := range m.partCols {
			p := Partition{Table: m.name, Column: col, Key: row[colOf[col]].Key()}
			set.Add(p)
			rowParts = append(rowParts, p)
		}
		m.indexVersionEvent(rowParts, row[colOf[m.rowIDCol]], rec.Time)
	}
	rec.WritePartitions = set.Slice()
}

// insertHistorical re-inserts captured physical rows, in capture order,
// as history closed at t.
func (db *DB) insertHistorical(m *tableMeta, oldRows *sqldb.Result, t int64) error {
	ins := db.stmtsFor(m).insertRow
	end := -1
	for i, c := range oldRows.Columns {
		if c == ColEndTime {
			end = i
		}
	}
	vals := make([]sqldb.Value, len(oldRows.Columns))
	for _, row := range oldRows.Rows {
		copy(vals, row)
		vals[end] = sqldb.Int(t)
		if _, err := db.raw.ExecCached(ins, vals); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) execDelete(s *sqldb.Delete, a *rewrite, params []sqldb.Value, t, gen int64, rec *Record, m *tableMeta) (*sqldb.Result, *Record, error) {
	rec.Kind = KindDelete
	rec.Table = s.Table
	rec.ReadPartitions = m.readPartitions(s.Where, params)
	ext, err := a.bind(params, t, gen, nil)
	if err != nil {
		return nil, nil, err
	}
	// Deleting is closing the version interval (§4.2): set end_time = t.
	nApp := len(s.Returning)
	res, err := db.raw.ExecCached(a.write, ext)
	if err != nil {
		return nil, nil, err
	}
	db.fillWriteInfo(m, rec, res, nApp)
	rec.Result = stripResult(res, s.Returning, nApp, res.Affected)
	return rec.Result, rec, nil
}
