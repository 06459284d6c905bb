package ttdb

import (
	"warp/internal/sqldb"
)

// tableStmts is one table's closed set of bookkeeping statements: every
// physical version read, version open or close, purge and probe ttdb
// issues on its own behalf, as parameterized handles the engine plans
// once per DDL epoch (fastpath.go). Physical reads return, and insertRow
// takes, the columns of physicalColumns in order. A version is named by
// the five target parameters of targetParams: row ID, start_time,
// end_time, start_gen, end_gen.
type tableStmts struct {
	epoch uint64

	// versions reads every version of row ?0 visible in generation ?1.
	versions *sqldb.CachedStmt
	// insertRow inserts one physical row, one parameter per column: the
	// history rows of UPDATE phase 3, repair's version copies, and
	// snapshot restore.
	insertRow *sqldb.CachedStmt
	// demote closes the target version's generation range at ?5.
	demote *sqldb.CachedStmt
	// revive reopens the target version's time interval.
	revive *sqldb.CachedStmt
	// deleteVersion removes the target version outright.
	deleteVersion *sqldb.CachedStmt

	// purgeOld removes versions ending before generation ?0
	// (FinishRepair); purgeNew removes versions starting at or after
	// generation ?0 and unDemote reopens versions demoted to generation ?0
	// (AbortRepair); gc removes versions ending before time ?0 or before
	// generation ?1.
	purgeOld, purgeNew, unDemote, gc *sqldb.CachedStmt

	// lockKey reads the lock-column value of every version of row ?0; nil
	// for tables without a lock column.
	lockKey *sqldb.CachedStmt

	// colliders probe, per uniqueness constraint, the live versions in
	// generation ?k whose application key columns equal ?0..?k-1.
	colliders []colliderProbe
}

// colliderProbe is the revival-collision probe of one uniqueness
// constraint over its application columns.
type colliderProbe struct {
	cols []string
	stmt *sqldb.CachedStmt
}

// stmtsFor returns m's bookkeeping statements, rebuilding them when the
// engine's DDL epoch moved. Concurrent rebuilds are benign.
func (db *DB) stmtsFor(m *tableMeta) *tableStmts {
	epoch := db.raw.Epoch()
	if st := m.stmts.Load(); st != nil && st.epoch == epoch {
		return st
	}
	st := db.buildTableStmts(m, epoch)
	m.stmts.Store(st)
	return st
}

func (db *DB) buildTableStmts(m *tableMeta, epoch uint64) *tableStmts {
	p := func(i int) sqldb.Expr { return &sqldb.Param{Index: i} }
	cmp := func(op sqldb.BinOp, col string, e sqldb.Expr) sqldb.Expr {
		return &sqldb.BinaryExpr{Op: op, Left: sqldb.Col(col), Right: e}
	}
	inf := sqldb.Lit(sqldb.Int(Infinity))
	// inGen is the visible-in-generation-?i predicate.
	inGen := func(i int) sqldb.Expr {
		return sqldb.And(cmp(sqldb.OpLe, ColStartGen, p(i)), cmp(sqldb.OpGe, ColEndGen, p(i)))
	}
	target := func() sqldb.Expr {
		return sqldb.And(cmp(sqldb.OpEq, m.rowIDCol, p(0)),
			cmp(sqldb.OpEq, ColStartTime, p(1)), cmp(sqldb.OpEq, ColEndTime, p(2)),
			cmp(sqldb.OpEq, ColStartGen, p(3)), cmp(sqldb.OpEq, ColEndGen, p(4)))
	}
	update := func(col string, v sqldb.Expr, where sqldb.Expr) *sqldb.CachedStmt {
		return sqldb.NewCachedStmt(&sqldb.Update{Table: m.name, Set: []sqldb.Assignment{{Column: col, Expr: v}}, Where: where})
	}
	del := func(where sqldb.Expr) *sqldb.CachedStmt {
		return sqldb.NewCachedStmt(&sqldb.Delete{Table: m.name, Where: where})
	}

	cols := db.physicalColumns(m)
	row := make([]sqldb.Expr, len(cols))
	for i := range row {
		row[i] = p(i)
	}
	st := &tableStmts{
		epoch:         epoch,
		versions:      sqldb.NewCachedStmt(db.physicalSelect(m, sqldb.And(cmp(sqldb.OpEq, m.rowIDCol, p(0)), inGen(1)))),
		insertRow:     sqldb.NewCachedStmt(&sqldb.Insert{Table: m.name, Columns: cols, Rows: [][]sqldb.Expr{row}}),
		demote:        update(ColEndGen, p(5), target()),
		revive:        update(ColEndTime, inf, target()),
		deleteVersion: del(target()),
		purgeOld:      del(cmp(sqldb.OpLt, ColEndGen, p(0))),
		purgeNew:      del(cmp(sqldb.OpGe, ColStartGen, p(0))),
		unDemote:      update(ColEndGen, inf, cmp(sqldb.OpEq, ColEndGen, p(0))),
		gc:            del(&sqldb.BinaryExpr{Op: sqldb.OpOr, Left: cmp(sqldb.OpLt, ColEndTime, p(0)), Right: cmp(sqldb.OpLt, ColEndGen, p(1))}),
	}
	if m.lockCol != "" {
		st.lockKey = sqldb.NewCachedStmt(&sqldb.Select{Items: []sqldb.SelectItem{{Expr: sqldb.Col(m.lockCol)}}, Table: m.name, Where: cmp(sqldb.OpEq, m.rowIDCol, p(0))})
	}
	_, uniques, _ := db.raw.Schema(m.name)
	for _, u := range uniques {
		// Probe over the constraint's application columns (createTable
		// appended the version end columns). A constraint over a version
		// start column cannot identify a live collider.
		var keyCols []string
		var conds []sqldb.Expr
		usable := true
		for _, col := range u.Columns {
			switch col {
			case ColEndTime, ColEndGen:
			case ColStartTime, ColStartGen:
				usable = false
			default:
				conds = append(conds, cmp(sqldb.OpEq, col, p(len(keyCols))))
				keyCols = append(keyCols, col)
			}
		}
		if !usable || len(keyCols) == 0 {
			continue
		}
		where := sqldb.And(append(conds, cmp(sqldb.OpEq, ColEndTime, inf), inGen(len(keyCols)))...)
		st.colliders = append(st.colliders, colliderProbe{cols: keyCols, stmt: sqldb.NewCachedStmt(db.physicalSelect(m, where))})
	}
	return st
}

// targetParams names one physical version for the target handles.
func targetParams(pr physicalRow, extra ...sqldb.Value) []sqldb.Value {
	return append([]sqldb.Value{pr.rowID, sqldb.Int(pr.start), sqldb.Int(pr.end), sqldb.Int(pr.sGen), sqldb.Int(pr.eGen)}, extra...)
}

// readVersions returns every version of a row visible in generation gen,
// in scan order.
func (db *DB) readVersions(m *tableMeta, rowID sqldb.Value, gen int64) ([]physicalRow, error) {
	res, err := db.raw.ExecCached(db.stmtsFor(m).versions, []sqldb.Value{rowID, sqldb.Int(gen)})
	if err != nil {
		return nil, err
	}
	return db.decodePhysical(m, res), nil
}
