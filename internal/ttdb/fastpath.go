package ttdb

// One path into the engine.
//
// Every statement ttdb runs against the raw engine is a cached,
// parameterized handle (sqldb.CachedStmt), executed through
// ExecCached/ExecCachedOwned, so the engine compiles each statement form
// once per DDL epoch and reuses the plan on every later call. No
// statement is built with per-call literal values; only constants such
// as Infinity appear as literals. There are two kinds of handle:
//
//   - an application statement carries its rewrite on the handle's Aux
//     slot (this file): the augmented form the engine executes, with the
//     visibility time and generation — and, for INSERT into a table with
//     synthetic row IDs, the assigned row IDs — read from parameters
//     appended after the application's own. Record.SQL stays the
//     original statement's canonical text and Record.Params the
//     application's parameters;
//   - ttdb's own bookkeeping (version reads, demotion, revival, purges,
//     probes, restore) runs through a closed, named set of handles per
//     table (tablestmts.go).
//
// Both are rebuilt when the raw engine's DDL epoch moves: star expansion,
// INSERT column lists and the capture column set depend on the table's
// columns, and the engine re-plans on the same signal. Concurrent
// rebuilds are benign (last writer wins; both results are equivalent).

import (
	"fmt"

	"warp/internal/sqldb"
)

// rewrite is the cached parameterized augmentation of one application
// statement. Its handles take the application's parameters first, the
// visibility time at nStatic and the generation at nStatic+1, then — for
// an INSERT into a table with synthetic row IDs — one row ID per VALUES
// row.
type rewrite struct {
	epoch   uint64
	nStatic int   // parameters the application statement expects
	err     error // static rejection: reserved column or VALUES arity
	// read is a SELECT's augmented form; for UPDATE and DELETE it is the
	// physical capture of the live matches (UPDATE phase 1, and repair's
	// phase-A and shared-match reads).
	read *sqldb.CachedStmt
	// write is an INSERT's augmented form, an UPDATE's in-place phase 2
	// with start_time bumped, or the interval-closing UPDATE a DELETE
	// executes as (end_time = t, §4.2).
	write *sqldb.CachedStmt
	// cols is an INSERT's application column list.
	cols []string
}

// rewriteFor returns the cached rewrite of an application statement on
// table m, rebuilding it when the engine's DDL epoch moved.
func (db *DB) rewriteFor(m *tableMeta, cs *sqldb.CachedStmt) *rewrite {
	epoch := db.raw.Epoch()
	if a, ok := cs.Aux().(*rewrite); ok && a.epoch == epoch {
		return a
	}
	n := sqldb.CountParams(cs.Stmt)
	a := &rewrite{epoch: epoch, nStatic: n}
	switch s := cs.Stmt.(type) {
	case *sqldb.Select:
		aug := s.Clone().(*sqldb.Select)
		expandStars(m, aug)
		aug.Where = sqldb.And(aug.Where, liveWhereParams(n))
		a.read = sqldb.NewCachedStmt(aug)
	case *sqldb.Insert:
		a.cols = s.Columns
		if len(a.cols) == 0 {
			a.cols = m.userCols
		}
		a.err = db.checkWritableColumns(m, a.cols, true)
		aug := s.Clone().(*sqldb.Insert)
		aug.Columns = append(append([]string{}, a.cols...), m.metaColumns()...)
		tp, gp := &sqldb.Param{Index: n}, &sqldb.Param{Index: n + 1}
		inf := sqldb.Lit(sqldb.Int(Infinity))
		for i, row := range aug.Rows {
			if len(row) != len(a.cols) && a.err == nil {
				a.err = fmt.Errorf("ttdb: table %s: %d values for %d columns", s.Table, len(row), len(a.cols))
			}
			if m.synthetic {
				row = append(row, &sqldb.Param{Index: n + 2 + i})
			}
			aug.Rows[i] = append(row, tp, inf, gp, inf)
		}
		aug.Returning = returningWithMeta(m, s.Returning)
		a.write = sqldb.NewCachedStmt(aug)
	case *sqldb.Update:
		setCols := make([]string, len(s.Set))
		for i, as := range s.Set {
			setCols[i] = as.Column
		}
		a.err = db.checkWritableColumns(m, setCols, false)
		a.read = sqldb.NewCachedStmt(db.physicalSelect(m, liveCloneWhere(s.Where, n)))
		upd := s.Clone().(*sqldb.Update)
		upd.Set = append(upd.Set, sqldb.Assignment{Column: ColStartTime, Expr: &sqldb.Param{Index: n}})
		upd.Where = liveCloneWhere(s.Where, n)
		upd.Returning = returningWithMeta(m, s.Returning)
		a.write = sqldb.NewCachedStmt(upd)
	case *sqldb.Delete:
		a.read = sqldb.NewCachedStmt(db.physicalSelect(m, liveCloneWhere(s.Where, n)))
		a.write = sqldb.NewCachedStmt(&sqldb.Update{
			Table:     s.Table,
			Set:       []sqldb.Assignment{{Column: ColEndTime, Expr: &sqldb.Param{Index: n}}},
			Where:     liveCloneWhere(s.Where, n),
			Returning: returningWithMeta(m, s.Returning),
		})
	}
	cs.SetAux(a)
	return a
}

// bind builds the handle parameters: the application's (extras beyond
// nStatic are ignored, as the engine ignores them), then t and gen, then
// the row IDs. Too few application parameters is the engine's
// out-of-range error, reported here because binding would otherwise
// read the appended time and generation in their place.
func (a *rewrite) bind(params []sqldb.Value, t, gen int64, rowIDs []sqldb.Value) ([]sqldb.Value, error) {
	if len(params) < a.nStatic {
		return nil, fmt.Errorf("sql: eval: parameter %d out of range (%d supplied)", len(params)+1, len(params))
	}
	ext := make([]sqldb.Value, a.nStatic+2, a.nStatic+2+len(rowIDs))
	copy(ext, params[:a.nStatic])
	ext[a.nStatic] = sqldb.Int(t)
	ext[a.nStatic+1] = sqldb.Int(gen)
	return append(ext, rowIDs...), nil
}

// liveCloneWhere conjoins a fresh clone of an application WHERE with the
// parameterized visibility predicate.
func liveCloneWhere(where sqldb.Expr, n int) sqldb.Expr {
	var w sqldb.Expr
	if where != nil {
		w = where.CloneExpr()
	}
	return sqldb.And(w, liveWhereParams(n))
}

// returningWithMeta is the application's RETURNING list plus the row-ID
// and partition columns every write path appends for fillWriteInfo.
func returningWithMeta(m *tableMeta, app []string) []string {
	ret := append(append([]string{}, app...), m.rowIDCol)
	for col := range m.partCols {
		ret = append(ret, col)
	}
	return ret
}

// expandStars replaces * select items with the application's columns so
// WARP's bookkeeping columns stay invisible. aug must be the caller's
// own clone.
func expandStars(m *tableMeta, aug *sqldb.Select) {
	var items []sqldb.SelectItem
	for _, it := range aug.Items {
		if it.Star {
			for _, c := range m.userCols {
				items = append(items, sqldb.SelectItem{Expr: sqldb.Col(c)})
			}
			continue
		}
		items = append(items, it)
	}
	aug.Items = items
}

// liveWhereParams is the predicate selecting versions visible at time t
// in generation g — start_time <= t < end_time AND start_gen <= g <=
// end_gen — with t read from parameter n and g from parameter n+1.
func liveWhereParams(n int) sqldb.Expr {
	tp := &sqldb.Param{Index: n}
	gp := &sqldb.Param{Index: n + 1}
	return sqldb.And(
		&sqldb.BinaryExpr{Op: sqldb.OpLe, Left: sqldb.Col(ColStartTime), Right: tp},
		&sqldb.BinaryExpr{Op: sqldb.OpGt, Left: sqldb.Col(ColEndTime), Right: tp},
		&sqldb.BinaryExpr{Op: sqldb.OpLe, Left: sqldb.Col(ColStartGen), Right: gp},
		&sqldb.BinaryExpr{Op: sqldb.OpGe, Left: sqldb.Col(ColEndGen), Right: gp},
	)
}
