package ttdb

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"warp/internal/obs"
	"warp/internal/sqldb"
	"warp/internal/vclock"
)

// agreeIndexScan compares an indexed equality lookup with a scan-only
// rewrite of the same predicate on the raw engine: the page_id index
// must agree with the table after every maintenance event.
func agreeIndexScan(t *testing.T, db *DB, v int64, want ...string) {
	t.Helper()
	idx, _ := mustExec(t, db, "SELECT content FROM pages WHERE page_id = ?", sqldb.Int(v))
	scan, _ := mustExec(t, db, "SELECT content FROM pages WHERE NOT (page_id != ?)", sqldb.Int(v))
	render := func(r *sqldb.Result) []string {
		var out []string
		for _, row := range r.Rows {
			out = append(out, row[0].AsText())
		}
		return out
	}
	gi, gs := render(idx), render(scan)
	if fmt.Sprint(gi) != fmt.Sprint(gs) {
		t.Fatalf("index sees %v, scan sees %v", gi, gs)
	}
	if fmt.Sprint(gi) != fmt.Sprint(want) {
		t.Fatalf("page %d: got %v, want %v", v, gi, want)
	}
}

// agreeOrderedScan compares a range + ORDER BY query served by the
// ordered index with a rewrite the planner cannot index (a NOT-wrapped
// bound and an ORDER BY expression force the scan-and-sort path): both
// must see the same rows in the same order after every maintenance
// event, including repair's slot reuse.
func agreeOrderedScan(t *testing.T, db *DB, lo int64, want ...string) {
	t.Helper()
	idx, _ := mustExec(t, db, "SELECT content FROM pages WHERE page_id >= ? ORDER BY page_id", sqldb.Int(lo))
	scan, _ := mustExec(t, db, "SELECT content FROM pages WHERE NOT (page_id < ?) ORDER BY page_id + 0", sqldb.Int(lo))
	render := func(r *sqldb.Result) []string {
		var out []string
		for _, row := range r.Rows {
			out = append(out, row[0].AsText())
		}
		return out
	}
	gi, gs := render(idx), render(scan)
	if fmt.Sprint(gi) != fmt.Sprint(gs) {
		t.Fatalf("ordered index sees %v, scan-and-sort sees %v", gi, gs)
	}
	if fmt.Sprint(gi) != fmt.Sprint(want) {
		t.Fatalf("range from %d: got %v, want %v", lo, gi, want)
	}
}

// TestIndexAgreesAfterRollbackReinsert: repair rollback demotes and
// deletes physical versions and revival re-inserts copies into fresh
// engine slots; the row-ID hash index must track every step, including
// the generation-switch purge that removes mid-table slots.
func TestIndexAgreesAfterRollbackReinsert(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	_, recV1 := mustExec(t, db, "UPDATE pages SET content = 'v1' WHERE page_id = 1")
	mustExec(t, db, "UPDATE pages SET content = 'v2' WHERE page_id = 1")
	mustExec(t, db, "DELETE FROM pages WHERE page_id = 2")

	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	// Roll page 1 back to just after v1: versions from v2 on vanish from
	// the next generation and the v1 version revives via demote +
	// insertCopy (a fresh slot).
	if _, err := db.RollbackRow("pages", sqldb.Int(1), recV1.Time+1); err != nil {
		t.Fatal(err)
	}
	// Re-execute an insert during repair so the purge later removes its
	// rolled-back sibling versions from the middle of the table.
	if _, _, err := db.ReExec("INSERT INTO pages (page_id, title, editor, content) VALUES (4, 'New', 12, 'fresh')", nil, db.Clock().Now(), nil); err != nil {
		t.Fatal(err)
	}
	if err := db.FinishRepair(); err != nil {
		t.Fatal(err)
	}

	agreeIndexScan(t, db, 1, "v1")
	agreeIndexScan(t, db, 2)
	agreeIndexScan(t, db, 3, "docs")
	agreeIndexScan(t, db, 4, "fresh")
	agreeOrderedScan(t, db, 1, "v1", "docs", "fresh")

	// Post-repair writes keep the index in step with reused row IDs.
	mustExec(t, db, "INSERT INTO pages (page_id, title, editor, content) VALUES (2, 'Sandbox', 11, 'again')")
	agreeIndexScan(t, db, 2, "again")
	agreeOrderedScan(t, db, 2, "again", "docs", "fresh")
	mustExec(t, db, "UPDATE pages SET content = 'v3' WHERE page_id = 1")
	agreeIndexScan(t, db, 1, "v3")
	agreeOrderedScan(t, db, 1, "v3", "again", "docs", "fresh")
}

// TestCachedExecAcrossGenerationSwitch: the statement cache must stay
// semantically invisible across BeginRepair / FinishRepair / AbortRepair
// — the same cached handles keep answering with the right generation's
// rows, and the canonical SQL recorded is byte-identical to the
// uncached rendering.
func TestCachedExecAcrossGenerationSwitch(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	sel := "SELECT content FROM pages WHERE page_id = 1"

	res, rec := mustExec(t, db, sel)
	if got := res.FirstValue().AsText(); got != "welcome" {
		t.Fatalf("content = %q", got)
	}
	stmt, err := sqldb.Parse(sel)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SQL != stmt.String() {
		t.Fatalf("cached canonical %q != direct rendering %q", rec.SQL, stmt.String())
	}

	// Repair rewrites page 1 in the next generation; the cached handle
	// must keep reading the *current* generation until the switch.
	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ReExec("UPDATE pages SET content = 'repaired' WHERE page_id = 1", nil, db.Clock().Now(), nil); err != nil {
		t.Fatal(err)
	}
	res, _ = mustExec(t, db, sel)
	if got := res.FirstValue().AsText(); got != "welcome" {
		t.Fatalf("pre-switch cached read sees %q, want welcome", got)
	}
	if err := db.FinishRepair(); err != nil {
		t.Fatal(err)
	}
	res, _ = mustExec(t, db, sel)
	if got := res.FirstValue().AsText(); got != "repaired" {
		t.Fatalf("post-switch cached read sees %q, want repaired", got)
	}

	// And across an aborted repair the cached handle must not leak the
	// discarded generation.
	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ReExec("UPDATE pages SET content = 'discarded' WHERE page_id = 1", nil, db.Clock().Now(), nil); err != nil {
		t.Fatal(err)
	}
	if err := db.AbortRepair(); err != nil {
		t.Fatal(err)
	}
	res, _ = mustExec(t, db, sel)
	if got := res.FirstValue().AsText(); got != "repaired" {
		t.Fatalf("post-abort cached read sees %q, want repaired", got)
	}
}

// TestCachedWriteAugmentation: UPDATE and DELETE build one parameterized
// augmentation per DDL epoch — repeated writes through the statement
// cache keep hitting the same raw-engine handles, DDL rebuilds them (the
// phase-1 capture column set depends on the table's columns), and the
// cached path leaves the expected versions behind.
func TestCachedWriteAugmentation(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)

	upd := "UPDATE pages SET content = ? WHERE page_id = ?"
	mustExec(t, db, upd, sqldb.Text("a"), sqldb.Int(1))
	cs, err := db.Prepare(upd)
	if err != nil {
		t.Fatal(err)
	}
	a1, ok := cs.Aux().(*rewrite)
	if !ok {
		t.Fatalf("update aux = %T, want *rewrite", cs.Aux())
	}
	mustExec(t, db, upd, sqldb.Text("b"), sqldb.Int(1))
	if a2 := cs.Aux().(*rewrite); a2 != a1 {
		t.Fatal("update augmentation rebuilt without a DDL epoch change")
	}
	res, _ := mustExec(t, db, "SELECT content FROM pages WHERE page_id = 1")
	if got := res.FirstValue().AsText(); got != "b" {
		t.Fatalf("content = %q, want b", got)
	}
	// Both cached updates must have gone through the full three phases:
	// original version plus one closed historical version per update.
	raw, err := db.Raw().Exec("SELECT content FROM pages WHERE page_id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if raw.NumRows() != 3 {
		t.Fatalf("physical versions = %d, want 3", raw.NumRows())
	}

	// DDL moves the epoch: the cached handles must rebuild so the new
	// column participates in the phase-1 capture.
	mustExec(t, db, "ALTER TABLE pages ADD COLUMN views INTEGER")
	mustExec(t, db, upd, sqldb.Text("c"), sqldb.Int(1))
	if a3 := cs.Aux().(*rewrite); a3 == a1 {
		t.Fatal("update augmentation survived a DDL epoch change")
	}

	del := "DELETE FROM pages WHERE page_id = ?"
	mustExec(t, db, del, sqldb.Int(2))
	dcs, err := db.Prepare(del)
	if err != nil {
		t.Fatal(err)
	}
	d1, ok := dcs.Aux().(*rewrite)
	if !ok {
		t.Fatalf("delete aux = %T, want *rewrite", dcs.Aux())
	}
	mustExec(t, db, del, sqldb.Int(3))
	if d2 := dcs.Aux().(*rewrite); d2 != d1 {
		t.Fatal("delete augmentation rebuilt without a DDL epoch change")
	}
	res, _ = mustExec(t, db, "SELECT page_id FROM pages ORDER BY page_id")
	if res.NumRows() != 1 || res.FirstValue().AsInt() != 1 {
		t.Fatalf("post-delete visible rows = %v", res.Rows)
	}
	// Deletes close intervals, they do not remove versions.
	raw, err = db.Raw().Exec("SELECT page_id FROM pages WHERE page_id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if raw.NumRows() != 1 {
		t.Fatalf("deleted row's physical versions = %d, want 1", raw.NumRows())
	}
}

// TestExplainThroughAugmentation: the rewriting layer's Explain shows
// the plans the augmented statements execute with — application
// predicates keep riding the row-ID/partition indexes (equality, range,
// and index-served ORDER BY) after the visibility conjuncts attach.
func TestExplainThroughAugmentation(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	cases := []struct{ src, want string }{
		{"SELECT content FROM pages WHERE page_id = ?",
			"select(pages) scan=index-eq(page_id)"},
		{"SELECT content FROM pages WHERE page_id >= ? ORDER BY page_id",
			"select(pages) scan=index-range(page_id lo..+inf) order=index(page_id)"},
		{"SELECT content FROM pages ORDER BY title DESC",
			"select(pages) scan=full order=index-desc(title)"},
		{"UPDATE pages SET content = 'x' WHERE page_id = 1",
			"select(pages) scan=index-eq(page_id); update(pages) scan=index-eq(page_id)"},
		{"DELETE FROM pages WHERE page_id = 1",
			"update(pages) scan=index-eq(page_id)"},
	}
	for _, c := range cases {
		got, err := db.Explain(c.src)
		if err != nil {
			t.Fatalf("Explain(%q): %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("Explain(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

// TestCachedExecRaceWithDDLAndGC mixes cached reads and writes with
// concurrent DDL (CREATE INDEX / ALTER TABLE) and GC on the time-travel
// layer; under -race this guards the augmentation cache's epoch
// protocol end to end.
func TestCachedExecRaceWithDDLAndGC(t *testing.T) {
	db := Open(&vclock.Clock{})
	if err := db.Annotate("notes", TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE notes (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)")
	for i := 0; i < 8; i++ {
		mustExec(t, db, "INSERT INTO notes (id, owner, body) VALUES (?, ?, ?)",
			sqldb.Int(int64(i)), sqldb.Text(fmt.Sprintf("u%d", i%4)), sqldb.Text("b"))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			owner := sqldb.Text(fmt.Sprintf("u%d", g))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := db.Exec("SELECT body FROM notes WHERE owner = ?", owner); err != nil {
					t.Errorf("cached select: %v", err)
					return
				}
				if _, _, err := db.Exec("UPDATE notes SET body = ? WHERE owner = ?",
					sqldb.Text(fmt.Sprintf("b%d", i)), owner); err != nil {
					t.Errorf("cached update: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 10; i++ {
		mustExec(t, db, "CREATE INDEX IF NOT EXISTS idx_notes_body ON notes (body)")
		mustExec(t, db, fmt.Sprintf("ALTER TABLE notes ADD COLUMN extra%d INTEGER", i))
		if err := db.GC(db.Clock().Now() - 100); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestParamCountDiagnostic: every statement runs through its cached
// rewrite, whose version parameters follow the application's. Too few
// application parameters must fail with the engine's out-of-range error
// and change nothing, instead of binding the time or generation in the
// missing slots; extra parameters are ignored, as the engine ignores
// them.
func TestParamCountDiagnostic(t *testing.T) {
	cases := []struct {
		name, src string
		params    []sqldb.Value
	}{
		{"select", "SELECT content FROM pages WHERE page_id = ? AND title = ?",
			[]sqldb.Value{sqldb.Int(1), sqldb.Text("Main")}},
		{"insert", "INSERT INTO pages (page_id, title, editor, content) VALUES (?, ?, ?, ?)",
			[]sqldb.Value{sqldb.Int(9), sqldb.Text("New"), sqldb.Int(12), sqldb.Text("fresh")}},
		{"update", "UPDATE pages SET content = ? WHERE page_id = ?",
			[]sqldb.Value{sqldb.Text("edited"), sqldb.Int(2)}},
		{"delete", "DELETE FROM pages WHERE page_id = ? AND editor = ?",
			[]sqldb.Value{sqldb.Int(3), sqldb.Int(10)}},
	}
	for _, c := range cases {
		for _, mode := range []string{"Exec", "ReExec"} {
			t.Run(c.name+"/"+mode, func(t *testing.T) {
				// run executes the case on a fresh database: first every
				// too-short parameter list, each of which must be refused
				// without a trace, then params.
				run := func(params []sqldb.Value) (*sqldb.Result, *Record, string) {
					db := newDB(t)
					seedPages(t, db)
					exec := func(p []sqldb.Value) (*sqldb.Result, *Record, error) {
						return db.Exec(c.src, p...)
					}
					if mode == "ReExec" {
						if _, err := db.BeginRepair(); err != nil {
							t.Fatal(err)
						}
						at := db.Clock().Now() + 1
						exec = func(p []sqldb.Value) (*sqldb.Result, *Record, error) {
							return db.ReExec(c.src, p, at, nil)
						}
					}
					before := dump(t, db)
					for n := 0; n < len(c.params); n++ {
						_, _, err := exec(c.params[:n])
						want := fmt.Sprintf("parameter %d out of range (%d supplied)", n+1, n)
						if err == nil || !strings.Contains(err.Error(), want) {
							t.Fatalf("%d of %d parameters: err = %v, want %q", n, len(c.params), err, want)
						}
					}
					if got := dump(t, db); got != before {
						t.Fatalf("refused statements changed state\n--- before ---\n%s--- after ---\n%s", before, got)
					}
					res, rec, err := exec(params)
					if err != nil {
						t.Fatalf("exec with %d parameters: %v", len(params), err)
					}
					return res, rec, dump(t, db)
				}
				res, rec, state := run(c.params)
				extra := append(append([]sqldb.Value{}, c.params...), sqldb.Text("ignored"))
				xres, xrec, xstate := run(extra)
				if res.Fingerprint() != xres.Fingerprint() || state != xstate {
					t.Fatalf("an extra parameter changed the outcome:\n%v / %v\n--- exact ---\n%s--- extra ---\n%s",
						res.Rows, xres.Rows, state, xstate)
				}
				if rec.SQL != xrec.SQL || len(xrec.Params) != len(extra) {
					t.Fatalf("record = %q %v, want %q with the caller's %d parameters", xrec.SQL, xrec.Params, rec.SQL, len(extra))
				}
			})
		}
	}
}

// TestPlanCountersMatchExecs: every engine execution runs a cached
// handle, so the plan counters account for every DML execution the exec
// latency histograms observe — application statements and ttdb's own
// bookkeeping (history inserts, rollback, purges, GC) alike — and once
// each form is planned, repeating the work compiles nothing.
func TestPlanCountersMatchExecs(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	db := newDB(t)
	seedPages(t, db)
	observed := func() uint64 {
		var n uint64
		for _, h := range obs.Default.Snapshot().Histograms {
			if strings.HasPrefix(h.Name, "warp_sqldb_exec_seconds") {
				n += h.Hist.Count
			}
		}
		return n
	}
	round := func(i int) {
		var first *Record
		for j := 0; j < 5; j++ {
			_, rec := mustExec(t, db, "UPDATE pages SET content = ? WHERE page_id = ?",
				sqldb.Text(fmt.Sprintf("edit %d.%d", i, j)), sqldb.Int(1))
			if first == nil {
				first = rec
			}
			mustExec(t, db, "SELECT content FROM pages WHERE page_id = ?", sqldb.Int(1))
		}
		mustExec(t, db, "INSERT INTO pages (page_id, title, editor, content) VALUES (?, ?, ?, ?)",
			sqldb.Int(int64(100+i)), sqldb.Text(fmt.Sprintf("P%d", i)), sqldb.Int(10), sqldb.Text("x"))
		if _, err := db.BeginRepair(); err != nil {
			t.Fatal(err)
		}
		if _, err := db.RollbackRows("pages", []sqldb.Value{sqldb.Int(1)}, first.Time+1); err != nil {
			t.Fatal(err)
		}
		if err := db.FinishRepair(); err != nil {
			t.Fatal(err)
		}
		if err := db.GC(db.Clock().Now()); err != nil {
			t.Fatal(err)
		}
	}

	s0, o0 := db.ExecStats(), observed()
	round(0)
	s1, o1 := db.ExecStats(), observed()
	d := s1.Sub(s0)
	if d.PlanHits+d.PlanMisses != o1-o0 || o1 == o0 {
		t.Fatalf("plan hits+misses = %d+%d, exec observations = %d", d.PlanHits, d.PlanMisses, o1-o0)
	}
	round(1)
	s2, o2 := db.ExecStats(), observed()
	d = s2.Sub(s1)
	if d.PlanHits+d.PlanMisses != o2-o1 {
		t.Fatalf("repeat: plan hits+misses = %d+%d, exec observations = %d", d.PlanHits, d.PlanMisses, o2-o1)
	}
	if d.PlanMisses != 0 {
		t.Fatalf("repeat compiled %d plans, want 0", d.PlanMisses)
	}
}
