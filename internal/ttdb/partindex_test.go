package ttdb

import (
	"fmt"
	"strings"
	"testing"

	"warp/internal/sqldb"
	"warp/internal/vclock"
)

func piExec(t *testing.T, db *DB, sql string, params ...sqldb.Value) *Record {
	t.Helper()
	_, rec, err := db.Exec(sql, params...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rec
}

func openPartDB(t *testing.T) *DB {
	t.Helper()
	db := Open(&vclock.Clock{})
	if err := db.Annotate("notes", TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		t.Fatal(err)
	}
	piExec(t, db, "CREATE TABLE notes (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)")
	return db
}

func TestParsePartition(t *testing.T) {
	cases := []struct {
		in   string
		want Partition
		ok   bool
	}{
		{"notes/*", WholeTable("notes"), true},
		{"notes/owner=s:alice", Partition{Table: "notes", Column: "owner", Key: "s:alice"}, true},
		{"notes/owner=s:a=b/c", Partition{Table: "notes", Column: "owner", Key: "s:a=b/c"}, true},
		{"nosep", Partition{}, false},
		{"/owner=s:x", Partition{}, false},
		{"notes/owner", Partition{}, false},
	}
	for _, c := range cases {
		got, ok := ParsePartition(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("ParsePartition(%q) = %+v, %v; want %+v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
	// Round trip through String.
	for _, p := range []Partition{WholeTable("t"), {Table: "t", Column: "c", Key: "s:k"}} {
		got, ok := ParsePartition(p.String())
		if !ok || got != p {
			t.Errorf("round trip %v -> %q -> %v, %v", p, p.String(), got, ok)
		}
	}
}

func TestPartitionSetOverlaps(t *testing.T) {
	mk := func(ps ...Partition) *PartitionSet {
		s := NewPartitionSet()
		s.AddAll(ps)
		return s
	}
	alice := Partition{Table: "notes", Column: "owner", Key: "s:alice"}
	bob := Partition{Table: "notes", Column: "owner", Key: "s:bob"}
	other := Partition{Table: "pages", Column: "title", Key: "s:Main"}

	if !mk(alice).Overlaps(mk(alice)) {
		t.Error("same partition must overlap")
	}
	if mk(alice).Overlaps(mk(bob)) {
		t.Error("disjoint keys must not overlap")
	}
	if mk(alice).Overlaps(mk(other)) {
		t.Error("different tables must not overlap")
	}
	if !mk(WholeTable("notes")).Overlaps(mk(bob)) || !mk(bob).Overlaps(mk(WholeTable("notes"))) {
		t.Error("whole table must overlap keyed partitions of the table")
	}
	if mk(WholeTable("notes")).Overlaps(mk(other)) {
		t.Error("whole table must not overlap other tables")
	}
	if mk(alice).Overlaps(nil) || mk(alice).Overlaps(NewPartitionSet()) {
		t.Error("empty/nil set never overlaps")
	}
}

func TestPartitionRowsSince(t *testing.T) {
	db := openPartDB(t)
	piExec(t, db, "INSERT INTO notes (id, owner, body) VALUES (1, 'alice', 'a1')")
	piExec(t, db, "INSERT INTO notes (id, owner, body) VALUES (2, 'bob', 'b1')")
	rec := piExec(t, db, "UPDATE notes SET body = 'a2' WHERE owner = 'alice'")

	alice := Partition{Table: "notes", Column: "owner", Key: sqldb.Text("alice").Key()}
	bob := Partition{Table: "notes", Column: "owner", Key: sqldb.Text("bob").Key()}

	rows, err := db.PartitionRowsSince(alice, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].AsInt() != 1 {
		t.Fatalf("alice rows = %v, want [1]", rows)
	}
	rows, _ = db.PartitionRowsSince(bob, 0)
	if len(rows) != 1 || rows[0].AsInt() != 2 {
		t.Fatalf("bob rows = %v, want [2]", rows)
	}
	// Time filtering: nothing in alice's partition after the update.
	rows, _ = db.PartitionRowsSince(alice, rec.Time+1)
	if len(rows) != 0 {
		t.Fatalf("rows after last event = %v, want none", rows)
	}
	// Whole-table query unions both partitions.
	rows, _ = db.PartitionRowsSince(WholeTable("notes"), 0)
	if len(rows) != 2 {
		t.Fatalf("whole-table rows = %v, want 2", rows)
	}
	if _, err := db.PartitionRowsSince(WholeTable("missing"), 0); err == nil {
		t.Fatal("unknown table must error")
	}
}

func TestRollbackPartition(t *testing.T) {
	db := openPartDB(t)
	piExec(t, db, "INSERT INTO notes (id, owner, body) VALUES (1, 'alice', 'clean')")
	piExec(t, db, "INSERT INTO notes (id, owner, body) VALUES (2, 'bob', 'bob-clean')")
	preAttack := db.Clock().Now()
	// The "attack": corrupt alice's note and add a second one.
	piExec(t, db, "UPDATE notes SET body = 'PWNED' WHERE id = 1")
	piExec(t, db, "INSERT INTO notes (id, owner, body) VALUES (3, 'alice', 'spam')")

	if _, err := db.RollbackPartition(WholeTable("notes"), preAttack+1); err == nil {
		t.Fatal("RollbackPartition outside repair must fail")
	}

	gen, err := db.BeginRepair()
	if err != nil {
		t.Fatal(err)
	}
	alice := Partition{Table: "notes", Column: "owner", Key: sqldb.Text("alice").Key()}
	changed, err := db.RollbackPartition(alice, preAttack+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) == 0 {
		t.Fatal("rollback should report changed partitions")
	}
	// In the repair generation alice's note is clean again and the spam
	// row is gone; bob is untouched.
	res, _, err := db.ReExec("SELECT id, body FROM notes WHERE owner = 'alice'", nil, db.Clock().Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Str != "clean" {
		t.Fatalf("repair-gen alice rows = %v, want one clean row", res.Rows)
	}
	if err := db.FinishRepair(); err != nil {
		t.Fatal(err)
	}
	if db.CurrentGen() != gen {
		t.Fatalf("gen = %d, want %d", db.CurrentGen(), gen)
	}
	res, _, err = db.Exec("SELECT body FROM notes WHERE owner = 'bob'")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str != "bob-clean" {
		t.Fatalf("bob rows after repair = %v (%v)", res, err)
	}
}

func TestPartitionIndexPrunedByGC(t *testing.T) {
	db := openPartDB(t)
	piExec(t, db, "INSERT INTO notes (id, owner, body) VALUES (1, 'alice', 'a1')")
	horizon := db.Clock().Now() + 1
	piExec(t, db, "INSERT INTO notes (id, owner, body) VALUES (2, 'alice', 'a2')")
	if err := db.GC(horizon); err != nil {
		t.Fatal(err)
	}
	alice := Partition{Table: "notes", Column: "owner", Key: sqldb.Text("alice").Key()}
	rows, err := db.PartitionRowsSince(alice, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].AsInt() != 2 {
		t.Fatalf("post-GC rows = %v, want [2]", rows)
	}
}

// TestWideINScopeClaimsOnlyItsKeys pins that a keyed scope holds exactly
// the keys its statement names, however many: a 17-key IN over a dense
// run of owners must leave the owner it skips free for another
// operation.
func TestWideINScopeClaimsOnlyItsKeys(t *testing.T) {
	db := openPartDB(t)
	var in []string
	for i := 0; i < 18; i++ {
		owner := fmt.Sprintf("k%02d", i)
		piExec(t, db, "INSERT INTO notes (id, owner, body) VALUES (?, ?, 'b')", sqldb.Int(int64(i+1)), sqldb.Text(owner))
		if i != 16 {
			in = append(in, "'"+owner+"'")
		}
	}
	stmt, err := sqldb.Parse("SELECT body FROM notes WHERE owner IN (" + strings.Join(in, ", ") + ")")
	if err != nil {
		t.Fatal(err)
	}
	m, sc, release, err := db.lockFor(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	skipped := sqldb.Text("k16").Key()
	if sc.whole || sc.covers(skipped) {
		t.Fatalf("scope %+v claims the skipped owner k16", sc)
	}
	m.locks.mu.Lock()
	free := m.locks.available(keyScope([]string{skipped}))
	m.locks.mu.Unlock()
	if !free {
		t.Fatal("k16 is not lockable while the IN scope is held")
	}
}
