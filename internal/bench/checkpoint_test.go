package bench

import (
	"fmt"
	"testing"

	"warp/internal/core"
	"warp/internal/sqldb"
	"warp/internal/store"
	"warp/internal/ttdb"
)

// BenchmarkCheckpoint measures the incremental checkpointer's central
// promise: checkpoint time scales with the dirty set, not database
// size. The database holds a fixed 8 tables x 500 rows; each iteration
// touches k tables and checkpoints. Compare the ns/op lines — dirty-1
// must sit far below dirty-8, and dirty-8 approximates the old
// full-snapshot cost.
func BenchmarkCheckpoint(b *testing.B) {
	const tables, rows = 8, 2000
	setup := func(b *testing.B) *core.Warp {
		b.Helper()
		w, err := core.Open(b.TempDir(), core.Config{Seed: 3, Durability: store.Options{
			CompactEvery: 1 << 30, // measure pure incremental cost
		}})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < tables; i++ {
			table := fmt.Sprintf("t%d", i)
			if err := w.DB.Annotate(table, ttdb.TableSpec{RowIDColumn: "id"}); err != nil {
				b.Fatal(err)
			}
			if _, _, err := w.DB.Exec(fmt.Sprintf(
				"CREATE TABLE %s (id INTEGER PRIMARY KEY, body TEXT)", table)); err != nil {
				b.Fatal(err)
			}
			for r := 0; r < rows; r++ {
				if _, _, err := w.DB.Exec(fmt.Sprintf("INSERT INTO %s (id, body) VALUES (?, ?)", table),
					sqldb.Int(int64(r+1)), sqldb.Text("benchmark row payload")); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := w.Checkpoint(); err != nil { // base
			b.Fatal(err)
		}
		return w
	}
	run := func(k int) func(*testing.B) {
		return func(b *testing.B) {
			w := setup(b)
			defer w.Crash() // skip the exit checkpoint; timing only
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < k; j++ {
					if _, _, err := w.DB.Exec(fmt.Sprintf("UPDATE t%d SET body = 'touched-%d' WHERE id = 1", j, i)); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := w.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("dirty-1of8", run(1))
	b.Run("dirty-4of8", run(4))
	b.Run("dirty-8of8", run(8))
}

// TestIncrementalCheckpointSpeedup asserts the scaling property the
// benchmark reports: checkpointing 1 dirty table of 8 must be
// measurably cheaper than checkpointing all 8. Skipped under -short;
// the bound is deliberately loose (2x) so CI noise cannot flake it —
// the real ratio tracks the dirty fraction (~8x here).
func TestIncrementalCheckpointSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint measurement in -short mode")
	}
	const tables, rows, rounds = 8, 300, 6
	build := func() *core.Warp {
		w, err := core.Open(t.TempDir(), core.Config{Seed: 3, Durability: store.Options{CompactEvery: 1 << 30}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tables; i++ {
			table := fmt.Sprintf("t%d", i)
			if err := w.DB.Annotate(table, ttdb.TableSpec{RowIDColumn: "id"}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := w.DB.Exec(fmt.Sprintf("CREATE TABLE %s (id INTEGER PRIMARY KEY, body TEXT)", table)); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < rows; r++ {
				if _, _, err := w.DB.Exec(fmt.Sprintf("INSERT INTO %s (id, body) VALUES (?, ?)", table),
					sqldb.Int(int64(r+1)), sqldb.Text("scaling row payload")); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return w
	}
	measure := func(k int) (bytes int64) {
		w := build()
		defer w.Crash()
		for i := 0; i < rounds; i++ {
			for j := 0; j < k; j++ {
				if _, _, err := w.DB.Exec(fmt.Sprintf("UPDATE t%d SET body = 'touch-%d' WHERE id = 1", j, i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			bytes += w.LastCheckpoint().Bytes
		}
		return bytes
	}
	one := measure(1)
	all := measure(tables)
	t.Logf("delta bytes over %d checkpoints: dirty-1=%d dirty-%d=%d (ratio %.1fx)",
		rounds, one, tables, all, float64(all)/float64(one))
	if one*2 > all {
		t.Fatalf("checkpoint cost does not track the dirty set: 1-dirty wrote %d bytes vs %d for all-dirty", one, all)
	}
}
