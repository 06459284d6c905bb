package bench

import (
	"testing"
	"time"
)

const (
	partClients = 16
	partPages   = 2
	partLatency = 1500 * time.Microsecond
)

// assertSameOutcome requires two partition-repair measurements to have
// identical work accounting and identical final hot-table contents.
func assertSameOutcome(t *testing.T, label string, a, b *PartitionRepairResult) {
	t.Helper()
	if a.Report.AppRunsReexecuted != b.Report.AppRunsReexecuted ||
		a.Report.QueriesReexecuted != b.Report.QueriesReexecuted ||
		a.Report.PageVisitsReplayed != b.Report.PageVisitsReplayed {
		t.Fatalf("%s: accounting differs: %d/%d/%d vs %d/%d/%d", label,
			a.Report.AppRunsReexecuted, a.Report.QueriesReexecuted, a.Report.PageVisitsReplayed,
			b.Report.AppRunsReexecuted, b.Report.QueriesReexecuted, b.Report.PageVisitsReplayed)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%s: row count differs: %d vs %d", label, len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("%s: row %d differs: %q vs %q", label, i, a.Rows[i], b.Rows[i])
		}
	}
}

// TestPartitionRepairMatchesSerial: the partition-granular pipeline at 4
// workers must produce byte-identical final state and identical work
// accounting to the serial engine — concurrency is a performance
// decision, never a semantic one.
func TestPartitionRepairMatchesSerial(t *testing.T) {
	serial, err := PartitionRepair(partClients, partPages, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Report.PageVisitsReplayed != partClients*(partPages+1) {
		t.Fatalf("visits replayed = %d, want %d (every visit of every client)",
			serial.Report.PageVisitsReplayed, partClients*(partPages+1))
	}
	if len(serial.Rows) != partClients*partPages {
		t.Fatalf("rows = %d, want %d", len(serial.Rows), partClients*partPages)
	}
	parallel, err := PartitionRepair(partClients, partPages, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, "serial vs 4 workers", serial, parallel)
}

// TestPartitionRepairOverlapsClients pins the property that makes the
// partition-granular pipeline fast on a single hot table: independent
// clients' page-visit replays — each re-executing its runs against its
// own partition of the shared posts table — are in flight together at 4
// workers, while the serial engine never has more than one item in
// flight. The peak is recorded by the scheduler at dispatch, so the
// assertion holds regardless of machine load; the wall time is only
// logged.
func TestPartitionRepairOverlapsClients(t *testing.T) {
	serial, err := PartitionRepair(partClients, partPages, 1, partLatency)
	if err != nil {
		t.Fatal(err)
	}
	partition, err := PartitionRepair(partClients, partPages, 4, partLatency)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, "1 vs 4 workers", serial, partition)
	t.Logf("1 worker %v, 4 workers %v (%.2fx); peak visit replays in flight %d vs %d",
		serial.RepairTime, partition.RepairTime,
		float64(serial.RepairTime)/float64(partition.RepairTime),
		serial.Report.PeakVisitReplays, partition.Report.PeakVisitReplays)
	if serial.Report.PeakVisitReplays != 1 {
		t.Fatalf("serial engine had %d visit replays in flight at once, want 1", serial.Report.PeakVisitReplays)
	}
	if partition.Report.PeakVisitReplays < 2 {
		t.Fatalf("4 workers never had two clients' visit replays in flight at once (peak %d)",
			partition.Report.PeakVisitReplays)
	}
}
