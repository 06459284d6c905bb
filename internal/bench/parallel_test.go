package bench

import (
	"testing"
	"time"
)

// TestParallelRepairSpeedup checks the repair scheduler's scaling claim
// on a partition-disjoint workload whose cost is dominated by per-run
// application latency: 4 workers keep more than one run re-execution in
// flight at once, where the serial engine keeps exactly one, with
// identical re-execution accounting. The peaks are recorded by the
// scheduler at dispatch, so the assertion does not depend on machine
// load; the wall-clock ratio is only logged.
func TestParallelRepairSpeedup(t *testing.T) {
	const (
		users, notes = 8, 2
		appLatency   = 500 * time.Microsecond
	)
	serial, err := ParallelRepair(users, notes, 1, appLatency)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ParallelRepair(users, notes, 4, appLatency)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Report.AppRunsReexecuted != parallel.Report.AppRunsReexecuted ||
		serial.Report.QueriesReexecuted != parallel.Report.QueriesReexecuted {
		t.Fatalf("work accounting differs: serial %d/%d, parallel %d/%d",
			serial.Report.AppRunsReexecuted, serial.Report.QueriesReexecuted,
			parallel.Report.AppRunsReexecuted, parallel.Report.QueriesReexecuted)
	}
	if serial.Report.AppRunsReexecuted != users*notes {
		t.Fatalf("runs re-executed = %d, want %d", serial.Report.AppRunsReexecuted, users*notes)
	}
	t.Logf("serial %v, 4 workers %v, speedup %.2fx; peak runs in flight %d vs %d",
		serial.RepairTime, parallel.RepairTime, float64(serial.RepairTime)/float64(parallel.RepairTime),
		serial.Report.PeakRunExecs, parallel.Report.PeakRunExecs)
	if serial.Report.PeakRunExecs != 1 {
		t.Fatalf("serial engine had %d runs in flight at once, want 1", serial.Report.PeakRunExecs)
	}
	if parallel.Report.PeakRunExecs < 2 {
		t.Fatalf("4 workers never had two runs in flight at once (peak %d)", parallel.Report.PeakRunExecs)
	}
}
