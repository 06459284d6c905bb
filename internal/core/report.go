package core

import (
	"fmt"
	"time"

	"warp/internal/browser"
)

// Timing is the repair wall-time breakdown reported in the paper's
// Tables 7 and 8: initialization (finding affected actions), history-graph
// loading, browser re-execution ("Firefox"), standalone database query
// re-execution, application re-execution, and controller overhead.
type Timing struct {
	Init    time.Duration
	Graph   time.Duration
	Browser time.Duration
	DB      time.Duration
	App     time.Duration
	Ctrl    time.Duration
	Total   time.Duration
}

// Report summarizes one repair: what was re-executed out of what existed,
// what conflicts were queued, and where the time went.
type Report struct {
	Generation int64

	PageVisitsReplayed int
	AppRunsReexecuted  int
	QueriesReexecuted  int
	RunsCancelled      int

	TotalPageVisits int
	TotalAppRuns    int
	TotalQueries    int

	Conflicts        []browser.Conflict
	GraphNodesLoaded int
	Aborted          bool

	// Convergence after the bulk drain (docs/repair.md "The commit
	// window"): the items the touched-action re-check queued while live
	// traffic still ran (CatchupRequeued) and under the commit-window
	// suspension (CommitRequeued), the commit window's drain passes, and
	// the live query actions the commit window had to re-check.
	CatchupRequeued   int
	CommitRequeued    int
	CommitPasses      int
	CommitLiveActions int

	// RepairWorkers is the number of parallel workers the scheduler used.
	// It does not appear in String(): a repair's outcome is independent of
	// how many workers computed it.
	RepairWorkers int
	// PeakQueryChecks, PeakRunExecs and PeakVisitReplays are the most
	// items of each kind the scheduler had in flight at once, recorded at
	// dispatch. Like RepairWorkers they describe how the repair was
	// computed, not its outcome, and stay out of String().
	PeakQueryChecks  int
	PeakRunExecs     int
	PeakVisitReplays int

	Timing Timing
}

// UsersWithConflicts counts distinct clients with at least one queued
// conflict, the metric of Tables 3 and 4.
func (r *Report) UsersWithConflicts() int {
	seen := map[string]bool{}
	for _, c := range r.Conflicts {
		seen[c.Client] = true
	}
	return len(seen)
}

// String renders the report in the paper's Table 7 row style.
func (r *Report) String() string {
	return fmt.Sprintf(
		"gen %d: visits %d/%d, runs %d/%d (+%d cancelled), queries %d/%d, conflicts %d (users %d), total %v (init %v graph %v browser %v db %v app %v ctrl %v)",
		r.Generation,
		r.PageVisitsReplayed, r.TotalPageVisits,
		r.AppRunsReexecuted, r.TotalAppRuns, r.RunsCancelled,
		r.QueriesReexecuted, r.TotalQueries,
		len(r.Conflicts), r.UsersWithConflicts(),
		r.Timing.Total.Round(time.Microsecond),
		r.Timing.Init.Round(time.Microsecond),
		r.Timing.Graph.Round(time.Microsecond),
		r.Timing.Browser.Round(time.Microsecond),
		r.Timing.DB.Round(time.Microsecond),
		r.Timing.App.Round(time.Microsecond),
		r.Timing.Ctrl.Round(time.Microsecond),
	)
}
