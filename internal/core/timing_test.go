package core

import (
	"testing"
	"time"

	"warp/internal/app"
	"warp/internal/browser"
)

// TestParallelRepairTimingNonNegative: under parallel repair every
// Timing component is accumulated per call — a run's own query time, a
// visit's own nested serve time — so no field can pick up other workers'
// time and go negative.
func TestParallelRepairTimingNonNegative(t *testing.T) {
	w := New(Config{Seed: 3, RepairWorkers: 4})
	installGuestbook(t, w, false)
	browsers := []*browser.Browser{w.NewBrowser(), w.NewBrowser(), w.NewBrowser(), w.NewBrowser()}
	for round := 0; round < 10; round++ {
		for _, step := range workloadSteps(browsers) {
			step()
		}
		for _, b := range browsers[3:] {
			b.Open("/")
		}
	}
	rep, err := w.RetroPatch("guestbook.php", app.Version{Entry: guestbookHandler(true), Note: "sanitize"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RepairWorkers != 4 || rep.AppRunsReexecuted == 0 || rep.PageVisitsReplayed == 0 {
		t.Fatalf("repair did not exercise parallel run and visit replay: %s", rep)
	}
	tm := rep.Timing
	for name, d := range map[string]int64{
		"Init": int64(tm.Init), "Graph": int64(tm.Graph), "Browser": int64(tm.Browser),
		"DB": int64(tm.DB), "App": int64(tm.App), "Ctrl": int64(tm.Ctrl), "Total": int64(tm.Total),
	} {
		if d < 0 {
			t.Errorf("Timing.%s = %v, want >= 0", name, time.Duration(d))
		}
	}
}
