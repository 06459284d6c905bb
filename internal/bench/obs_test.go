package bench

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warp/internal/app"
	"warp/internal/core"
	"warp/internal/httpd"
	"warp/internal/obs"
	"warp/internal/ttdb"
)

// TestRepairMetricsLive is the observability acceptance test: during a
// BenchmarkPartitionRepair-style run (hot partitioned table, per-client
// visit-replay chains, parallel workers), Warp.Metrics() must report
// the repair in flight — active gauge up, scheduler progress gauges
// moving, phase trace accumulating — and after it finishes, a complete
// phase breakdown plus populated exec latency histograms.
//
// The in-flight observations are taken synchronously inside the repair,
// not by polling on a timer: from the page handler, which the repair
// re-executes on its workers during the first replay pass, and from the
// repair-controller trace hook, which runs at every controller step,
// including the catch-up and commit-window passes after the first replay
// span has ended. The concurrent Metrics() calls from parallel workers
// are also the -race stress for histogram, counter, and trace writes
// during parallel repair.
func TestRepairMetricsLive(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	const (
		clients = 8
		pages   = 3
		workers = 4
		latency = 2 * time.Millisecond
	)
	var (
		w         *core.Warp
		observing atomic.Bool
		mu        sync.Mutex
		// From the re-executed page handler.
		handlerRuns, handlerActive, handlerLive int
		// From the controller trace hook.
		sawReplayPhase bool
		maxReplayed    int64
	)
	observe := func(fromHandler bool) {
		if !observing.Load() {
			return
		}
		m := w.Metrics()
		mu.Lock()
		defer mu.Unlock()
		if g := m.Obs.Gauge("warp_core_repair_actions_replayed"); g > maxReplayed {
			maxReplayed = g
		}
		live := m.Repair != nil && !m.Repair.Done
		if fromHandler {
			handlerRuns++
			if m.Obs.Gauge("warp_core_repair_active") == 1 {
				handlerActive++
			}
			// The frontier span has ended and the replay span that runs
			// this handler is open.
			if live && m.Repair.Phase("frontier").Count == 1 && m.Repair.Open > 0 {
				handlerLive++
			}
			return
		}
		if live && m.Repair.Phase("replay").Count > 0 {
			sawReplayPhase = true
		}
	}
	w = core.New(core.Config{Seed: 99, RepairWorkers: workers,
		Trace: func(string, ...any) { observe(false) }})
	if err := w.DB.Annotate("posts", ttdb.TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.DB.Exec("CREATE TABLE posts (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)"); err != nil {
		t.Fatal(err)
	}
	if err := w.Runtime.Register("login.php", app.Version{Entry: loginHandler(false)}); err != nil {
		t.Fatal(err)
	}
	posts := postsHandler(latency)
	page := func(c *app.Ctx) *httpd.Response {
		observe(true)
		return posts(c)
	}
	if err := w.Runtime.Register("page.php", app.Version{Entry: page}); err != nil {
		t.Fatal(err)
	}
	w.Runtime.Mount("/login", "login.php")
	w.Runtime.Mount("/page", "page.php")
	id := 0
	for c := 0; c < clients; c++ {
		b := w.NewBrowser()
		if p := b.Open("/login"); p.DOM == nil {
			t.Fatalf("login failed for client %d", c)
		}
		for n := 0; n < pages; n++ {
			id++
			if p := b.Open(fmt.Sprintf("/page?owner=%s&id=%d&body=p%d", b.ClientID, id, n)); p.DOM == nil {
				t.Fatalf("page visit failed for client %d", c)
			}
		}
	}

	before := obs.Default.Snapshot()

	observing.Store(true)
	rep, err := w.RetroPatch("login.php", app.Version{Entry: loginHandler(true), Note: "session hardening"})
	observing.Store(false)
	if err != nil {
		t.Fatal(err)
	}
	if want := clients * (pages + 1); rep.PageVisitsReplayed != want {
		t.Fatalf("visits replayed = %d, want %d", rep.PageVisitsReplayed, want)
	}
	// The patched login sets a new cookie, so every client's page visits
	// replay and re-execute their runs.
	if handlerRuns < clients*pages {
		t.Errorf("repair re-executed the page handler %d times, want at least %d", handlerRuns, clients*pages)
	}
	if handlerActive != handlerRuns {
		t.Errorf("warp_core_repair_active = 1 in %d of %d re-executed runs", handlerActive, handlerRuns)
	}
	if handlerLive != handlerRuns {
		t.Errorf("a live trace inside its replay phase in %d of %d re-executed runs", handlerLive, handlerRuns)
	}
	if !sawReplayPhase {
		t.Error("never observed a live (unfinished) repair trace with replay spans")
	}

	m := w.Metrics()
	if m.Repair == nil {
		t.Fatal("Metrics().Repair is nil after an instrumented repair")
	}
	if !m.Repair.Done || !strings.HasPrefix(m.Repair.Name, "repair:") {
		t.Fatalf("final repair trace: done=%v name=%q", m.Repair.Done, m.Repair.Name)
	}
	for _, phase := range []string{"frontier", "replay", "commit"} {
		if m.Repair.Phase(phase).Count == 0 {
			t.Errorf("repair trace has no %q spans: %+v", phase, m.Repair.Phases)
		}
	}
	if m.Obs.Gauge("warp_core_repair_active") != 0 {
		t.Error("warp_core_repair_active still 1 after repair")
	}
	if m.Obs.Gauge("warp_core_repair_actions_remaining") != 0 {
		t.Errorf("actions remaining = %d after repair, want 0",
			m.Obs.Gauge("warp_core_repair_actions_remaining"))
	}
	replayed := m.Obs.Gauge("warp_core_repair_actions_replayed")
	if replayed < int64(clients*(pages+1)) {
		t.Errorf("actions replayed = %d, want ≥ %d (one per replayed visit)", replayed, clients*(pages+1))
	}
	if maxReplayed == 0 || maxReplayed > replayed {
		t.Errorf("live progress gauge peaked at %d, final %d", maxReplayed, replayed)
	}

	// The window over the whole test must show the repair counted and
	// the per-layer latency histograms populated: exec latencies from
	// the replayed queries, per-item repair latencies, lock waits only
	// if there was contention (not asserted).
	win := m.Obs.Sub(before)
	if got := win.Counter("warp_core_repairs_total"); got != 1 {
		t.Errorf("repairs in window = %d, want 1", got)
	}
	var execObs uint64
	for _, h := range win.Histograms {
		if strings.HasPrefix(h.Name, "warp_sqldb_exec_seconds") {
			execObs += h.Hist.Count
		}
	}
	if execObs == 0 {
		t.Error("no exec latency observations recorded during the repair window")
	}
	if hs, ok := win.Histogram("warp_core_repair_item_seconds"); !ok || hs.Count == 0 {
		t.Error("no repair item latency observations recorded")
	} else if hs.Quantile(0.5) <= 0 || hs.Quantile(0.99) < hs.Quantile(0.5) {
		t.Errorf("repair item quantiles inconsistent: p50=%v p99=%v", hs.Quantile(0.5), hs.Quantile(0.99))
	}
}
