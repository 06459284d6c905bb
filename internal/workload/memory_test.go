package workload

import (
	"fmt"
	"net/url"
	"runtime"
	"testing"

	"warp/internal/attacks"
)

// budgetVisits is the number of client ops the retained-bytes test records.
const budgetVisits = 2000

// recordVisits drives one logged-in user through n ops that alternate a
// page read with an edit replacing the page's text, over every user page
// in turn (so no version chain grows long). Edit texts have a fixed
// length, so the retained payload per visit does not grow with n.
func recordVisits(t testing.TB, env *attacks.Env, n int) {
	t.Helper()
	u := env.Others[0]
	users := env.AllUsers()
	for i := 0; i < n; i++ {
		title := "Page-" + users[(i/2)%len(users)].Name
		if i%2 == 0 {
			if p := u.B.Open("/index.php?title=" + url.QueryEscape(title)); p.DOM == nil {
				t.Fatalf("read %s: no page", title)
			}
			continue
		}
		p := u.B.Open("/edit.php?title=" + url.QueryEscape(title))
		if err := p.TypeInto("content", fmt.Sprintf("edit %06d alpha bravo charlie delta echo", i)); err != nil {
			t.Fatalf("edit %s: %v", title, err)
		}
		if _, err := p.Submit(0); err != nil {
			t.Fatalf("submit %s: %v", title, err)
		}
	}
}

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetainedBytesPerVisit bounds what each recorded wiki visit pins on
// the heap: the browser's visit log, the HTTP request and response the app
// run recorded, the run's query records, history-graph actions and their
// dependency edges, and the row versions an edit adds. Everything is kept
// for repair, so the live heap grows with every visit; the budget keeps
// per-visit bookkeeping from creeping back.
//
// Measured on this workload (amd64, Go 1.24): 12.2 KB per visit while
// every request and response owned its header and cookie maps, requests
// carried X-Warp-* header maps and every dependency built its own node
// ID; 8.5 KB once they are shared. The budget is the latter plus about
// 12%.
func TestRetainedBytesPerVisit(t *testing.T) {
	res, err := Run(Config{Users: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	recordVisits(t, res.Env, budgetVisits)
	after := liveHeap()
	runtime.KeepAlive(res)

	perVisit := (int64(after) - int64(before)) / budgetVisits
	t.Logf("retained %d B per visit over %d visits", perVisit, budgetVisits)
	const budget = 9500
	if perVisit > budget {
		t.Fatalf("each visit retains %d B of heap, budget %d B", perVisit, budget)
	}
}
