package core_test

import (
	"fmt"
	"math/rand"
	"net/url"
	"slices"
	"sync"
	"testing"
	"time"

	"warp/internal/attacks"
	"warp/internal/browser"
	"warp/internal/core"
	"warp/internal/sqldb"
	"warp/internal/workload"
)

// The touched-action re-check (docs/repair.md "The commit window")
// replaced a full re-propagation of every dirty partition after the bulk
// drain. These tests hold it to that: one full re-propagation run after
// the re-check has converged must find nothing left to change.

const pagesProbe = "SELECT page_id, title, last_editor, content FROM pages ORDER BY page_id"

// liveWriter drives a logged-in wiki client while a repair runs: seeded
// edits of a page no recorded visit touches, appends to the page the
// attacks target, and edits of a victim's own page, the last two on
// partitions the repair rewrites.
type liveWriter struct {
	stop chan struct{}
	done sync.WaitGroup
	ops  int
	errs []string
}

const liveSID = "live-session"

func startLiveWriter(t *testing.T, env *attacks.Env, seed int64) *liveWriter {
	t.Helper()
	if err := env.App.CreateUser("live", "pw-live", false); err != nil {
		t.Fatal(err)
	}
	if err := env.App.CreatePage("LivePage", "the live client's page", false); err != nil {
		t.Fatal(err)
	}
	uid, _, err := env.W.DB.Exec("SELECT user_id FROM users WHERE name = ?", sqldb.Text("live"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := env.W.DB.Exec("INSERT INTO sessions (sid, user_id) VALUES (?, ?)",
		sqldb.Text(liveSID), uid.FirstValue()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	b := browser.New(env.W.HandleRequest, env.W.UploadVisitLog, rand.New(rand.NewSource(seed)))
	b.SetCookie("sid", liveSID)
	victim := "Page-" + env.Victims[0].Name

	lw := &liveWriter{stop: make(chan struct{})}
	lw.done.Add(1)
	go func() {
		defer lw.done.Done()
		for i := 0; i < 200; i++ {
			select {
			case <-lw.stop:
				return
			default:
			}
			text := fmt.Sprintf("live %d", i)
			var ok bool
			switch rng.Intn(3) {
			case 0:
				ok = liveEdit(b, "LivePage", text)
			case 1:
				p := b.Open("/append.php?title=" + url.QueryEscape(env.TargetPage) + "&text=" + url.QueryEscape(text))
				ok = p.DOM != nil
			case 2:
				ok = liveEdit(b, victim, text)
			}
			if !ok {
				lw.errs = append(lw.errs, fmt.Sprintf("live op %d failed", i))
			}
			lw.ops++
			time.Sleep(time.Millisecond)
		}
	}()
	return lw
}

func liveEdit(b *browser.Browser, title, text string) bool {
	p := b.Open("/edit.php?title=" + url.QueryEscape(title))
	if p.DOM == nil || p.DOM.ByName("content") == nil {
		return false
	}
	if err := p.TypeInto("content", text); err != nil {
		return false
	}
	done, err := p.Submit(0)
	return err == nil && done.DOM != nil
}

// finish stops the writer and fails the test if any of its ops failed.
func (lw *liveWriter) finish(t *testing.T) {
	t.Helper()
	close(lw.stop)
	lw.done.Wait()
	if len(lw.errs) > 0 {
		t.Fatalf("%d of %d live ops failed: %v", len(lw.errs), lw.ops, lw.errs)
	}
}

// TestIncrementalPropagationMissesNothing is the differential check of
// the re-check: every §8.2 scenario, repaired at 1, 2 and 4 workers,
// online and exclusive, with a seeded live writer on repaired and
// disjoint partitions. Once the repair has converged, one full
// re-propagation of every dirty partition is drained before the commit.
// It must change no dirt and no query outcome, add no conflict, and
// leave the pages table as it was.
func TestIncrementalPropagationMissesNothing(t *testing.T) {
	for _, sc := range attacks.Scenarios() {
		for _, workers := range []int{1, 2, 4} {
			for _, exclusive := range []bool{false, true} {
				name := fmt.Sprintf("%s/workers=%d/exclusive=%v", sc.Name, workers, exclusive)
				t.Run(name, func(t *testing.T) {
					res, err := workload.Run(workload.Config{Users: 12, Victims: 3, Seed: 1234,
						Scenario: sc, RepairWorkers: workers})
					if err != nil {
						t.Fatal(err)
					}
					w := res.Env.W
					core.SetExclusiveRepair(w, exclusive)
					var checks []core.Repropagation
					core.CheckRepropagation(w, pagesProbe, func(r core.Repropagation) {
						checks = append(checks, r)
					})
					lw := startLiveWriter(t, res.Env, int64(workers))
					rep, err := sc.Repair(res.Env)
					lw.finish(t)
					if err != nil {
						t.Fatal(err)
					}
					if len(checks) != 1 {
						t.Fatalf("re-propagation ran %d times, want 1", len(checks))
					}
					r := checks[0]
					t.Logf("%d live ops; catch-up re-queued %d, commit re-queued %d; full re-propagation queued %d, lowered %d dirt entries",
						lw.ops, rep.CatchupRequeued, rep.CommitRequeued, r.Requeued, r.DirtLowered)
					if r.Requeued == 0 {
						t.Fatal("the full re-propagation queued nothing: the check checked nothing")
					}
					if r.NewDirt != 0 {
						t.Errorf("full re-propagation dirtied %d clean partitions", r.NewDirt)
					}
					if r.OutcomeChanges != 0 {
						t.Errorf("full re-propagation changed %d query outcomes", r.OutcomeChanges)
					}
					if r.NewConflicts != 0 {
						t.Errorf("full re-propagation added %d conflicts", r.NewConflicts)
					}
					if !slices.Equal(r.Before, r.After) {
						t.Errorf("full re-propagation changed the pages table:\nbefore %q\nafter  %q", r.Before, r.After)
					}
				})
			}
		}
	}
}

// TestCommitWindowRequeuesOnlyLiveWork counts the commit window's work
// on the Clickjacking history. Exclusive, nothing can arrive after the
// bulk drain, so the window re-executes nothing. Online, only the live
// actions logged since the last catch-up re-check can need re-execution.
func TestCommitWindowRequeuesOnlyLiveWork(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, exclusive := range []bool{true, false} {
			t.Run(fmt.Sprintf("workers=%d/exclusive=%v", workers, exclusive), func(t *testing.T) {
				sc := attacks.Clickjacking()
				res, err := workload.Run(workload.Config{Users: 12, Victims: 3, Seed: 1234,
					Scenario: sc, RepairWorkers: workers})
				if err != nil {
					t.Fatal(err)
				}
				core.SetExclusiveRepair(res.Env.W, exclusive)
				var lw *liveWriter
				if !exclusive {
					lw = startLiveWriter(t, res.Env, int64(workers))
				}
				rep, err := sc.Repair(res.Env)
				if lw != nil {
					lw.finish(t)
				}
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("commit window re-queued %d items in %d passes; %d live actions checked",
					rep.CommitRequeued, rep.CommitPasses, rep.CommitLiveActions)
				if exclusive && rep.CommitRequeued != 0 {
					t.Errorf("exclusive commit window re-queued %d items, want 0", rep.CommitRequeued)
				}
				if rep.CommitRequeued > rep.CommitLiveActions {
					t.Errorf("commit window re-queued %d items, more than the %d live actions it checked",
						rep.CommitRequeued, rep.CommitLiveActions)
				}
			})
		}
	}
}
