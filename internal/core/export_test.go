package core

import (
	"strings"

	"warp/internal/browser"
	"warp/internal/history"
	"warp/internal/store"
	"warp/internal/ttdb"
)

// EncodeAction and DecodeAction expose the history-action codec to the
// external test package, which needs a real GoWiki deployment (the wiki
// imports core, so those tests cannot live in package core).
func EncodeAction(a *history.Action, g *history.Graph) []byte {
	enc := store.NewEncoder()
	encodeAction(enc, a, g)
	return enc.Bytes()
}

func DecodeAction(b []byte, g *history.Graph) (*history.Action, error) {
	a, _, err := decodeAction(store.NewDecoder(b), g)
	return a, err
}

// EncodeVisitLog exposes the visit-log codec to the external test package.
func EncodeVisitLog(v *browser.VisitLog) []byte {
	enc := store.NewEncoder()
	encodeVisitLog(enc, v)
	return enc.Bytes()
}

// InvalidateCookies queues cookie invalidation for a client, as a repair
// whose replayed jar diverged would (§5.3).
func InvalidateCookies(w *Warp, client string, names ...string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cookieInvalid[client] = names
}

// SetExclusiveRepair switches w's later repairs between online and
// stop-the-world (Config.ExclusiveRepair), for deployments a helper
// package built.
func SetExclusiveRepair(w *Warp, on bool) { w.cfg.ExclusiveRepair = on }

// Repropagation is what one full re-propagation found in a repair whose
// commit window had already converged.
type Repropagation struct {
	// Requeued counts the items the re-propagation queued.
	Requeued int
	// NewDirt counts the partitions the drain dirtied that were clean,
	// and OutcomeChanges the query outcomes that changed on
	// re-execution. DirtLowered counts dirt entries moved earlier: a
	// converged write re-executed again re-runs its two-phase rollback,
	// which re-dirties the partitions of the row's later versions from
	// the write's time, and those later writes then re-apply unchanged.
	NewDirt        int
	OutcomeChanges int64
	DirtLowered    int64
	// NewConflicts counts the conflicts the drain added.
	NewConflicts int
	// Before and After are the probe's rows in the repair generation.
	Before, After []string
}

// CheckRepropagation makes each later repair of w, once its commit
// window has converged and before it commits, re-propagate every dirty
// partition from its earliest dirt time (the full pass the
// touched-action re-check replaced), drain that, and hand fn what it
// found. probe is a SELECT read from the repair generation before and
// after the pass.
func CheckRepropagation(w *Warp, probe string, fn func(Repropagation)) {
	w.afterConverge = func(rs *session) error {
		read := func() ([]string, error) {
			res, _, err := w.DB.ReExec(probe, nil, w.Clock.Now(), nil)
			if err != nil {
				return nil, err
			}
			rows := make([]string, len(res.Rows))
			for i, r := range res.Rows {
				cols := make([]string, len(r))
				for j, v := range r {
					cols[j] = v.String()
				}
				rows[i] = strings.Join(cols, "|")
			}
			return rows, nil
		}
		var r Repropagation
		var err error
		if r.Before, err = read(); err != nil {
			return err
		}
		rs.mu.Lock()
		conflicts := len(rs.conflicts)
		dirt := make(map[ttdb.Partition]int64, len(rs.dirt))
		for p, log := range rs.dirt {
			dirt[p] = log[0].time
		}
		rs.mu.Unlock()
		dirtChanges, outcomes := rs.dirtChanges.Load(), rs.outcomeChanges.Load()
		for p, t := range dirt {
			rs.propagate(p, t)
		}
		r.Requeued = rs.sched.pendingLen()
		if err := rs.sched.drain(); err != nil {
			return err
		}
		r.OutcomeChanges = rs.outcomeChanges.Load() - outcomes
		rs.mu.Lock()
		r.NewConflicts = len(rs.conflicts) - conflicts
		for p := range rs.dirt {
			if _, ok := dirt[p]; !ok {
				r.NewDirt++
			}
		}
		rs.mu.Unlock()
		r.DirtLowered = rs.dirtChanges.Load() - dirtChanges - int64(r.NewDirt)
		if r.After, err = read(); err != nil {
			return err
		}
		fn(r)
		return nil
	}
}
