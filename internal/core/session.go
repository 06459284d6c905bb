package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"warp/internal/app"
	"warp/internal/browser"
	"warp/internal/history"
	"warp/internal/httpd"
	"warp/internal/obs"
	"warp/internal/store"
	"warp/internal/ttdb"
)

// session is the state of one repair (the paper's repair controller).
// A session is shared by the scheduler's repair workers: the maps below
// are guarded by mu, the timing counters are atomic, and the work queue
// itself lives in the scheduler.
type session struct {
	w   *Warp
	gen int64
	rep *Report
	cfg browser.ReplayConfig

	sched *scheduler

	// mu guards the session maps, counters, and the report's work
	// accounting. It is never held across a scheduler push or a Warp/graph
	// lock acquisition.
	mu sync.Mutex
	// seq is the session counter: heap tie-breaks, synthetic IDs, and the
	// stamps that order dirt events against query executions (recheck).
	seq int64

	// dirt maps each partition changed during this repair to its dirt
	// events; the first holds the earliest time its contents changed.
	dirt map[ttdb.Partition]dirtLog

	// execStamps maps a query record to the stamp taken just before its
	// latest (re-)execution began. Records executed by live traffic have
	// none (stamp 0): they read the current generation, not the repair's.
	execStamps map[*ttdb.Record]int64
	// extended lists query actions whose dependency edges AddDeps grew
	// since the last recheck; mark is the graph watermark of that
	// recheck. mark is only touched by the controller between drains.
	extended []history.ActionID
	mark     history.ActionID

	origRuns    map[history.NodeID]history.ActionID // first-seen (original) run per exchange
	served      map[history.NodeID]*servedEntry
	activeVisit map[string]bool

	jarOverride map[string]httpd.Fields // diverged replay cookie jars

	// navOverrides remembers, per child visit, the parent's latest
	// re-derived main request (e.g. a merged form), so a later standalone
	// re-replay of the child does not fall back to the stale recorded one.
	navOverrides map[string]*workItem

	conflicts []browser.Conflict

	// Distinct work accounting for the Tables 7/8 "re-executed actions"
	// columns: repeats of the same item (fixpoint passes) count once.
	doneVisits  map[string]bool
	doneRuns    map[history.ActionID]bool
	doneQueries map[history.ActionID]bool

	traceMu sync.Mutex
	trace   func(format string, args ...any)

	// obsTrace is the session's phase trace (frontier / replay /
	// rollback / commit spans); nil when obs is disabled — every Trace
	// method is nil-safe.
	obsTrace *obs.Trace

	// timing, in nanoseconds; atomic because workers account concurrently.
	tInit    atomic.Int64
	tGraph   atomic.Int64
	tBrowser atomic.Int64
	tDB      atomic.Int64
	tApp     atomic.Int64

	// liveSince is the logical time the session started: records with a
	// later time were logged by live traffic while this repair ran, the
	// only writes the online merge path (replay.go) may touch.
	liveSince int64

	// mergedLive memoizes, per merged live write (table/row/time), the
	// three-way-merged text. The merge is computed once, against the live
	// write's original pre-image; every later re-execution of the same
	// write — query-level or via its run's replay, which re-derives the
	// raw request parameters — applies the memoized text, so the fixpoint
	// converges on the merged value instead of oscillating.
	mergedLive map[string]string

	// dirtChanges counts dirt-map entries created or lowered, and
	// outcomeChanges query outcomes that changed on re-execution. The
	// controller trace reports both per convergence pass.
	dirtChanges    atomic.Int64
	outcomeChanges atomic.Int64
}

// servedEntry caches the outcome of re-serving one HTTP exchange during
// repair, so a visit replay does not re-execute a run the controller
// already re-executed (§5.3 pruning).
type servedEntry struct {
	reqFP uint64
	resp  *httpd.Response
}

func (w *Warp) newSession(gen int64) *session {
	rep := &Report{Generation: gen}
	rep.TotalAppRuns = len(w.Graph.ByKind(history.KindAppRun))
	rep.TotalQueries = len(w.Graph.ByKind(history.KindQuery))
	w.mu.Lock()
	rep.TotalPageVisits = len(w.visitOrder)
	w.mu.Unlock()
	w.Graph.ResetLoadStats()
	workers := w.cfg.RepairWorkers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	rs := &session{
		w:            w,
		gen:          gen,
		rep:          rep,
		cfg:          *w.cfg.Replay,
		dirt:         make(map[ttdb.Partition]dirtLog),
		execStamps:   make(map[*ttdb.Record]int64),
		mark:         w.Graph.Mark(),
		origRuns:     make(map[history.NodeID]history.ActionID),
		served:       make(map[history.NodeID]*servedEntry),
		activeVisit:  make(map[string]bool),
		jarOverride:  make(map[string]httpd.Fields),
		navOverrides: make(map[string]*workItem),
		doneVisits:   make(map[string]bool),
		doneRuns:     make(map[history.ActionID]bool),
		doneQueries:  make(map[history.ActionID]bool),
		mergedLive:   make(map[string]string),
		trace:        w.cfg.Trace,
	}
	rs.sched = newScheduler(rs, workers,
		50*(rep.TotalAppRuns+rep.TotalQueries+rep.TotalPageVisits)+10000)
	return rs
}

// nextSeq issues the next session-unique sequence number, used for heap
// tie-breaking and synthetic IDs.
func (rs *session) nextSeq() int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.seq++
	return rs.seq
}

// markRun counts a distinct run re-execution.
func (rs *session) markRun(id history.ActionID) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.doneRuns[id] {
		rs.doneRuns[id] = true
		rs.rep.AppRunsReexecuted++
	}
}

// markQuery counts a distinct query re-execution.
func (rs *session) markQuery(id history.ActionID) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.doneQueries[id] {
		rs.doneQueries[id] = true
		rs.rep.QueriesReexecuted++
	}
}

// addConflict queues one repair conflict.
func (rs *session) addConflict(c browser.Conflict) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.conflicts = append(rs.conflicts, c)
}

// tracef logs one controller step when tracing is enabled.
func (rs *session) tracef(format string, args ...any) {
	if rs.trace == nil {
		return
	}
	rs.traceMu.Lock()
	defer rs.traceMu.Unlock()
	rs.trace(format, args...)
}

//
// Dirt tracking and propagation (§4.1: partition-based dependencies)
//

// dirtEvent is one addDirt call on a partition: the time the partition
// changed from, and the session stamp of the call.
type dirtEvent struct{ time, stamp int64 }

// dirtLog is a partition's dirt events in stamp order. An event is
// dropped once a later one is no later in time: any action that missed
// the earlier event also missed the later one. So times increase along
// the log, and its first event holds the partition's earliest dirt.
type dirtLog []dirtEvent

func (l dirtLog) add(time, stamp int64) dirtLog {
	for len(l) > 0 && l[len(l)-1].time >= time {
		l = l[:len(l)-1]
	}
	return append(l, dirtEvent{time, stamp})
}

// missedBy reports whether an action at time t whose latest execution
// began at stamp since missed one of the events: an event timed before
// the action and recorded after that execution began.
func (l dirtLog) missedBy(t, since int64) bool {
	i := sort.Search(len(l), func(i int) bool { return l[i].stamp > since })
	return i < len(l) && l[i].time < t
}

// addDirt records that partitions changed from a given time on and
// enqueues every logged query reading or writing them afterwards. It is
// called after the change is made, so a query execution stamped later
// sees it.
func (rs *session) addDirt(parts []ttdb.Partition, from int64) {
	rs.mu.Lock()
	rs.seq++
	for _, p := range parts {
		log := rs.dirt[p]
		if len(log) == 0 || from < log[0].time {
			rs.dirtChanges.Add(1)
		}
		rs.dirt[p] = log.add(from, rs.seq)
	}
	rs.mu.Unlock()
	for _, p := range parts {
		rs.propagate(p, from)
	}
}

// stampExec files the stamp (nextSeq) taken just before a query
// (re-)executed under the record that execution produced.
func (rs *session) stampExec(rec *ttdb.Record, stamp int64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.execStamps[rec] = stamp
}

// noteExtended records a query action whose dependency edges AddDeps
// grew, for the next recheck.
func (rs *session) noteExtended(id history.ActionID) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.extended = append(rs.extended, id)
}

// recheck re-enqueues the query actions that may have missed dirt, and
// returns how many it queued and how many of the actions it checked
// were logged by live traffic. addDirt enqueues every action indexed on
// a partition when the dirt is recorded, so only an action indexed
// later can miss it: one appended since the last recheck (by live
// traffic, or by recordRun for a re-executed or fresh run) or one whose
// edges AddDeps grew. Such an action is queued when a partition it
// depends on got dirt timed before the action after the action's latest
// execution began. Called between drains, with no worker running.
func (rs *session) recheck() (queued, live int) {
	acts, next := rs.w.Graph.Since(rs.mark)
	rs.mu.Lock()
	extended := rs.extended
	rs.extended = nil
	rs.mu.Unlock()
	seen := make(map[history.ActionID]bool, len(extended))
	for _, id := range extended {
		if id < rs.mark && !seen[id] {
			seen[id] = true
			if a := rs.w.Graph.Get(id); a != nil {
				acts = append(acts, a)
			}
		}
	}
	rs.mark = next
	for _, a := range acts {
		qp, ok := a.Payload.(*QueryPayload)
		if !ok || qp.Superseded.Load() {
			continue
		}
		if a.Time > rs.liveSince && !qp.Repaired {
			live++
		}
		if rs.missedDirt(a, qp.Rec) && rs.enqueueQuery(a) {
			queued++
		}
	}
	return queued, live
}

// missedDirt applies recheck's rule to one query action. Partition
// overlap follows propagate and dirtyAt: a keyed partition depends on
// its own dirt and its table's whole-table dirt, a whole-table partition
// on every dirt of its table.
func (rs *session) missedDirt(a *history.Action, rec *ttdb.Record) bool {
	pd := rs.w.Graph.PartitionDepsOf(a.ID)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	since := rs.execStamps[rec]
	for _, name := range append(pd.PartReads, pd.PartWrites...) {
		p, ok := ttdb.ParsePartition(name)
		if !ok {
			continue
		}
		if p.IsWholeTable() {
			for dp, log := range rs.dirt {
				if dp.Table == p.Table && log.missedBy(a.Time, since) {
					return true
				}
			}
			continue
		}
		if rs.dirt[p].missedBy(a.Time, since) || rs.dirt[ttdb.WholeTable(p.Table)].missedBy(a.Time, since) {
			return true
		}
	}
	return false
}

// partitionNodes expands a partition into the graph nodes its
// dependencies live on: a keyed partition maps to its own node plus the
// table's conservative whole-table node; a whole-table partition fans out
// to every interned node of the table. Shared by dirt propagation and
// partition undo.
func (rs *session) partitionNodes(p ttdb.Partition) []history.NodeID {
	seen := make(map[history.NodeID]bool)
	var nodes []history.NodeID
	add := func(n history.NodeID) {
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	rs.w.mu.Lock()
	if p.IsWholeTable() {
		// Whole-table dirt touches every partition of the table.
		for _, n := range rs.w.partNodes[p.Table] {
			add(n)
		}
	} else {
		add(history.PartitionNode(p.String()))
		add(history.PartitionNode(ttdb.WholeTable(p.Table).String()))
	}
	rs.w.mu.Unlock()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}

// propagate finds actions depending on a partition strictly after the
// causing time. Forward-only propagation is what makes the repair loop
// terminate: re-executing an action at time t can only ever enqueue work
// later than t.
func (rs *session) propagate(p ttdb.Partition, from int64) {
	t0 := time.Now()
	nodes := rs.partitionNodes(p)
	var acts []*history.Action
	for _, n := range nodes {
		acts = append(acts, rs.w.Graph.Readers(n, from+1)...)
		acts = append(acts, rs.w.Graph.Writers(n, from+1)...)
	}
	rs.tGraph.Add(int64(time.Since(t0)))
	for _, a := range acts {
		if a.Kind == history.KindQuery {
			rs.enqueueQuery(a)
		}
	}
}

// dirtyAt reports whether any of the partitions was dirtied at or before t
// (meaning a query reading them at time t could see changed data).
func (rs *session) dirtyAt(parts []ttdb.Partition, t int64) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, p := range parts {
		if p.IsWholeTable() {
			for dp, log := range rs.dirt {
				if dp.Table == p.Table && log[0].time <= t {
					return true
				}
			}
			continue
		}
		if log, ok := rs.dirt[p]; ok && log[0].time <= t {
			return true
		}
		if log, ok := rs.dirt[ttdb.WholeTable(p.Table)]; ok && log[0].time <= t {
			return true
		}
	}
	return false
}

// claimed reports whether any of the partitions is dirty in the repair
// generation at all — once dirtied, a partition stays claimed by the
// repair until the final commit. The admission gate paces live writes
// into claimed partitions.
func (rs *session) claimed(parts []ttdb.Partition) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, p := range parts {
		if p.IsWholeTable() {
			for dp := range rs.dirt {
				if dp.Table == p.Table {
					return true
				}
			}
			continue
		}
		if _, ok := rs.dirt[p]; ok {
			return true
		}
		if _, ok := rs.dirt[ttdb.WholeTable(p.Table)]; ok {
			return true
		}
	}
	return false
}

//
// Repair entry points
//

// RetroPatch retroactively applies a security patch (§3.2): it installs
// the new version of the source file and re-executes every application run
// that loaded that file, recursively repairing everything affected.
func (w *Warp) RetroPatch(file string, v app.Version) (*Report, error) {
	return w.RetroPatchSince(file, v, 0)
}

// RetroPatchSince is RetroPatch from a given past time (the paper's
// "time at which this patch should be applied", default the epoch).
func (w *Warp) RetroPatchSince(file string, v app.Version, since int64) (*Report, error) {
	intent := &RepairIntent{Kind: IntentRetroPatch, File: file, Note: v.Note, Since: since}
	return w.repair(intent, func(rs *session) error {
		t0 := time.Now()
		if err := w.Runtime.Patch(file, v); err != nil {
			return err
		}
		w.Graph.Append(&history.Action{
			Kind:    history.KindPatch,
			Time:    w.Clock.Tick(),
			Outputs: []history.Dep{{Node: history.FileNode(file), Time: since}},
			Payload: v.Note,
		})
		tg := time.Now()
		runs := w.Graph.Readers(history.FileNode(file), since)
		rs.tGraph.Add(int64(time.Since(tg)))
		for _, a := range runs {
			if a.Kind == history.KindAppRun {
				rs.enqueueRun(a)
			}
		}
		rs.tInit.Add(int64(time.Since(t0)))
		return nil
	}, "")
}

// UndoVisit cancels a past page visit: every HTTP request the visit made
// is undone, with effects recursively repaired (§5.5). Non-administrators
// may not cause conflicts for other users; such repairs abort.
func (w *Warp) UndoVisit(clientID string, visitID int64, admin bool) (*Report, error) {
	return w.undoVisit(clientID, visitID, admin, false)
}

// undoVisit is UndoVisit with the conflict-dequeue marker carried into
// the durable repair intent (ResolveConflictByCancel sets it).
func (w *Warp) undoVisit(clientID string, visitID int64, admin, dequeue bool) (*Report, error) {
	initiator := clientID
	if admin {
		initiator = "" // administrators may cancel anything
	}
	intent := &RepairIntent{Kind: IntentUndoVisit, Client: clientID, Visit: visitID, Admin: admin, Dequeue: dequeue}
	return w.repair(intent, func(rs *session) error {
		t0 := time.Now()
		w.mu.Lock()
		vlog := w.visitByID[clientID][visitID]
		w.mu.Unlock()
		if vlog == nil {
			return fmt.Errorf("warp: no visit log for %s/%d", clientID, visitID)
		}
		for _, tr := range vlog.Snapshot().Requests {
			rs.cancelExchange(clientID, visitID, tr.RequestID)
		}
		rs.tInit.Add(int64(time.Since(t0)))
		return nil
	}, initiator)
}

// UndoPartition cancels every application run that wrote into one
// time-travel partition at or after time t: the partition-granularity
// intrusion-recovery primitive (§4.1 applied at partition scope — contain
// and repair an intrusion by the partition it landed in). The writing
// runs are found through the history graph's partition edges, their
// effects rolled back through the database's per-partition version index,
// and dirt propagation re-executes everything downstream that read the
// partition afterwards.
func (w *Warp) UndoPartition(p ttdb.Partition, t int64) (*Report, error) {
	intent := &RepairIntent{Kind: IntentUndoPartition, Partition: p.String(), From: t}
	return w.repair(intent, func(rs *session) error {
		t0 := time.Now()
		// Find the write actions into p at or after t via the graph's
		// partition edges (same fan-out as dirt propagation).
		tg := time.Now()
		nodes := rs.partitionNodes(p)
		runs := make(map[history.ActionID]bool)
		var runOrder []history.ActionID
		for _, n := range nodes {
			for _, a := range w.Graph.Writers(n, t) {
				qp, ok := a.Payload.(*QueryPayload)
				if !ok || qp.Superseded.Load() {
					continue
				}
				if !runs[qp.RunAction] {
					runs[qp.RunAction] = true
					runOrder = append(runOrder, qp.RunAction)
				}
			}
		}
		rs.tGraph.Add(int64(time.Since(tg)))
		// Cancel each writing run outright, exactly as UndoVisit cancels
		// the runs behind a visit's exchanges.
		for _, id := range runOrder {
			act := w.Graph.Get(id)
			if act == nil {
				continue
			}
			if payload, ok := act.Payload.(*RunPayload); ok {
				rs.cancelRun(payload, payload.Rec.Req.ClientID, payload.Rec.Req.VisitID)
			}
		}
		// Belt and braces: roll the partition itself back via the version
		// index, so even writes whose records lost their row IDs are undone.
		sp := rs.obsTrace.Begin("rollback")
		dirt, err := w.DB.RollbackPartition(p, t)
		sp.End()
		if err != nil {
			return err
		}
		rs.addDirt(append(dirt, p), t)
		rs.tInit.Add(int64(time.Since(t0)))
		return nil
	}, "")
}

// repair runs a full repair session: fork a generation, seed the queue,
// process to fixpoint, drain under suspension, and commit (or abort when a
// non-admin undo caused conflicts for other users).
//
// Durability protocol (persist.go): the intent is logged (after
// re-persisting grown visit logs, which the repair will read) before any
// repair work, aborts log an end marker, and a commit is made durable by
// a checkpoint written under the final suspension. Repair-generation
// mutations are never WAL-logged, so a crash anywhere in between
// recovers the pre-repair state plus the pending intent.
func (w *Warp) repair(intent *RepairIntent, seed func(*session) error, restrictConflictsTo string) (*Report, error) {
	w.repairMu.Lock()
	defer w.repairMu.Unlock()

	// A degraded deployment refuses repair outright: repair rewrites
	// history and must end with a durable commit checkpoint, which the
	// failed storage cannot provide.
	if err := w.degradedErr(); err != nil {
		return nil, err
	}

	// A recovered deployment whose application re-registered older code
	// than the checkpoint recorded must not repair: re-executing recorded
	// runs through mismatched handlers silently corrupts the repaired
	// timeline. A retroactive patch of the stale file itself is the fix
	// and is allowed through.
	if stale := w.StaleFiles(); len(stale) > 0 {
		var bad []string
		for _, f := range stale {
			if intent.Kind == IntentRetroPatch && f == intent.File {
				continue
			}
			bad = append(bad, f)
		}
		if len(bad) > 0 {
			return nil, fmt.Errorf("warp: stale code registration for %s (recovered deployment runs older versions than recorded); re-apply the newer versions before repairing", strings.Join(bad, ", "))
		}
	}

	tStart := time.Now()
	repairsTotal.Inc()
	repairActive.Set(1)
	defer repairActive.Set(0)
	actionsReplayed.Set(0)
	actionsRemaining.Set(0)
	var tr *obs.Trace
	if obs.Enabled() {
		tr = obs.NewTrace("repair:" + intent.Kind.String())
		w.lastRepairTrace.Store(tr)
		defer tr.Finish()
	}
	gen, err := w.DB.BeginRepair()
	if err != nil {
		return nil, err
	}
	if w.pers != nil {
		w.pers.syncVisitLogs()
		if err := w.pers.logIntent(intent); err != nil {
			_ = w.DB.AbortRepair()
			return nil, fmt.Errorf("warp: persisting repair intent: %w", err)
		}
	}
	abort := func() {
		_ = w.DB.AbortRepair()
		if w.pers != nil {
			w.pers.logRepairEnd()
		}
	}
	rs := w.newSession(gen)
	rs.obsTrace = tr
	rs.liveSince = w.Clock.Now()

	// Suspension policy (docs/repair.md "Online repair"): by default the
	// deployment keeps serving while repair runs — live writes pass
	// through the admission gate, which queues them briefly when their
	// partition footprint collides with an in-flight repair item — and
	// the exclusive suspension shrinks to the final commit window below.
	// Config.ExclusiveRepair restores the paper's stop-the-world span.
	exclusive := w.cfg.ExclusiveRepair
	suspended := false
	var suspendedAt time.Time
	suspend := func() {
		if !suspended {
			w.Suspend()
			suspended, suspendedAt = true, time.Now()
		}
	}
	defer func() {
		if suspended {
			w.Resume()
			d := time.Since(suspendedAt)
			suspendHist.Observe(d)
			rs.tracef("resumed live traffic after %v suspended", d)
		}
	}()
	if exclusive {
		suspend()
	} else {
		w.admission.Store(&admissionGate{w: w, rs: rs, sched: rs.sched})
		defer w.admission.Store(nil)
		if w.cfg.RepairSLO > 0 && obs.Enabled() {
			gov := startThrottle(rs.sched, w.cfg.RepairSLO)
			defer gov.halt()
		}
	}

	sp := tr.Begin("frontier")
	err = seed(rs)
	sp.End()
	if err != nil {
		abort()
		return nil, err
	}
	drainPass := func() error {
		sp = tr.Begin("replay")
		err := rs.sched.drain()
		sp.End()
		return err
	}
	if err := drainPass(); err != nil {
		abort()
		return nil, err
	}

	// converge re-checks the actions indexed since the last re-check and
	// drains what that re-queued, until a re-check queues nothing or the
	// pass budget runs out. It returns the items queued, the live actions
	// checked, and the passes drained.
	converge := func(phase string, requeued *obs.Counter, budget int) (queued, live, passes int, err error) {
		for passes < budget {
			n, l := rs.recheck()
			queued, live = queued+n, live+l
			requeued.Add(uint64(n))
			rs.tracef("%s: re-check %d re-queued %d items (%d live actions checked)", phase, passes, n, l)
			if n == 0 {
				return queued, live, passes, nil
			}
			dirt, outcomes := rs.dirtChanges.Load(), rs.outcomeChanges.Load()
			if err := drainPass(); err != nil {
				return queued, live, passes, err
			}
			passes++
			rs.tracef("%s: pass %d drained: %d dirt changes, %d outcome changes", phase, passes,
				rs.dirtChanges.Load()-dirt, rs.outcomeChanges.Load()-outcomes)
		}
		rs.tracef("%s: pass budget %d spent", phase, budget)
		return queued, live, passes, nil
	}

	// Catch-up (online repair): fold in the writes live traffic logged
	// during the bulk drain while the deployment still serves, so the
	// commit window below only has to re-check what arrives after.
	if !exclusive {
		n, _, _, err := converge("catchup", requeuedCatchup, 4)
		rs.rep.CatchupRequeued = n
		if err != nil {
			abort()
			return nil, err
		}
	}

	// Commit window (§4.3): briefly suspend normal operation, re-check
	// the actions logged since the last re-check, and process to
	// fixpoint (docs/repair.md "The commit window").
	suspend()
	rs.rep.CommitRequeued, rs.rep.CommitLiveActions, rs.rep.CommitPasses, err = converge("commit", requeuedCommit, 8)
	if err == nil && w.afterConverge != nil {
		err = w.afterConverge(rs)
	}
	if err != nil {
		abort()
		return nil, err
	}

	// Non-admin undo must not spill conflicts onto other users (§5.5).
	if restrictConflictsTo != "" {
		for _, c := range rs.conflicts {
			if c.Client != restrictConflictsTo {
				if err := w.DB.AbortRepair(); err != nil {
					return nil, err
				}
				if w.pers != nil {
					w.pers.logRepairEnd()
				}
				rs.rep.Aborted = true
				rs.rep.Conflicts = rs.conflicts
				rs.rep.Timing.Total = time.Since(tStart)
				return rs.rep, fmt.Errorf("warp: undo would conflict for user %s; aborted", c.Client)
			}
		}
	}

	commitSpan := tr.Begin("commit")
	defer commitSpan.End()
	if err := w.DB.FinishRepair(); err != nil {
		return nil, err
	}

	// Queue conflicts and cookie invalidations for affected clients.
	w.mu.Lock()
	w.conflicts = append(w.conflicts, rs.conflicts...)
	for client, jar := range rs.jarOverride {
		w.cookieInvalid[client] = jar.Names()
	}
	w.mu.Unlock()

	// Commit point for durability: the checkpoint both persists the
	// repaired state and retires the intent by truncating the WAL. Still
	// under the §4.3 suspension, so the cut is consistent. A crashed
	// store (fault injection / dying process) is fine to ignore — the
	// intent stays pending and the next Open re-runs the repair on the
	// pre-repair state, converging to this same outcome. Any other
	// failure must surface: the in-memory generation has switched, so
	// letting the deployment keep serving (and WAL-logging post-repair
	// records) against an intent that will replay over pre-repair state
	// would make recovery diverge from what was acknowledged.
	if w.pers != nil {
		// Repair rewrote history payloads and visit logs in place, paths
		// the observer-based dirty tracking cannot see; force those
		// sections into the commit checkpoint.
		w.pers.markRepairDirty()
		if err := w.checkpointQuiesced(); err != nil && !errors.Is(err, store.ErrCrashed) {
			rs.rep.Timing.Total = time.Since(tStart)
			return rs.rep, fmt.Errorf("warp: repair committed in memory but its checkpoint failed (intent remains pending): %w", err)
		}
	}

	rs.rep.Conflicts = rs.conflicts
	rs.rep.GraphNodesLoaded = w.Graph.LoadedNodes()
	rs.rep.RepairWorkers = rs.sched.workers
	rs.rep.PeakQueryChecks, rs.rep.PeakRunExecs, rs.rep.PeakVisitReplays = rs.sched.peaks()
	rs.rep.Timing.Init = time.Duration(rs.tInit.Load())
	rs.rep.Timing.Graph = time.Duration(rs.tGraph.Load())
	rs.rep.Timing.Browser = time.Duration(rs.tBrowser.Load())
	rs.rep.Timing.DB = time.Duration(rs.tDB.Load())
	rs.rep.Timing.App = time.Duration(rs.tApp.Load())
	rs.rep.Timing.Total = time.Since(tStart)
	rs.rep.Timing.Ctrl = rs.rep.Timing.Total - rs.rep.Timing.Init - rs.rep.Timing.Graph -
		rs.rep.Timing.Browser - rs.rep.Timing.DB - rs.rep.Timing.App
	if rs.rep.Timing.Ctrl < 0 {
		// With parallel workers the per-layer sums can exceed wall time.
		rs.rep.Timing.Ctrl = 0
	}
	return rs.rep, nil
}
