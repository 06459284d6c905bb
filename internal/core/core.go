// Package core wires WARP together (paper Figure 1): the logging HTTP
// server manager, the application runtime and its repair manager, the
// time-travel database, the browser log store, and the repair controller.
//
// During normal execution every HTTP request flows through HandleRequest,
// which runs the application, records the run and its queries as actions
// in the action history graph, and accounts log storage. Browser
// extensions upload per-visit event logs through UploadVisitLog.
//
// Repair (repair.go) is initiated by RetroPatch or UndoVisit and follows
// the paper's rollback-and-reexecute scheme over the graph.
package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"warp/internal/app"
	"warp/internal/browser"
	"warp/internal/history"
	"warp/internal/httpd"
	"warp/internal/obs"
	"warp/internal/sqldb"
	"warp/internal/store"
	"warp/internal/ttdb"
	"warp/internal/vclock"
)

// Config carries tunables for a WARP deployment.
type Config struct {
	// Seed drives all simulated nondeterminism (tokens, client IDs).
	Seed int64
	// Replay selects browser re-execution fidelity; nil means full WARP
	// replay. The degraded configurations reproduce the paper's Table 4.
	Replay *browser.ReplayConfig
	// ClientLogQuota bounds the number of visit logs retained per client,
	// so one client cannot monopolize (or starve) server log space (§5.2).
	// 0 means the default of 100000.
	ClientLogQuota int
	// RepairWorkers is the number of parallel repair workers the scheduler
	// dispatches ready actions to. Actions on disjoint time-travel
	// partitions repair concurrently; conflicting actions retain the
	// paper's time order. 0 means GOMAXPROCS; 1 reproduces the serial
	// repair engine exactly.
	RepairWorkers int
	// RepairSLO is the live-request p99 latency target an online repair
	// paces itself against: a throttle governor samples the
	// warp_core_request_seconds histogram while repair runs and sheds
	// repair-worker concurrency whenever live p99 exceeds the target
	// (throttle.go). 0 disables the governor; the governor also needs
	// obs enabled to see the histogram.
	RepairSLO time.Duration
	// ExclusiveRepair restores the paper's stop-the-world behavior:
	// the deployment suspends for the whole repair instead of only the
	// final generation-switch commit window. The repair outcome is
	// identical either way (TestOnlineRepairMatchesExclusive); the knob
	// is the baseline for BenchmarkOnlineRepair and an operational
	// escape hatch. See docs/repair.md.
	ExclusiveRepair bool
	// Trace, when set, receives a line for every repair-controller step —
	// the debugging view of what rollback-and-reexecute decided and why.
	Trace func(format string, args ...any)
	// Durability tunes the write-ahead log and snapshot store for
	// deployments created with Open (docs/persistence.md); New ignores
	// it. The zero value selects the store's defaults: windowed group
	// commit, 16 MiB segments, checkpoint every 64 MiB of WAL.
	Durability store.Options
}

// Warp is one WARP-managed web application deployment.
type Warp struct {
	Clock   *vclock.Clock
	DB      *ttdb.DB
	Runtime *app.Runtime
	Graph   *history.Graph

	cfg Config
	rng *rand.Rand
	// rngDraws counts values drawn from rng (browser seeds); persisted in
	// core/meta so a recovered deployment resumes the seeded stream
	// instead of re-issuing recovered client identities. Atomic so the
	// persister's RecordApplied observer — which runs under ttdb lock
	// scopes and must not take w.mu (core.GC holds w.mu while acquiring
	// scopes) — can read it when ordering cursor WAL records ahead of
	// mutation records.
	rngDraws atomic.Int64

	// mu guards the log stores, indexes, queues, and counters below.
	// suspendMu implements the brief repair cut-over suspension (§4.3):
	// requests hold it shared; Suspend takes it exclusively.
	// repairMu serializes repairs.
	mu        sync.Mutex
	suspendMu sync.RWMutex
	repairMu  sync.Mutex

	// Browser log store (§5.2): per-client visit logs under quota.
	visitLogs  map[string][]*browser.VisitLog
	visitByID  map[string]map[int64]*browser.VisitLog
	visitOrder []*browser.VisitLog // all logs in upload order

	// HTTP server manager state: exchange node → app-run action.
	runByHTTP map[history.NodeID]history.ActionID
	srvReqSeq int64 // request counter for extensionless clients

	// Interned history node IDs, so every dependency edge on one node
	// shares one string. partNodes (table → partition → node) is also
	// the partition index repair fans whole-table dirt out over.
	partNodes   map[string]map[ttdb.Partition]history.NodeID
	fileNodes   map[string]history.NodeID
	cookieNodes map[string]history.NodeID
	// fileVersionSets holds one RunPayload.FileVersions map per distinct
	// set of loaded files and versions, shared by every run that loaded
	// exactly those.
	fileVersionSets map[string]map[string]int

	// Cookie invalidation queue (§5.3) and conflict queue (§5.4).
	cookieInvalid map[string][]string
	conflicts     []browser.Conflict

	// Storage accounting (Table 6).
	browserLogBytes int
	appLogBytes     int
	dbLogBytes      int

	// Durable persistence (persist.go). pers is nil for in-memory
	// deployments (New); pendingIntent is the repair a crashed instance
	// left in flight; recovery summarizes what Open restored.
	pers          *persister
	pendingIntent *RepairIntent
	recovery      RecoveryStats

	// lastRepairTrace is the phase trace of the current (or most recent)
	// repair session; set only while obs is enabled. Atomic so Metrics
	// can read it live while a repair runs.
	lastRepairTrace atomic.Pointer[obs.Trace]

	// admission is the live-write admission gate of the currently running
	// online repair (admission.go), nil outside repair. Atomic because
	// every request loads it on its query path.
	admission atomic.Pointer[admissionGate]

	// degraded is the terminal storage-fault record of a deployment in
	// degraded read-only mode (degraded.go), nil while healthy. Atomic
	// because write paths test it without taking Warp.mu.
	degraded atomic.Pointer[degradedState]

	// recoveredFileVersions is the file → version-count map the last
	// checkpoint recorded. The application re-registers its code after
	// Open (code is not persisted); StaleFiles compares the two so a
	// recovered deployment detects stale registration instead of
	// silently replaying with mismatched handlers.
	recoveredFileVersions map[string]int

	// afterConverge, when set, runs in each repair once its commit window
	// has converged, before the commit (export_test.go's differential
	// check of the touched-action re-check).
	afterConverge func(*session) error
}

// New creates a WARP deployment with a fresh clock, database, runtime, and
// history graph.
func New(cfg Config) *Warp {
	if cfg.ClientLogQuota == 0 {
		cfg.ClientLogQuota = 100000
	}
	if cfg.Replay == nil {
		full := browser.FullReplay
		cfg.Replay = &full
	}
	clock := &vclock.Clock{}
	db := ttdb.Open(clock)
	return &Warp{
		Clock:           clock,
		DB:              db,
		Runtime:         app.NewRuntime(db, cfg.Seed),
		Graph:           history.New(),
		cfg:             cfg,
		rng:             rand.New(rand.NewSource(cfg.Seed ^ 0x5741525f)),
		visitLogs:       make(map[string][]*browser.VisitLog),
		visitByID:       make(map[string]map[int64]*browser.VisitLog),
		runByHTTP:       make(map[history.NodeID]history.ActionID),
		partNodes:       make(map[string]map[ttdb.Partition]history.NodeID),
		fileNodes:       make(map[string]history.NodeID),
		cookieNodes:     make(map[string]history.NodeID),
		fileVersionSets: make(map[string]map[string]int),
		cookieInvalid:   make(map[string][]string),
	}
}

// RunPayload is the graph payload for an application-run action.
type RunPayload struct {
	Rec *app.RunRecord
	// FileVersions snapshots the code versions the run used, so repair can
	// prune runs whose code is unchanged. Read-only: runs that loaded the
	// same files at the same versions share one map.
	FileVersions map[string]int
	// QueryActions are the graph actions for the run's queries. Guarded by
	// Warp.mu once the run action is published to the graph.
	QueryActions []history.ActionID
	// Superseded marks runs replaced or cancelled during a repair: their
	// recorded effects no longer describe the repaired timeline. Atomic
	// because parallel repair workers flag and test it concurrently.
	Superseded atomic.Bool
	// Repaired marks actions appended by repair itself.
	Repaired bool
}

// QueryPayload is the graph payload for a query action.
type QueryPayload struct {
	Rec       *ttdb.Record
	RunAction history.ActionID
	// Superseded is atomic for the same reason as RunPayload.Superseded.
	Superseded atomic.Bool
	Repaired   bool

	// run is the owning run's payload; Rec aliases run.Rec.Queries[i].
	// The persistence codec uses it to encode the alias as a reference
	// (codec.go) without a graph lookup.
	run *RunPayload
}

// httpNodeFor derives the HTTP exchange node for a request, assigning a
// server-side identifier to requests from extensionless clients (the
// paper's server-side request IDs, §7). Caller holds w.mu.
func (w *Warp) httpNodeFor(req *httpd.Request) history.NodeID {
	if req.ClientID != "" {
		return history.HTTPNode(req.ClientID, req.VisitID, req.RequestID)
	}
	w.srvReqSeq++
	return history.HTTPNode("srv", 0, w.srvReqSeq)
}

// httpNodeForReplay derives the exchange node for a replay-path request,
// which always carries client identifiers.
func (w *Warp) httpNodeForReplay(req *httpd.Request) history.NodeID {
	return history.HTTPNode(req.ClientID, req.VisitID, req.RequestID)
}

// HandleRequest serves one request under normal execution: route, run the
// application, record the run in the history graph. It is the Apache +
// WARP-logging-module path of Figure 1. Requests block briefly while a
// finishing repair cuts over (§4.3) but otherwise run concurrently with
// repair.
func (w *Warp) HandleRequest(req *httpd.Request) *httpd.Response {
	requestsTotal.Inc()
	if !obs.Enabled() {
		return w.handleRequest(req)
	}
	start := time.Now()
	resp := w.handleRequest(req)
	requestHist.Observe(time.Since(start))
	return resp
}

func (w *Warp) handleRequest(req *httpd.Request) *httpd.Response {
	w.suspendMu.RLock()
	defer w.suspendMu.RUnlock()

	// Cookie invalidation (§5.3): if repair left this client's replayed
	// cookie diverged, delete the cookie on its next contact. The request
	// gets a reduced copy of its cookie set; the browser's jar it shares
	// is left alone.
	w.mu.Lock()
	var invalidated []string
	if names, ok := w.cookieInvalid[req.ClientID]; ok && req.ClientID != "" {
		req.Cookies = req.Cookies.Without(names...)
		invalidated = names
		delete(w.cookieInvalid, req.ClientID)
	}
	w.mu.Unlock()

	file, ok := w.Runtime.RouteOf(req.Path)
	if !ok {
		return httpd.NotFound("no route for " + req.Path)
	}
	rec, err := w.Runtime.Run(file, req, w.liveQueryFunc(), nil)
	if err != nil {
		return httpd.ServerError(err.Error())
	}
	w.recordRun(rec, nil)
	resp := rec.Resp
	for _, n := range invalidated {
		resp.ClearCookie(n)
	}
	return resp
}

// recordRun appends a run and its queries to the action history graph.
// When repaired is non-nil the actions are flagged as produced by repair.
func (w *Warp) recordRun(rec *app.RunRecord, repaired *bool) history.ActionID {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pers != nil {
		// Any fresh Token/RandInt draws this run made advanced the
		// runtime's nondeterminism cursor; log the new position *before*
		// the action records below, so a recovered action always implies
		// the cursor state that produced its draws (a hard crash cannot
		// rewind the stream past values durable state depends on).
		w.pers.logCursors(w.Runtime.RNGCursor(), w.rngDraws.Load())
	}
	httpNode := w.httpNodeFor(rec.Req)
	runAct := &history.Action{
		Kind: history.KindAppRun,
		Time: rec.Time,
	}
	payload := &RunPayload{Rec: rec, FileVersions: w.fileVersionsOf(rec.FilesLoaded)}
	if repaired != nil {
		payload.Repaired = *repaired
	}
	runAct.Payload = payload
	runAct.Inputs = make([]history.Dep, 0, len(rec.FilesLoaded)+2)
	for _, f := range rec.FilesLoaded {
		runAct.Inputs = append(runAct.Inputs, history.Dep{Node: w.fileNode(f), Time: rec.Time})
	}
	runAct.Inputs = append(runAct.Inputs, history.Dep{Node: httpNode, Time: rec.Time})
	runAct.Outputs = append(runAct.Outputs, history.Dep{Node: httpNode, Time: rec.Time})
	if rec.Req.ClientID != "" {
		cookieNode := w.cookieNode(rec.Req.ClientID)
		if rec.Req.Cookies.Len() > 0 {
			runAct.Inputs = append(runAct.Inputs, history.Dep{Node: cookieNode, Time: rec.Time})
		}
		if rec.Resp != nil && (rec.Resp.SetCookies.Len() > 0 || len(rec.Resp.ClearCookies) > 0) {
			runAct.Outputs = append(runAct.Outputs, history.Dep{Node: cookieNode, Time: rec.Time})
		}
	}
	// Account the log bytes before the actions are published: once a
	// query action is in the graph, a running repair may re-execute it
	// and rewrite its record in place.
	w.appLogBytes += rec.ApproxLogBytes()
	w.dbLogBytes += rec.DBLogBytes()
	runID := w.Graph.Append(runAct)
	w.runByHTTP[httpNode] = runID

	for _, q := range rec.Queries {
		qa := &history.Action{
			Kind:    history.KindQuery,
			Time:    q.Time,
			Payload: &QueryPayload{Rec: q, RunAction: runID, Repaired: payload.Repaired, run: payload},
		}
		if len(q.ReadPartitions) > 0 {
			qa.Inputs = make([]history.Dep, 0, len(q.ReadPartitions))
		}
		for _, p := range q.ReadPartitions {
			qa.Inputs = append(qa.Inputs, history.Dep{Node: w.partNode(p), Time: q.Time})
		}
		if len(q.WritePartitions) > 0 {
			qa.Outputs = make([]history.Dep, 0, len(q.WritePartitions))
		}
		for _, p := range q.WritePartitions {
			qa.Outputs = append(qa.Outputs, history.Dep{Node: w.partNode(p), Time: q.Time})
		}
		payload.QueryActions = append(payload.QueryActions, w.Graph.Append(qa))
	}
	return runID
}

// partNode interns a partition node and indexes it by table. Caller
// holds w.mu.
func (w *Warp) partNode(p ttdb.Partition) history.NodeID {
	byTable, ok := w.partNodes[p.Table]
	if !ok {
		byTable = make(map[ttdb.Partition]history.NodeID)
		w.partNodes[p.Table] = byTable
	}
	node, ok := byTable[p]
	if !ok {
		node = history.PartitionNode(p.String())
		byTable[p] = node
	}
	return node
}

// fileNode interns a source file's node. Caller holds w.mu.
func (w *Warp) fileNode(file string) history.NodeID {
	node, ok := w.fileNodes[file]
	if !ok {
		node = history.FileNode(file)
		w.fileNodes[file] = node
	}
	return node
}

// cookieNode interns a client's cookie node. Caller holds w.mu.
func (w *Warp) cookieNode(clientID string) history.NodeID {
	node, ok := w.cookieNodes[clientID]
	if !ok {
		node = history.CookieNode(clientID)
		w.cookieNodes[clientID] = node
	}
	return node
}

// fileVersionsOf returns the shared FileVersions map for the current
// versions of files. Caller holds w.mu.
func (w *Warp) fileVersionsOf(files []string) map[string]int {
	var buf [8]int
	vers := buf[:0]
	var key []byte
	for _, f := range files {
		v := w.Runtime.FileVersion(f)
		vers = append(vers, v)
		key = append(key, f...)
		key = append(key, 0)
		key = strconv.AppendInt(key, int64(v), 10)
		key = append(key, 0)
	}
	if m, ok := w.fileVersionSets[string(key)]; ok {
		return m
	}
	m := make(map[string]int, len(files))
	for i, f := range files {
		m[f] = vers[i]
	}
	w.fileVersionSets[string(key)] = m
	return m
}

// UploadVisitLog receives a visit log from a client's browser extension
// and stores it in the per-client log store under quota (§5.2). The log
// object is shared with the live browser, which keeps appending events; in
// the real system uploads are periodic, and the in-process sharing models
// "upload before repair needs it".
func (w *Warp) UploadVisitLog(log *browser.VisitLog) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if log.ClientID == "" {
		return
	}
	visitLogsTotal.Inc()
	log.Time = w.Clock.Now()
	w.insertVisitLogLocked(log)
	if w.pers != nil {
		w.pers.logVisit(log)
	}
}

// insertVisitLogLocked stores one visit log in the per-client stores
// under quota. Shared by live uploads and WAL recovery so the quota and
// accounting rules cannot drift apart. Caller holds w.mu.
func (w *Warp) insertVisitLogLocked(log *browser.VisitLog) {
	logs := w.visitLogs[log.ClientID]
	if len(logs) >= w.cfg.ClientLogQuota {
		// Quota: drop the oldest log for this client, so one client cannot
		// cause collection of others' entries (§5.2).
		drop := logs[0]
		logs = logs[1:]
		delete(w.visitByID[log.ClientID], drop.VisitID)
	}
	w.visitLogs[log.ClientID] = append(logs, log)
	byID, ok := w.visitByID[log.ClientID]
	if !ok {
		byID = make(map[int64]*browser.VisitLog)
		w.visitByID[log.ClientID] = byID
	}
	byID[log.VisitID] = log
	w.visitOrder = append(w.visitOrder, log)
	w.browserLogBytes += log.ApproxLogBytes()
}

// NewBrowser creates a client browser wired to this deployment: its
// transport is the WARP server and its extension uploads logs here.
func (w *Warp) NewBrowser() *browser.Browser {
	w.mu.Lock()
	draws := w.rngDraws.Add(1)
	rng := rand.New(rand.NewSource(w.rng.Int63()))
	w.mu.Unlock()
	if w.pers != nil {
		w.pers.logCursors(w.Runtime.RNGCursor(), draws)
	}
	return browser.New(w.HandleRequest, w.UploadVisitLog, rng)
}

// StaleFiles returns the source files whose currently registered version
// count is behind what the recovered checkpoint recorded — evidence that
// the application re-registered older code than the deployment was
// running when it went down (e.g. a retroactive patch not yet
// re-applied). Repair refuses to run while any file is stale, since
// re-executing recorded runs through mismatched handlers would silently
// corrupt the repaired timeline; re-Patch the files (or resume the
// pending patch intent) to clear them.
func (w *Warp) StaleFiles() []string {
	var out []string
	for f, recorded := range w.recoveredFileVersions {
		if w.Runtime.FileVersion(f) < recorded {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// Suspend blocks request processing until Resume: the brief cut-over
// suspension at the end of repair (§4.3). In-flight requests complete
// first.
func (w *Warp) Suspend() { w.suspendMu.Lock() }

// Resume re-enables request processing.
func (w *Warp) Resume() { w.suspendMu.Unlock() }

// Conflicts returns the queued conflicts awaiting user resolution (§5.4).
func (w *Warp) Conflicts() []browser.Conflict {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]browser.Conflict{}, w.conflicts...)
}

// ConflictsFor returns the queued conflicts for one client, the set shown
// on the user's conflict resolution page when they next log in.
func (w *Warp) ConflictsFor(clientID string) []browser.Conflict {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []browser.Conflict
	for _, c := range w.conflicts {
		if c.Client == clientID {
			out = append(out, c)
		}
	}
	return out
}

// PendingCookieInvalidation reports whether a client's cookies are queued
// for deletion (§5.3).
func (w *Warp) PendingCookieInvalidation(clientID string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.cookieInvalid[clientID]
	return ok
}

// ResolveConflictByCancel implements the paper's conflict resolution UI
// (§5.4, §6): the user, shown a queued conflict for one of their page
// visits, chooses to cancel that visit altogether — all of its HTTP
// requests are undone in a new repair, and the conflict is dequeued.
// Canceling one's own conflicted visit is permitted even when it
// propagates conflicts to other users (§5.5's exception).
func (w *Warp) ResolveConflictByCancel(clientID string, visitID int64) (*Report, error) {
	w.mu.Lock()
	found := false
	rest := w.conflicts[:0]
	for _, c := range w.conflicts {
		if c.Client == clientID && c.VisitID == visitID {
			found = true
			continue
		}
		rest = append(rest, c)
	}
	w.conflicts = rest
	w.mu.Unlock()
	if !found {
		return nil, fmt.Errorf("warp: no queued conflict for %s/%d", clientID, visitID)
	}
	// The §5.5 exception: resolving one's own reported conflict may cancel
	// even if that creates conflicts for others, so this runs with
	// administrator-strength undo. The dequeue marker travels with the
	// durable repair intent so a crashed resolution resumes completely.
	return w.undoVisit(clientID, visitID, true, true)
}

// StorageStats reports log storage by layer, the Table 6 accounting.
type StorageStats struct {
	BrowserLogBytes int
	AppLogBytes     int
	DBLogBytes      int
	DBRowBytes      int
	PageVisits      int
}

// Storage returns current storage statistics.
func (w *Warp) Storage() StorageStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return StorageStats{
		BrowserLogBytes: w.browserLogBytes,
		AppLogBytes:     w.appLogBytes,
		DBLogBytes:      w.dbLogBytes,
		DBRowBytes:      w.DB.Stats().ApproxBytes,
		PageVisits:      len(w.visitOrder),
	}
}

// ExecStats returns the database layer's execution-path counters:
// statement-cache and compiled-plan hit rates and index-scan vs
// full-scan counts. A plan hit-rate near zero means statements are
// being rebuilt per call; a high full-scan share means the workload's
// predicates are not riding the indexes.
func (w *Warp) ExecStats() sqldb.ExecStats {
	return w.DB.ExecStats()
}

// Metrics is the deployment-wide observability snapshot: the engine's
// execution counters, every registered obs metric (latency histograms,
// progress gauges, throughput counters across sqldb/ttdb/store/core),
// and — when obs is enabled and a repair has run — the phase trace of
// the current or most recent repair session.
type Metrics struct {
	Exec   sqldb.ExecStats
	Obs    obs.Snapshot
	Repair *obs.TraceSnapshot
}

// Metrics snapshots the deployment's observability state. Safe to call
// at any time, including while a repair is running — the repair trace
// reflects live phase progress.
func (w *Warp) Metrics() Metrics {
	m := Metrics{Exec: w.ExecStats(), Obs: obs.Default.Snapshot()}
	if tr := w.lastRepairTrace.Load(); tr != nil {
		s := tr.Snapshot()
		m.Repair = &s
	}
	return m
}

// GC discards history older than beforeTime from both the database and
// the graph, moving both horizons together (§4.2).
func (w *Warp) GC(beforeTime int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.DB.GC(beforeTime); err != nil {
		return err
	}
	w.Graph.GC(beforeTime)
	return nil
}

// visitsOfClient returns a client's visit logs in upload order.
func (w *Warp) visitsOfClient(clientID string) []*browser.VisitLog {
	return w.visitLogs[clientID]
}

// childVisits returns the visits created from a parent visit, in order.
func (w *Warp) childVisits(clientID string, parentVisit int64) []*browser.VisitLog {
	var out []*browser.VisitLog
	for _, v := range w.visitLogs[clientID] {
		if v.ParentVisit == parentVisit {
			out = append(out, v)
		}
	}
	return out
}
