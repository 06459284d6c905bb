// The repair scheduler: a dependency-scheduled, worker-pool executor for
// repair work items.
//
// The paper's repair loop pops one item at a time from a time-ordered
// heap. But the action history graph already encodes which actions are
// independent: two actions whose partition dependency sets are disjoint
// cannot observe each other's effects, because re-execution happens at the
// actions' original logical times against the time-travel database. The
// scheduler exploits this: it maintains the same time-ordered heap, but
// dispatches every item whose dependency footprint does not conflict with
// an earlier unfinished item to a pool of N workers. Conflicting items
// retain the paper's strict time order.
//
// Page-visit replays are exclusive *per client*: a replay threads one
// client's cookie jar and navigation state through its runs, so two
// visits of the same client serialize, while independent clients'
// visits replay in parallel. A visit replay also waits for the client's
// in-flight run and query items: their outcome can cascade into an
// earlier visit of the same client, which reshapes the jar and the
// navigation every later visit replays with. A visit's footprint claims
// the client's cookie node, the visit's subtree of exchange nodes (a
// replay may cancel or re-serve any of them), and the partition edges of
// the runs behind those exchanges — so visit replays also order
// correctly against individual query checks and run re-executions
// touching the same state.
//
// Footprints are derived from the history graph's dependency edges
// (Graph.PartitionDepsOf), not recomputed from query records, so a work
// item's conflict set is exactly the partition overlap the graph already
// indexed. With one worker the scheduler runs the identical serial heap
// walk the paper describes.
package core

import (
	"container/heap"
	"fmt"
	"net/url"
	"sync"

	"warp/internal/browser"
	"warp/internal/history"
	"warp/internal/ttdb"
)

// workKind classifies repair work items.
type workKind uint8

const (
	workQueryCheck  workKind = iota // re-execute / re-check one query
	workRunExec                     // re-execute one application run
	workVisitReplay                 // replay one browser page visit
	numWorkKinds
)

// workItem is one queued unit of repair work, ordered by original time.
type workItem struct {
	kind workKind
	time int64
	seq  int64

	action history.ActionID // query / run items
	// runAction is the run the item belongs to: the owning run for query
	// items, the action itself for run items. A query check never runs
	// concurrently with its owning run's re-execution.
	runAction history.ActionID

	client string // visit items
	visit  int64
	// navOverride carries a replayed parent's re-derived navigation
	// request for the child visit's main request (it may differ from the
	// recorded one, e.g. after a text merge).
	navMethod string
	navURL    string
	navForm   url.Values
	hasNav    bool

	// fp caches the item's footprint across dispatch scans. A cached
	// footprint can under-claim partitions an in-flight write discovers
	// later (AddDeps), but that is safe: the discovering write marks
	// those partitions dirty, which re-enqueues every reader already
	// indexed on them, and the controller's re-check (session.recheck)
	// re-enqueues the reader whose edges were indexed after that dirt.
	fp *footprint
}

type workQueue []*workItem

func (q workQueue) Len() int { return len(q) }
func (q workQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q workQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *workQueue) Push(x any)   { *q = append(*q, x.(*workItem)) }
func (q *workQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// footprint is the dependency set a work item claims while in flight.
type footprint struct {
	reads  *ttdb.PartitionSet
	writes *ttdb.PartitionSet
	// nodeReads/nodeWrites carry the non-partition dependency nodes
	// (cookies, HTTP exchanges), so e.g. two runs updating one client's
	// cookies keep their time order.
	nodeReads  map[history.NodeID]bool
	nodeWrites map[history.NodeID]bool
	run        history.ActionID
	// client is the browser client the item acts for: the replayed
	// visit's, or the request's behind a run or query item. replay marks
	// visit replays. A replay conflicts with every item of its client
	// (replays thread the client's cookie jar and navigation state, and a
	// run or query item of the client can cascade into an earlier visit
	// of it); run and query items of one client do not conflict through
	// the client alone.
	client string
	replay bool
}

// conflicts reports whether two footprints must not be in flight together.
func (a *footprint) conflicts(b *footprint) bool {
	if a.run != 0 && a.run == b.run {
		return true
	}
	if a.client != "" && a.client == b.client && (a.replay || b.replay) {
		return true
	}
	if a.writes.Overlaps(b.reads) || a.writes.Overlaps(b.writes) || b.writes.Overlaps(a.reads) {
		return true
	}
	if nodesIntersect(a.nodeWrites, b.nodeReads) || nodesIntersect(a.nodeWrites, b.nodeWrites) ||
		nodesIntersect(b.nodeWrites, a.nodeReads) {
		return true
	}
	return false
}

func nodesIntersect(a, b map[history.NodeID]bool) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for n := range a {
		if b[n] {
			return true
		}
	}
	return false
}

// lookahead bounds how many blocked items a dispatch scan considers
// before waiting for a completion. This is a deliberate trade: on a
// heavily skewed workload (one hot partition blocking >lookahead earlier
// items) a dispatchable item beyond the window waits for the next
// completion-triggered rescan even though workers are idle, in exchange
// for bounding each scan's cost under the scheduler lock. The busy==0
// first-pop case always dispatches, so the cap can never stall the
// scheduler outright.
const lookahead = 64

// scheduler owns the repair work queue and the worker pool.
type scheduler struct {
	rs      *session
	workers int
	maxIter int

	mu          sync.Mutex
	cond        *sync.Cond
	pending     workQueue
	pendingKeys map[itemKey]bool
	blocked     []*workItem
	inflight    map[*workItem]*footprint
	busy        int
	iterations  int
	err         error
	// running counts in-flight items per work kind; peak, the most ever
	// in flight at once (Report's Peak* fields), is recorded at dispatch
	// under mu, so no worker can move it while the coordinator scans.
	running [numWorkKinds]int
	peak    [numWorkKinds]int
	// limit is the SLO governor's concurrency cap (throttle.go):
	// 0 means unthrottled. Already-dispatched items finish; the
	// coordinator just stops dispatching above the cap.
	limit int
}

func newScheduler(rs *session, workers, maxIter int) *scheduler {
	s := &scheduler{
		rs:          rs,
		workers:     workers,
		maxIter:     maxIter,
		pendingKeys: make(map[itemKey]bool),
		inflight:    make(map[*workItem]*footprint),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// itemKey is a work item's deduplication identity. A comparable struct
// (not a formatted string) because dirt propagation probes and inserts
// keys millions of times during a large repair.
type itemKey struct {
	kind   workKind
	action history.ActionID
	client string
	visit  int64
}

func keyOf(it *workItem) itemKey {
	if it.kind == workVisitReplay {
		return itemKey{kind: workVisitReplay, client: it.client, visit: it.visit}
	}
	return itemKey{kind: it.kind, action: it.action}
}

func runKeyOf(run history.ActionID) itemKey {
	return itemKey{kind: workRunExec, action: run}
}

// push enqueues a work item, deduplicating against identical pending items
// (navigation-carrying replacements always enter). It reports whether
// the item entered the queue.
func (s *scheduler) push(it *workItem) bool {
	key := keyOf(it)
	s.mu.Lock()
	if s.pendingKeys[key] && !it.hasNav {
		s.mu.Unlock()
		return false
	}
	s.pendingKeys[key] = true
	s.mu.Unlock()
	it.seq = s.rs.nextSeq()
	s.mu.Lock()
	heap.Push(&s.pending, it)
	s.mu.Unlock()
	actionsRemaining.Add(1)
	s.cond.Broadcast()
	return true
}

// isPending reports whether an item with the given key is queued (or
// blocked awaiting dispatch).
func (s *scheduler) isPending(key itemKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingKeys[key]
}

// pendingLen returns the number of queued items.
func (s *scheduler) pendingLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending) + len(s.blocked)
}

// drain processes the queue to exhaustion: serially with one worker
// (reproducing the paper's heap walk exactly), otherwise with the
// dependency-scheduled worker pool.
func (s *scheduler) drain() error {
	if s.workers <= 1 {
		return s.drainSerial()
	}
	return s.drainParallel()
}

// drainSerial is the paper's single-threaded repair loop.
func (s *scheduler) drainSerial() error {
	for {
		s.mu.Lock()
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return nil
		}
		s.iterations++
		if s.iterations > s.maxIter {
			s.mu.Unlock()
			return fmt.Errorf("warp: repair did not converge after %d steps", s.iterations)
		}
		it := heap.Pop(&s.pending).(*workItem)
		key := keyOf(it)
		delete(s.pendingKeys, key)
		s.peak[it.kind] = max(s.peak[it.kind], 1)
		s.mu.Unlock()
		actionsRemaining.Add(-1)
		s.rs.tracef("pop t=%d kind=%d key=%+v nav=%v", it.time, it.kind, key, it.hasNav)
		if err := s.rs.processTimed(it); err != nil {
			return err
		}
	}
}

// drainParallel runs the dependency-scheduled worker pool: the coordinator
// scans the frontier of the time-ordered queue and hands every
// non-conflicting item to an idle worker; completions and pushes wake it
// to rescan.
func (s *scheduler) drainParallel() error {
	work := make(chan *workItem, s.workers)
	var wg sync.WaitGroup
	for i := 0; i < s.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				s.mu.Lock()
				stopped := s.err != nil
				s.mu.Unlock()
				var err error
				if !stopped {
					err = s.rs.processTimed(it)
				}
				s.complete(it, err)
			}
		}()
	}

	s.mu.Lock()
	for {
		if s.err != nil {
			break
		}
		if len(s.pending) == 0 && len(s.blocked) == 0 && s.busy == 0 {
			break
		}
		if s.busy >= s.effectiveWorkers() {
			s.cond.Wait()
			continue
		}
		it, fp := s.nextDispatchable()
		if it == nil {
			if s.busy == 0 && len(s.pending)+len(s.blocked) > 0 {
				// Cannot happen: with nothing in flight the earliest item
				// never conflicts. Guard against a livelock regardless.
				s.err = fmt.Errorf("warp: repair scheduler stalled with %d queued items", len(s.pending)+len(s.blocked))
				break
			}
			s.cond.Wait()
			continue
		}
		s.iterations++
		if s.iterations > s.maxIter {
			s.err = fmt.Errorf("warp: repair did not converge after %d steps", s.iterations)
			break
		}
		key := keyOf(it)
		delete(s.pendingKeys, key)
		s.inflight[it] = fp
		s.busy++
		s.running[it.kind]++
		s.peak[it.kind] = max(s.peak[it.kind], s.running[it.kind])
		actionsRemaining.Add(-1)
		s.rs.tracef("pop t=%d kind=%d key=%+v nav=%v", it.time, it.kind, key, it.hasNav)
		work <- it // buffered to s.workers; busy < workers, so never blocks
	}
	err := s.err
	s.mu.Unlock()

	close(work)
	wg.Wait()

	s.mu.Lock()
	if err == nil {
		err = s.err
	}
	// A failed drain leaves blocked items around; fold them back so the
	// queue is consistent for inspection.
	for _, it := range s.blocked {
		heap.Push(&s.pending, it)
	}
	s.blocked = s.blocked[:0]
	s.mu.Unlock()
	return err
}

// peaks returns the most query checks, run re-executions and visit
// replays ever in flight at once.
func (s *scheduler) peaks() (queries, runs, visits int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak[workQueryCheck], s.peak[workRunExec], s.peak[workVisitReplay]
}

// effectiveWorkers is the dispatch ceiling under the current throttle.
// Called with s.mu held.
func (s *scheduler) effectiveWorkers() int {
	if s.limit > 0 && s.limit < s.workers {
		return s.limit
	}
	return s.workers
}

// setWorkerLimit installs the governor's concurrency cap (0 lifts it)
// and wakes the coordinator so a raised cap dispatches immediately.
func (s *scheduler) setWorkerLimit(n int) {
	s.mu.Lock()
	s.limit = n
	s.mu.Unlock()
	s.cond.Broadcast()
}

// complete retires an in-flight item and wakes the coordinator.
func (s *scheduler) complete(it *workItem, err error) {
	s.mu.Lock()
	delete(s.inflight, it)
	s.busy--
	s.running[it.kind]--
	if err != nil && s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// nextDispatchable scans the queue in time order for the first item whose
// footprint conflicts with neither an in-flight item nor an earlier
// blocked item. Called with s.mu held; blocked items are re-merged into
// the heap first so the scan order is globally time-sorted.
func (s *scheduler) nextDispatchable() (*workItem, *footprint) {
	for _, it := range s.blocked {
		heap.Push(&s.pending, it)
	}
	s.blocked = s.blocked[:0]

	var ahead []*footprint
	for len(s.pending) > 0 && len(s.blocked) < lookahead {
		it := heap.Pop(&s.pending).(*workItem)
		if it.fp == nil {
			it.fp = s.footprintFor(it)
		}
		fp := it.fp
		ok := true
		for _, in := range s.inflight {
			if fp.conflicts(in) {
				ok = false
				break
			}
		}
		if ok {
			for _, bf := range ahead {
				if fp.conflicts(bf) {
					ok = false
					break
				}
			}
		}
		if ok {
			return it, fp
		}
		s.blocked = append(s.blocked, it)
		ahead = append(ahead, fp)
	}
	return nil, nil
}

// footprintFor derives an item's dependency footprint from the history
// graph's dependency edges.
func (s *scheduler) footprintFor(it *workItem) *footprint {
	if it.kind == workVisitReplay {
		return s.visitFootprint(it)
	}
	fp := newFootprint()
	fp.run = it.runAction
	if run := s.rs.w.Graph.Get(it.runAction); run != nil {
		if p, ok := run.Payload.(*RunPayload); ok {
			fp.client = p.Rec.Req.ClientID
		}
	}
	s.addActionDeps(fp, it.action)
	if it.kind == workRunExec {
		s.addRunQueryDeps(fp, it.action)
	}
	return fp
}

func newFootprint() *footprint {
	return &footprint{
		reads:      ttdb.NewPartitionSet(),
		writes:     ttdb.NewPartitionSet(),
		nodeReads:  make(map[history.NodeID]bool),
		nodeWrites: make(map[history.NodeID]bool),
	}
}

// visitFootprint claims what one page-visit replay can touch: the
// client's cookie jar, the visit's subtree of exchanges (replays cancel
// unmatched children recursively and re-serve any exchange), and the
// dependency edges of the runs behind those exchanges. Effects outside
// this set — a patched page navigating somewhere new, a fresh run
// writing an unclaimed partition — are caught by dirt propagation's
// fixpoint, the same under-claim safety the cached footprints rely on.
func (s *scheduler) visitFootprint(it *workItem) *footprint {
	fp := newFootprint()
	fp.client, fp.replay = it.client, true
	fp.nodeWrites[history.CookieNode(it.client)] = true

	w := s.rs.w
	var runIDs []history.ActionID
	w.mu.Lock()
	var walk func(visit int64)
	walk = func(visit int64) {
		fp.nodeWrites[history.VisitNode(it.client, visit)] = true
		if vlog := w.visitByID[it.client][visit]; vlog != nil {
			for _, tr := range vlog.Snapshot().Requests {
				node := history.HTTPNode(it.client, visit, tr.RequestID)
				fp.nodeWrites[node] = true
				if id, ok := w.runByHTTP[node]; ok {
					runIDs = append(runIDs, id)
				}
			}
		}
		for _, c := range w.childVisits(it.client, visit) {
			walk(c.VisitID)
		}
	}
	walk(it.visit)
	w.mu.Unlock()

	for _, id := range runIDs {
		s.addActionDeps(fp, id)
		s.addRunQueryDeps(fp, id)
	}
	return fp
}

// addRunQueryDeps folds the dependency edges of a run's recorded queries
// into a footprint.
func (s *scheduler) addRunQueryDeps(fp *footprint, run history.ActionID) {
	act := s.rs.w.Graph.Get(run)
	if act == nil {
		return
	}
	payload, ok := act.Payload.(*RunPayload)
	if !ok {
		return
	}
	s.rs.w.mu.Lock()
	qids := append([]history.ActionID{}, payload.QueryActions...)
	s.rs.w.mu.Unlock()
	for _, qid := range qids {
		s.addActionDeps(fp, qid)
	}
}

// addActionDeps folds one action's graph dependency edges into a
// footprint, using the graph's pre-split partition-edge view.
func (s *scheduler) addActionDeps(fp *footprint, id history.ActionID) {
	pd := s.rs.w.Graph.PartitionDepsOf(id)
	for _, name := range pd.PartReads {
		if p, ok := ttdb.ParsePartition(name); ok {
			fp.reads.Add(p)
		}
	}
	for _, name := range pd.PartWrites {
		if p, ok := ttdb.ParsePartition(name); ok {
			fp.writes.Add(p)
		}
	}
	for _, n := range pd.NodeReads {
		fp.nodeReads[n] = true
	}
	for _, n := range pd.NodeWrites {
		fp.nodeWrites[n] = true
	}
}

//
// Session-side queueing helpers
//

// enqueueQuery queues a query check and reports whether it entered the
// queue (false when superseded or already pending).
func (rs *session) enqueueQuery(a *history.Action) bool {
	p, ok := a.Payload.(*QueryPayload)
	if !ok || p.Superseded.Load() {
		return false
	}
	// Dirt propagation re-offers the same query for every partition it
	// reads, every time those partitions gain dirt; probe the pending set
	// before allocating the work item (push re-checks under lock, so a
	// racing duplicate still deduplicates — it just pays the allocation).
	if rs.sched.isPending(itemKey{kind: workQueryCheck, action: a.ID}) {
		return false
	}
	return rs.sched.push(&workItem{kind: workQueryCheck, time: a.Time, action: a.ID, runAction: p.RunAction})
}

func (rs *session) enqueueRun(a *history.Action) {
	if p, ok := a.Payload.(*RunPayload); ok && !p.Superseded.Load() {
		if rs.sched.isPending(itemKey{kind: workRunExec, action: a.ID}) {
			return
		}
		rs.sched.push(&workItem{kind: workRunExec, time: a.Time, action: a.ID, runAction: a.ID})
	}
}

func (rs *session) enqueueVisit(log *browser.VisitLog) {
	key := fmt.Sprintf("v:%s/%d", log.ClientID, log.VisitID)
	rs.mu.Lock()
	active := rs.activeVisit[key]
	rs.mu.Unlock()
	if active {
		return
	}
	rs.sched.push(&workItem{kind: workVisitReplay, time: log.Time, client: log.ClientID, visit: log.VisitID})
}

// process dispatches one work item to its re-execution handler.
func (rs *session) process(it *workItem) error {
	switch it.kind {
	case workQueryCheck:
		return rs.processQuery(it)
	case workRunExec:
		return rs.processRun(it)
	case workVisitReplay:
		return rs.processVisit(it)
	}
	return nil
}
