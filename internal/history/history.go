// Package history implements WARP's action history graph, the data
// structure WARP borrows from Retro (paper §2.1, Figure 1).
//
// A node represents the history of some part of the system over time — a
// source code file, a database partition, an HTTP exchange, a browser page
// visit, a client's cookie. An action represents a unit of (re-)executable
// work — an application run, a database query, a browser page execution, a
// retroactive patch — with input and output dependencies on nodes at
// specific times.
//
// During normal execution the repair managers append actions; during repair
// the controller walks the graph to find what must be re-executed. The
// graph maintains per-node time-sorted indexes so the controller can load
// only the parts of the graph an attack actually touched (the paper's
// incremental loading, §8.5).
package history

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// NodeID names a node. IDs are structured strings, built by the helper
// constructors below.
type NodeID string

// FileNode returns the node for an application source file.
func FileNode(name string) NodeID { return NodeID("file:" + name) }

// PartitionNode returns the node for a database partition. Partition is
// the string form of a ttdb.Partition.
func PartitionNode(partition string) NodeID { return NodeID("part:" + partition) }

// PartitionName returns the partition string of a partition node, undoing
// PartitionNode. ok is false for nodes of other kinds.
func (n NodeID) PartitionName() (string, bool) {
	const prefix = "part:"
	s := string(n)
	if len(s) < len(prefix) || s[:len(prefix)] != prefix {
		return "", false
	}
	return s[len(prefix):], true
}

// HTTPNode returns the node for one HTTP exchange, identified by the
// browser-assigned ⟨client, visit, request⟩ tuple (§5.1).
func HTTPNode(clientID string, visitID, requestID int64) NodeID {
	return NodeID("http:" + clientID + "/" + strconv.FormatInt(visitID, 10) + "/" + strconv.FormatInt(requestID, 10))
}

// VisitNode returns the node for a browser page visit.
func VisitNode(clientID string, visitID int64) NodeID {
	return NodeID(fmt.Sprintf("visit:%s/%d", clientID, visitID))
}

// CookieNode returns the node for a client's cookie state.
func CookieNode(clientID string) NodeID { return NodeID("cookie:" + clientID) }

// ActionID identifies an action in the graph.
type ActionID int64

// Kind classifies actions.
type Kind uint8

// Action kinds.
const (
	KindAppRun    Kind = iota // one run of application code (a "PHP execution")
	KindQuery                 // one SQL query issued by a run
	KindPageVisit             // one browser page execution
	KindPatch                 // a retroactive patch application
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindAppRun:
		return "app-run"
	case KindQuery:
		return "query"
	case KindPageVisit:
		return "page-visit"
	case KindPatch:
		return "patch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Dep is a dependency edge endpoint: a node at a time.
type Dep struct {
	Node NodeID
	Time int64
}

// Action is one unit of recorded, re-executable work.
type Action struct {
	ID      ActionID
	Kind    Kind
	Time    int64 // when the action started (logical clock)
	Inputs  []Dep
	Outputs []Dep
	// Payload carries the kind-specific record (an app-run record, a query
	// record, a page-visit record). The repair managers interpret it.
	Payload any
}

// Observer receives graph change events, in the order they commit. It
// is how a persistence layer follows the graph without the graph knowing
// anything about storage (internal/store encodes these events as WAL
// records); the graph is fully usable with no observer set.
//
// Callbacks run inside the graph's critical section, so the append order
// an observer sees is exactly the graph's order. Implementations must
// not call back into the Graph.
type Observer interface {
	// ActionAppended fires after an action is assigned its ID and
	// indexed. The action's payload is shared, not copied.
	ActionAppended(a *Action)
	// GraphCollected fires after GC removed actions older than
	// beforeTime.
	GraphCollected(beforeTime int64)
}

// Graph is the action history graph. It is safe for concurrent use.
type Graph struct {
	mu sync.RWMutex
	// actions holds each live action at index ID-base. IDs are assigned
	// in append order and recovery restores them in that order, so this
	// is also the append (≈ time) order; collected actions leave nil
	// holes, and live counts the rest.
	actions []*Action
	base    ActionID
	live    int
	nextID  ActionID
	obs     Observer

	// Per-node indexes: actions that read from / wrote to a node, in
	// append order. nodes counts the distinct nodes of both.
	readers map[NodeID][]ActionID
	writers map[NodeID][]ActionID
	nodes   int

	// loadedNodes counts distinct nodes touched by repair-time lookups,
	// approximating the paper's incremental graph loading cost metric.
	loadedNodes map[NodeID]bool

	// muts counts structural mutations (appends, restores, dependency
	// extensions, GC). The persistence layer compares it against the
	// count at the last checkpoint to decide whether the graph section
	// must be rewritten — the graph's side of dirty tracking. In-place
	// payload mutations (repair superseding actions) do not pass through
	// the graph and are force-marked by the repair commit path instead.
	muts int64
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		base:        1,
		readers:     make(map[NodeID][]ActionID),
		writers:     make(map[NodeID][]ActionID),
		loadedNodes: make(map[NodeID]bool),
		nextID:      1,
	}
}

// get returns the live action with the given ID, or nil. Caller holds
// g.mu.
func (g *Graph) get(id ActionID) *Action {
	if id < g.base || id-g.base >= ActionID(len(g.actions)) {
		return nil
	}
	return g.actions[id-g.base]
}

// put stores a at its ID's slot. Caller holds g.mu.
func (g *Graph) put(a *Action) {
	if len(g.actions) == 0 {
		g.base = a.ID
	}
	if a.ID < g.base {
		grown := make([]*Action, int(g.base-a.ID)+len(g.actions))
		copy(grown[g.base-a.ID:], g.actions)
		g.actions, g.base = grown, a.ID
	}
	i := int(a.ID - g.base)
	for len(g.actions) < i {
		g.actions = append(g.actions, nil)
	}
	if i == len(g.actions) {
		g.actions = append(g.actions, a)
	} else {
		g.actions[i] = a
	}
	g.live++
}

// index adds an action's edges to the per-node indexes. Caller holds
// g.mu.
func (g *Graph) index(id ActionID, inputs, outputs []Dep) {
	for _, d := range inputs {
		g.addPosting(g.readers, g.writers, d.Node, id)
	}
	for _, d := range outputs {
		g.addPosting(g.writers, g.readers, d.Node, id)
	}
}

// addPosting appends id to node n's list in index; other is the
// opposite-direction index, consulted to count distinct nodes.
func (g *Graph) addPosting(index, other map[NodeID][]ActionID, n NodeID, id ActionID) {
	ids, ok := index[n]
	if !ok {
		if _, seen := other[n]; !seen {
			g.nodes++
		}
	}
	index[n] = append(ids, id)
}

// publishSize updates the history size gauges. Caller holds g.mu.
func (g *Graph) publishSize() {
	historyActions.Set(int64(g.live))
	historyNodes.Set(int64(g.nodes))
}

// SetObserver installs the graph's change observer (nil to remove).
// Install before concurrent use; the observer is not re-notified of
// actions already in the graph.
func (g *Graph) SetObserver(o Observer) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.obs = o
}

// Append records a new action and returns its assigned ID.
func (g *Graph) Append(a *Action) ActionID {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.muts++
	a.ID = g.nextID
	g.nextID++
	g.put(a)
	g.index(a.ID, a.Inputs, a.Outputs)
	g.publishSize()
	if g.obs != nil {
		g.obs.ActionAppended(a)
	}
	return a.ID
}

// RestoreAction re-appends a previously recorded action during recovery,
// preserving its original ID (recovery replays actions in their logged
// append order, so the graph's order is reproduced exactly). The
// observer is not notified: restored actions are already durable.
func (g *Graph) RestoreAction(a *Action) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if a.ID <= 0 {
		return fmt.Errorf("history: restore of action without ID")
	}
	if g.get(a.ID) != nil {
		return fmt.Errorf("history: restore of duplicate action %d", a.ID)
	}
	g.muts++
	g.put(a)
	g.index(a.ID, a.Inputs, a.Outputs)
	g.publishSize()
	if a.ID >= g.nextID {
		g.nextID = a.ID + 1
	}
	return nil
}

// Get returns an action by ID, or nil if unknown (e.g. collected).
func (g *Graph) Get(id ActionID) *Action {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.get(id)
}

// AddDeps extends an existing action with additional dependencies,
// indexing them, and reports whether any edge was new. Repair uses this
// when a re-executed query's record replaces the original in place but
// touches new partitions.
func (g *Graph) AddDeps(id ActionID, inputs, outputs []Dep) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	a := g.get(id)
	if a == nil {
		return false
	}
	g.muts++
	added := false
	have := make(map[Dep]bool, len(a.Inputs)+len(a.Outputs))
	for _, d := range a.Inputs {
		have[d] = true
	}
	for _, d := range inputs {
		if !have[d] {
			a.Inputs = append(a.Inputs, d)
			g.addPosting(g.readers, g.writers, d.Node, id)
			added = true
		}
	}
	have = make(map[Dep]bool, len(a.Outputs))
	for _, d := range a.Outputs {
		have[d] = true
	}
	for _, d := range outputs {
		if !have[d] {
			a.Outputs = append(a.Outputs, d)
			g.addPosting(g.writers, g.readers, d.Node, id)
			added = true
		}
	}
	g.publishSize()
	return added
}

// Mark returns a watermark for Since: every action appended after the
// call has an ID at or above it.
func (g *Graph) Mark() ActionID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nextID
}

// Since returns the live actions appended at or after mark, in append
// order, and the mark to pass next time. Repair uses it to find the
// actions whose dependency edges were indexed after a given point.
func (g *Graph) Since(mark ActionID) ([]*Action, ActionID) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []*Action
	if mark < g.base {
		mark = g.base
	}
	for id := mark; id < g.nextID; id++ {
		if a := g.get(id); a != nil {
			out = append(out, a)
		}
	}
	return out, g.nextID
}

// PartitionDeps is the dependency-edge view of one action with its
// partition edges pre-split from its plain node edges: the partition
// names (ttdb.Partition string forms, parseable with ttdb.ParsePartition)
// an action reads and writes, and the remaining non-partition nodes
// (HTTP exchanges, cookies, files). The repair scheduler's frontier
// builds work-item footprints from this view, so two actions on the same
// table are admitted concurrently exactly when their partition sets do
// not overlap.
type PartitionDeps struct {
	PartReads  []string
	PartWrites []string
	NodeReads  []NodeID
	NodeWrites []NodeID
}

// PartitionDepsOf returns an action's dependency edges split into
// partition edges and plain node edges. Unlike reading
// Action.Inputs/Outputs directly, it is safe against a concurrent AddDeps
// extending the action.
func (g *Graph) PartitionDepsOf(id ActionID) PartitionDeps {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var pd PartitionDeps
	a := g.get(id)
	if a == nil {
		return pd
	}
	for _, d := range a.Inputs {
		if name, ok := d.Node.PartitionName(); ok {
			pd.PartReads = append(pd.PartReads, name)
		} else {
			pd.NodeReads = append(pd.NodeReads, d.Node)
		}
	}
	for _, d := range a.Outputs {
		if name, ok := d.Node.PartitionName(); ok {
			pd.PartWrites = append(pd.PartWrites, name)
		} else {
			pd.NodeWrites = append(pd.NodeWrites, d.Node)
		}
	}
	return pd
}

// Len returns the number of live actions.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.live
}

// Readers returns the actions with an input dependency on node at or after
// fromTime, in time order.
func (g *Graph) Readers(node NodeID, fromTime int64) []*Action {
	return g.lookup(g.readers, node, fromTime)
}

// Writers returns the actions with an output dependency on node at or
// after fromTime, in time order.
func (g *Graph) Writers(node NodeID, fromTime int64) []*Action {
	return g.lookup(g.writers, node, fromTime)
}

func (g *Graph) lookup(index map[NodeID][]ActionID, node NodeID, fromTime int64) []*Action {
	g.mu.Lock()
	g.loadedNodes[node] = true
	ids := index[node]
	out := make([]*Action, 0, len(ids))
	for _, id := range ids {
		a := g.get(id)
		if a != nil && a.Time >= fromTime {
			out = append(out, a)
		}
	}
	g.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// ByKind returns all live actions of a kind, in time order. Used by
// repair initialization (e.g. find every app run that loaded a file) and by
// tests.
func (g *Graph) ByKind(k Kind) []*Action {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []*Action
	for _, a := range g.actions {
		if a != nil && a.Kind == k {
			out = append(out, a)
		}
	}
	return out
}

// All returns every live action in append order.
func (g *Graph) All() []*Action {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*Action, 0, g.live)
	for _, a := range g.actions {
		if a != nil {
			out = append(out, a)
		}
	}
	return out
}

// LoadedNodes reports how many distinct nodes repair-time lookups have
// touched, the incremental-loading metric of §8.5.
func (g *Graph) LoadedNodes() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.loadedNodes)
}

// ResetLoadStats clears the loaded-node accounting (e.g. between repairs).
func (g *Graph) ResetLoadStats() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.loadedNodes = make(map[NodeID]bool)
}

// GC removes actions older than beforeTime, in sync with the time-travel
// database's version GC (§4.2): repair needs both the old row versions and
// the graph entries, so both horizons move together.
func (g *Graph) GC(beforeTime int64) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	removed := 0
	for i, a := range g.actions {
		if a != nil && a.Time < beforeTime {
			g.actions[i] = nil
			removed++
		}
	}
	if removed > 0 {
		g.live -= removed
		g.muts++
		// Drop the leading holes, releasing their backing array.
		first := 0
		for first < len(g.actions) && g.actions[first] == nil {
			first++
		}
		g.actions = append([]*Action(nil), g.actions[first:]...)
		g.base += ActionID(first)
		// Rebuild indexes without the dead actions.
		g.readers = make(map[NodeID][]ActionID)
		g.writers = make(map[NodeID][]ActionID)
		g.nodes = 0
		for _, a := range g.actions {
			if a != nil {
				g.index(a.ID, a.Inputs, a.Outputs)
			}
		}
		g.publishSize()
	}
	if removed > 0 && g.obs != nil {
		g.obs.GraphCollected(beforeTime)
	}
	return removed
}

// MutationCount returns the number of structural mutations the graph
// has seen. The persistence layer snapshots it at checkpoint time and
// rewrites the graph section only when it has advanced since.
func (g *Graph) MutationCount() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.muts
}

// ApproxBytes estimates the log size of the graph, for Table 6 storage
// accounting. sizer is consulted for each payload; it may be nil.
func (g *Graph) ApproxBytes(sizer func(payload any) int) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, a := range g.actions {
		if a == nil {
			continue
		}
		n += 16 // id + time
		for _, d := range a.Inputs {
			n += len(d.Node) + 8
		}
		for _, d := range a.Outputs {
			n += len(d.Node) + 8
		}
		if sizer != nil {
			n += sizer(a.Payload)
		}
	}
	return n
}
