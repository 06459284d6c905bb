package history

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestAppendAndLookup(t *testing.T) {
	g := New()
	file := FileNode("edit.php")
	part := PartitionNode("pages/title=tMain")

	a1 := &Action{Kind: KindAppRun, Time: 10, Inputs: []Dep{{Node: file, Time: 10}}, Outputs: []Dep{{Node: part, Time: 11}}}
	a2 := &Action{Kind: KindQuery, Time: 12, Inputs: []Dep{{Node: part, Time: 12}}}
	a3 := &Action{Kind: KindAppRun, Time: 20, Inputs: []Dep{{Node: file, Time: 20}}}
	id1 := g.Append(a1)
	g.Append(a2)
	g.Append(a3)

	if g.Len() != 3 {
		t.Fatalf("len = %d", g.Len())
	}
	if got := g.Get(id1); got != a1 {
		t.Fatal("Get returned wrong action")
	}

	readers := g.Readers(file, 0)
	if len(readers) != 2 || readers[0] != a1 || readers[1] != a3 {
		t.Fatalf("readers of file = %v", readers)
	}
	readers = g.Readers(file, 15)
	if len(readers) != 1 || readers[0] != a3 {
		t.Fatalf("readers from t=15 = %v", readers)
	}
	writers := g.Writers(part, 0)
	if len(writers) != 1 || writers[0] != a1 {
		t.Fatalf("writers of part = %v", writers)
	}
}

func TestByKindAndOrder(t *testing.T) {
	g := New()
	for i := 0; i < 10; i++ {
		kind := KindAppRun
		if i%2 == 1 {
			kind = KindQuery
		}
		g.Append(&Action{Kind: kind, Time: int64(i)})
	}
	runs := g.ByKind(KindAppRun)
	if len(runs) != 5 {
		t.Fatalf("runs = %d", len(runs))
	}
	for i := 1; i < len(runs); i++ {
		if runs[i].Time < runs[i-1].Time {
			t.Fatal("ByKind must preserve time order")
		}
	}
}

func TestReadersSortedByTime(t *testing.T) {
	g := New()
	n := NodeID("part:x")
	// Append out of time order; lookups must still return time order.
	g.Append(&Action{Kind: KindQuery, Time: 30, Inputs: []Dep{{Node: n, Time: 30}}})
	g.Append(&Action{Kind: KindQuery, Time: 10, Inputs: []Dep{{Node: n, Time: 10}}})
	g.Append(&Action{Kind: KindQuery, Time: 20, Inputs: []Dep{{Node: n, Time: 20}}})
	rs := g.Readers(n, 0)
	if len(rs) != 3 || rs[0].Time != 10 || rs[1].Time != 20 || rs[2].Time != 30 {
		t.Fatalf("order = %v", []int64{rs[0].Time, rs[1].Time, rs[2].Time})
	}
}

func TestGC(t *testing.T) {
	g := New()
	n := NodeID("part:x")
	for i := 0; i < 100; i++ {
		g.Append(&Action{Kind: KindQuery, Time: int64(i), Inputs: []Dep{{Node: n, Time: int64(i)}}})
	}
	removed := g.GC(50)
	if removed != 50 {
		t.Fatalf("removed = %d", removed)
	}
	if g.Len() != 50 {
		t.Fatalf("len = %d", g.Len())
	}
	rs := g.Readers(n, 0)
	if len(rs) != 50 || rs[0].Time != 50 {
		t.Fatalf("post-GC readers: %d from %d", len(rs), rs[0].Time)
	}
	// Collected actions are gone from Get.
	if g.Get(1) != nil {
		t.Fatal("collected action still reachable")
	}
}

// TestSizeGauges checks warp_history_actions and warp_history_nodes
// through appends, dependency extension, GC and recovery restores.
func TestSizeGauges(t *testing.T) {
	check := func(step string, actions, nodes int64) {
		t.Helper()
		if got := historyActions.Value(); got != actions {
			t.Errorf("%s: warp_history_actions = %d, want %d", step, got, actions)
		}
		if got := historyNodes.Value(); got != nodes {
			t.Errorf("%s: warp_history_nodes = %d, want %d", step, got, nodes)
		}
	}
	g := New()
	http1, http2 := HTTPNode("c", 1, 1), HTTPNode("c", 1, 2)
	run1 := &Action{Kind: KindAppRun, Time: 1,
		Inputs: []Dep{{Node: FileNode("a.php"), Time: 1}, {Node: http1, Time: 1}}, Outputs: []Dep{{Node: http1, Time: 1}}}
	q1 := &Action{Kind: KindQuery, Time: 2, Inputs: []Dep{{Node: "part:t/*", Time: 2}}}
	run2 := &Action{Kind: KindAppRun, Time: 3,
		Inputs: []Dep{{Node: FileNode("a.php"), Time: 3}, {Node: http2, Time: 3}}, Outputs: []Dep{{Node: http2, Time: 3}}}
	g.Append(run1)
	g.Append(q1)
	g.Append(run2)
	check("append", 3, 4)
	g.AddDeps(q1.ID, nil, []Dep{{Node: "part:t/*", Time: 2}, {Node: "part:u/*", Time: 2}})
	check("add deps", 3, 5)
	g.GC(3)
	check("gc", 1, 2)

	// Restores keep their IDs: out of order and with gaps, the graph
	// still lists actions in ID (original append) order.
	r := New()
	for _, id := range []ActionID{5, 7, 3} {
		if err := r.RestoreAction(&Action{ID: id, Kind: KindQuery, Time: int64(id), Inputs: []Dep{{Node: "part:t/*", Time: int64(id)}}}); err != nil {
			t.Fatal(err)
		}
	}
	check("restore", 3, 1)
	if err := r.RestoreAction(&Action{ID: 5, Kind: KindQuery}); err == nil {
		t.Fatal("duplicate restore accepted")
	}
	var ids []ActionID
	for _, a := range r.All() {
		ids = append(ids, a.ID)
	}
	if fmt.Sprint(ids) != "[3 5 7]" || r.Get(4) != nil || r.Get(7) == nil || r.Len() != 3 {
		t.Fatalf("restored graph lists %v (len %d)", ids, r.Len())
	}
	if id := r.Append(&Action{Kind: KindQuery, Time: 9}); id != 8 {
		t.Fatalf("append after restore got ID %d, want 8", id)
	}
}

func TestLoadedNodesAccounting(t *testing.T) {
	g := New()
	g.Append(&Action{Kind: KindQuery, Time: 1, Inputs: []Dep{{Node: "part:a", Time: 1}}})
	g.ResetLoadStats()
	g.Readers("part:a", 0)
	g.Readers("part:a", 0) // same node: still one
	g.Readers("part:b", 0) // miss still counts as a load probe
	if got := g.LoadedNodes(); got != 2 {
		t.Fatalf("loaded nodes = %d, want 2", got)
	}
}

func TestApproxBytes(t *testing.T) {
	g := New()
	g.Append(&Action{Kind: KindQuery, Time: 1, Inputs: []Dep{{Node: "part:abc", Time: 1}}, Payload: "x"})
	n := g.ApproxBytes(func(p any) int { return len(p.(string)) })
	if n <= 0 {
		t.Fatalf("bytes = %d", n)
	}
	if g.ApproxBytes(nil) <= 0 {
		t.Fatal("nil sizer must still count structure")
	}
}

// TestPropertyIndexConsistency: after random appends and GCs, every
// reader/writer lookup returns exactly the live actions that declared the
// dependency, in time order.
func TestPropertyIndexConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := New()
	type expect struct {
		node NodeID
		time int64
		id   ActionID
	}
	var reads, writes []expect
	gcHorizon := int64(0)
	tick := int64(0)
	for step := 0; step < 500; step++ {
		if rng.Intn(20) == 0 {
			gcHorizon = tick - int64(rng.Intn(50))
			g.GC(gcHorizon)
			continue
		}
		tick++
		node := NodeID(fmt.Sprintf("part:n%d", rng.Intn(8)))
		a := &Action{Kind: KindQuery, Time: tick}
		if rng.Intn(2) == 0 {
			a.Inputs = []Dep{{Node: node, Time: tick}}
		} else {
			a.Outputs = []Dep{{Node: node, Time: tick}}
		}
		id := g.Append(a)
		if len(a.Inputs) > 0 {
			reads = append(reads, expect{node, tick, id})
		} else {
			writes = append(writes, expect{node, tick, id})
		}
	}
	check := func(lookup func(NodeID, int64) []*Action, exp []expect) {
		byNode := map[NodeID][]expect{}
		for _, e := range exp {
			if e.time >= gcHorizon {
				byNode[e.node] = append(byNode[e.node], e)
			}
		}
		for node, want := range byNode {
			got := lookup(node, 0)
			if len(got) != len(want) {
				t.Fatalf("node %s: %d results, want %d", node, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].id {
					t.Fatalf("node %s: result %d = action %d, want %d", node, i, got[i].ID, want[i].id)
				}
			}
		}
	}
	check(g.Readers, reads)
	check(g.Writers, writes)
}

// TestSinceListsActionsIndexedAfterMark: Since returns exactly the
// actions appended at or after a mark, in append order, skipping
// collected ones, and a mark that lets the next call pick up where this
// one stopped. AddDeps reports whether it indexed a new edge.
func TestSinceListsActionsIndexedAfterMark(t *testing.T) {
	g := New()
	q := func(t int64) *Action {
		return &Action{Kind: KindQuery, Time: t, Inputs: []Dep{{Node: "part:t/*", Time: t}}}
	}
	g.Append(q(1))
	mark := g.Mark()
	a2, a3 := q(2), q(3)
	g.Append(a2)
	g.Append(a3)
	got, next := g.Since(mark)
	if len(got) != 2 || got[0] != a2 || got[1] != a3 {
		t.Fatalf("Since(mark) = %v, want the two actions appended after it", got)
	}
	if got, _ := g.Since(next); len(got) != 0 {
		t.Fatalf("Since(next) = %v before any append, want none", got)
	}
	a4 := q(4)
	g.Append(a4)
	g.GC(3) // collects a2
	if got, _ := g.Since(mark); len(got) != 2 || got[0] != a3 || got[1] != a4 {
		t.Fatalf("Since(mark) after GC = %v, want a3 and a4", got)
	}
	if !g.AddDeps(a3.ID, []Dep{{Node: "part:u/*", Time: 3}}, nil) {
		t.Error("AddDeps of a new edge reported nothing added")
	}
	if g.AddDeps(a3.ID, []Dep{{Node: "part:u/*", Time: 3}}, nil) {
		t.Error("AddDeps of an existing edge reported an addition")
	}
}
