package history

import (
	"reflect"
	"testing"
)

// TestPartitionDepsOfAfterAddDeps: edges repair adds to an existing
// action show up in the view the scheduler builds footprints from, and in
// the per-node reader index.
func TestPartitionDepsOfAfterAddDeps(t *testing.T) {
	g := New()
	p := PartitionNode("t/user=a")
	q := PartitionNode("t/user=b")
	id := g.Append(&Action{Kind: KindQuery, Time: 20, Inputs: []Dep{{Node: p, Time: 20}}})
	// Repair discovers that the action also reads Q.
	g.AddDeps(id, []Dep{{Node: q, Time: 20}}, nil)
	if pd := g.PartitionDepsOf(id); !reflect.DeepEqual(pd.PartReads, []string{"t/user=a", "t/user=b"}) {
		t.Fatalf("PartReads after AddDeps = %v, want both partitions", pd.PartReads)
	}
	if rs := g.Readers(q, 0); len(rs) != 1 || rs[0].ID != id {
		t.Fatalf("Readers(Q) = %v, want the extended action", rs)
	}
}

// TestPartitionDepsOf splits partition edges from plain node edges.
func TestPartitionDepsOf(t *testing.T) {
	g := New()
	id := g.Append(&Action{
		Kind: KindQuery, Time: 10,
		Inputs:  []Dep{{Node: PartitionNode("t/user=a"), Time: 10}, {Node: HTTPNode("c", 1, 1), Time: 10}},
		Outputs: []Dep{{Node: PartitionNode("t/*"), Time: 10}, {Node: CookieNode("c"), Time: 10}},
	})
	pd := g.PartitionDepsOf(id)
	if !reflect.DeepEqual(pd.PartReads, []string{"t/user=a"}) {
		t.Fatalf("PartReads = %v", pd.PartReads)
	}
	if !reflect.DeepEqual(pd.PartWrites, []string{"t/*"}) {
		t.Fatalf("PartWrites = %v", pd.PartWrites)
	}
	if !reflect.DeepEqual(pd.NodeReads, []NodeID{HTTPNode("c", 1, 1)}) {
		t.Fatalf("NodeReads = %v", pd.NodeReads)
	}
	if !reflect.DeepEqual(pd.NodeWrites, []NodeID{CookieNode("c")}) {
		t.Fatalf("NodeWrites = %v", pd.NodeWrites)
	}
	if pd := g.PartitionDepsOf(999); pd.PartReads != nil || pd.NodeReads != nil {
		t.Fatalf("PartitionDepsOf(unknown) = %+v, want zero", pd)
	}
}
