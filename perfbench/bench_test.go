package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func ops(seed int64, n int) []op {
	g := newGen(seed, []string{"A", "B", "C", "D", "E"}, 1.1)
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestGeneratorDeterministic(t *testing.T) {
	if !reflect.DeepEqual(ops(7, 2000), ops(7, 2000)) {
		t.Fatal("the same seed gave different op sequences")
	}
	if reflect.DeepEqual(ops(7, 2000), ops(8, 2000)) {
		t.Fatal("different seeds gave the same op sequence")
	}
}

// counts runs a fixed-size traced wiki-hot window and returns the counts
// that must repeat exactly for one seed.
func counts(t *testing.T, seed int64) [3]float64 {
	t.Helper()
	m, err := runWiki(wikiSpec{users: 45, zipfS: 1.1}, runOpts{seed: seed, budget: budget{ops: 400}, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.v.failed != 0 || m.checksFailed != 0 {
		t.Fatalf("%d failed visits, %d failed checks", m.v.failed, m.checksFailed)
	}
	layer := layerValues(m, m)
	return [3]float64{m.endToEnd()["log_bytes_per_visit"], layer["ttdb.hot_versions"], layer["history.actions_per_visit"]}
}

func TestSameSeedSameCounts(t *testing.T) {
	a, b := counts(t, 7), counts(t, 7)
	if a != b {
		t.Fatalf("seed 7 gave log_bytes_per_visit, ttdb.hot_versions, history.actions_per_visit %v, then %v", a, b)
	}
	if a[1] == 0 || a[2] == 0 {
		t.Fatalf("counts not measured: %v", a)
	}
}

// TestBenchmarkJSONListsMetrics keeps BENCHMARK.json and the metric lists
// the program reports in step.
func TestBenchmarkJSONListsMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program lacks", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
