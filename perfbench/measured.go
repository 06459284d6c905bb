package main

import "runtime"

// measured is one pass over a workload: its set-ups, its measured
// windows, its output checks and, when traced, its per-layer figures.
type measured struct {
	setupS  []float64
	windowS float64
	v       *visits
	heapMB  []float64
	logB    float64 // Table 6 log bytes added during the windows

	checks, checksFailed int

	acc   *layerAcc          // traced only
	layer map[string]float64 // traced only: workload-specific figures
}

func newMeasured(traced bool) *measured {
	m := &measured{v: newVisits()}
	if traced {
		m.acc = newLayerAcc()
		m.layer = map[string]float64{}
	}
	return m
}

// check records one output check.
func (m *measured) check(ok bool) {
	m.checks++
	if !ok {
		m.checksFailed++
	}
}

// heap records the live heap after a forced collection.
func (m *measured) heap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapMB = append(m.heapMB, float64(ms.HeapAlloc)/(1<<20))
}

// tails returns the read and edit p99, taken as the p50s are.
func (m *measured) tails() (read, edit float64) {
	v := m.v
	return roundQuantile(v.readMS, v.readRound, 0.99), roundQuantile(v.editMS, v.editRound, 0.99)
}

// endToEnd computes the end-to-end metrics.
func (m *measured) endToEnd() map[string]float64 {
	v := m.v
	return map[string]float64{
		"setup_s":             median(m.setupS),
		"visits_per_s":        ratio(float64(v.n()), m.windowS),
		"read_p50_ms":         roundQuantile(v.readMS, v.readRound, 0.5),
		"edit_p50_ms":         roundQuantile(v.editMS, v.editRound, 0.5),
		"log_bytes_per_visit": ratio(m.logB, float64(v.n())),
		"heap_mb":             median(m.heapMB),
	}
}

// roundQuantile is the median, over rounds, of each round's q-quantile,
// so one repair round that meets a contention burst moves one of the
// values the median is taken over, not the reported figure. A wiki window
// is one round.
func roundQuantile(xs []float64, round []int, q float64) float64 {
	by := map[int][]float64{}
	for i, x := range xs {
		by[round[i]] = append(by[round[i]], x)
	}
	var qs []float64
	for _, s := range by {
		qs = append(qs, quantile(s, q))
	}
	return median(qs)
}

// merge folds one window's visits into the pass as its next round.
func (v *visits) merge(o *visits) {
	for range o.readMS {
		v.readRound = append(v.readRound, v.rounds)
	}
	for range o.editMS {
		v.editRound = append(v.editRound, v.rounds)
	}
	v.rounds++
	v.readMS = append(v.readMS, o.readMS...)
	v.editMS = append(v.editMS, o.editMS...)
	v.selfUS = append(v.selfUS, o.selfUS...)
	v.failed += o.failed
}
