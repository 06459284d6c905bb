package main

import "warp/internal/obs"

// layerAcc sums what a traced pass observes over its windows (one for the
// wiki workloads, one per repair round for repair-online), so the
// per-layer metrics are computed once over all of them.
type layerAcc struct {
	windows  int
	ops      float64
	selfUS   []float64
	reqUS    []float64
	uploadUS []float64

	requests, browserB, appB, actions, execs    float64
	indexScans, fullScans, planHits, planMisses float64

	counters map[string]float64
	hists    map[string]obs.HistSnapshot
}

func newLayerAcc() *layerAcc {
	return &layerAcc{counters: map[string]float64{}, hists: map[string]obs.HistSnapshot{}}
}

// Obs metric names the benchmark reads from Warp.Metrics.
const (
	obsLiveQueued  = "warp_core_live_writes_queued_total"
	obsLiveMerged  = "warp_core_live_writes_merged_total"
	obsRepairItem  = "warp_core_repair_item_seconds"
	obsLockWait    = "warp_ttdb_lock_wait_seconds"
	obsEscalations = "warp_ttdb_scope_escalations_total"
	obsWALAppend   = "warp_store_wal_append_seconds"
	obsExecPrefix  = `warp_sqldb_exec_seconds{shape="`
	obsExecSuffix  = `"}`
)

var execShapes = []string{"select_eq", "update", "insert"}

// add folds one window: the client's seam timings since it was created
// and the deployment's accessor deltas across the window.
func (a *layerAcc) add(c *client, v *visits, d delta) {
	a.windows++
	a.ops += float64(v.n())
	a.selfUS = append(a.selfUS, v.selfUS...)
	a.reqUS = append(a.reqUS, c.reqUS...)
	a.uploadUS = append(a.uploadUS, c.uploadUS...)
	a.requests += float64(c.requests)
	a.browserB += float64(d.after.stor.BrowserLogBytes - d.before.stor.BrowserLogBytes)
	a.appB += float64(d.after.stor.AppLogBytes - d.before.stor.AppLogBytes)
	a.actions += float64(d.after.actions - d.before.actions)
	a.execs += d.execs()
	e := d.after.exec.Sub(d.before.exec)
	a.indexScans += float64(e.IndexScans)
	a.fullScans += float64(e.FullScans)
	a.planHits += float64(e.PlanHits)
	a.planMisses += float64(e.PlanMisses)
	for _, name := range []string{obsLiveQueued, obsLiveMerged, obsEscalations} {
		a.counters[name] += d.counter(name)
	}
	names := []string{obsRepairItem, obsLockWait, obsWALAppend}
	for _, s := range execShapes {
		names = append(names, obsExecPrefix+s+obsExecSuffix)
	}
	for _, name := range names {
		h := a.hists[name]
		h.Merge(d.hist(name))
		a.hists[name] = h
	}
}

// fill writes the per-layer metrics every workload reports. Counts that
// belong to a window (lock waits, live writes, repair items) are means
// per window.
func (a *layerAcc) fill(out map[string]float64) {
	w := float64(a.windows)
	out["browser.self_us"] = mean(a.selfUS)
	out["browser.log_bytes_per_visit"] = ratio(a.browserB, a.ops)
	out["core.request_us_p50"] = quantile(a.reqUS, 0.5)
	out["core.request_us_p99"] = quantile(a.reqUS, 0.99)
	out["core.requests_per_visit"] = ratio(a.requests, a.ops)
	out["core.upload_us"] = mean(a.uploadUS)
	out["core.app_log_bytes_per_visit"] = ratio(a.appB, a.ops)
	out["core.live_writes_queued"] = ratio(a.counters[obsLiveQueued], w)
	out["core.live_writes_merged"] = ratio(a.counters[obsLiveMerged], w)
	item := a.hists[obsRepairItem]
	out["core.repair_items"] = ratio(float64(item.Count), w)
	out["core.repair_item_us_mean"] = us(item.Mean())
	out["ttdb.lock_wait_us_sum"] = ratio(float64(a.hists[obsLockWait].Sum)/1e3, w)
	out["ttdb.scope_escalations"] = ratio(a.counters[obsEscalations], w)
	for _, s := range execShapes {
		h := a.hists[obsExecPrefix+s+obsExecSuffix]
		out["sqldb.exec_us_mean."+s] = us(h.Mean())
	}
	out["sqldb.execs_per_visit"] = ratio(a.execs, a.ops)
	out["sqldb.index_scan_frac"] = ratio(a.indexScans, a.indexScans+a.fullScans)
	out["sqldb.plan_hit_frac"] = ratio(a.planHits, a.planHits+a.planMisses)
	out["history.actions_per_visit"] = ratio(a.actions, a.ops)
	out["store.wal_append_us_mean"] = us(a.hists[obsWALAppend].Mean())
}
