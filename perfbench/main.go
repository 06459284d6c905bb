// Command perfbench is the WARP benchmark. It runs one seeded workload
// against a real core.Warp deployment, checks the workload's output, and
// prints every metric by name with its unit; the last line of its output
// is a JSON object with the run's verdict and metrics.
//
//	perfbench --workload wiki-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it makes one untraced pass and reports the end-to-end
// metrics. With --trace 1 it makes an untraced pass and then a traced one
// (seam timers on, obs.SetEnabled(true)) and reports the per-layer metrics
// plus, for each end-to-end metric, traced minus untraced as the tracing
// overhead. See README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"warp/internal/obs"
)

// metric is a reported metric's name and unit.
type metric struct{ name, unit string }

// endToEnd lists the metrics a user of the deployment sees, reported by
// untraced runs. BENCHMARK.json lists the same names.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"visits_per_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"edit_p50_ms", "ms"},
	{"log_bytes_per_visit", "B"},
	{"heap_mb", "MiB"},
}

// perLayer lists the per-layer metrics a traced run reports. A metric
// whose layer a workload does not exercise reads 0 there (no store on the
// in-memory workloads, no repair on the wiki ones).
var perLayer = append([]metric{
	{"client.read_samples", "count"},
	{"client.edit_samples", "count"},
	{"client.read_p99_ms", "ms"},
	{"client.edit_p99_ms", "ms"},
	{"browser.self_us", "us"},
	{"browser.log_bytes_per_visit", "B"},
	{"core.request_us_p50", "us"},
	{"core.request_us_p99", "us"},
	{"core.requests_per_visit", "count"},
	{"core.upload_us", "us"},
	{"core.app_log_bytes_per_visit", "B"},
	{"core.overhead_vs_nowarp_pct", "%"},
	{"core.repair_s", "s"},
	{"core.repair_serial_s", "s"},
	{"core.repair_visits_replayed", "count"},
	{"core.repair_runs_reexecuted", "count"},
	{"core.repair_queries_reexecuted", "count"},
	{"core.repair_reexec_frac", "ratio"},
	{"core.repair_query_reexec_frac", "ratio"},
	{"core.repair_conflicts", "count"},
	{"core.repair_items", "count"},
	{"core.repair_item_us_mean", "us"},
	{"core.live_writes_queued", "count"},
	{"core.live_writes_merged", "count"},
	{"app.nowarp_request_us", "us"},
	{"ttdb.hot_versions", "count"},
	{"ttdb.hot_read_us", "us"},
	{"ttdb.cold_read_us", "us"},
	{"ttdb.physical_rows_per_live_row", "ratio"},
	{"ttdb.lock_wait_us_sum", "us"},
	{"ttdb.scope_escalations", "count"},
	{"sqldb.exec_us_mean.select_eq", "us"},
	{"sqldb.exec_us_mean.update", "us"},
	{"sqldb.exec_us_mean.insert", "us"},
	{"sqldb.execs_per_visit", "count"},
	{"sqldb.index_scan_frac", "ratio"},
	{"sqldb.plan_hit_frac", "ratio"},
	{"history.actions_per_visit", "count"},
	{"history.actions", "count"},
	{"history.nodes_loaded", "count"},
	{"store.reopen_s", "s"},
	{"store.disk_bytes_per_visit", "B"},
	{"store.write_bytes_per_visit", "B"},
	{"store.writes_per_visit", "count"},
	{"store.fsyncs_per_visit", "count"},
	{"store.fsync_us_p50", "us"},
	{"store.fsync_us_p99", "us"},
	{"store.checkpoint_ms", "ms"},
	{"store.checkpoint_bytes", "B"},
	{"store.reopen_read_bytes", "B"},
	{"store.wal_append_us_mean", "us"},
}, overheadMetrics()...)

// overheadMetrics names the tracing overhead of each end-to-end metric.
func overheadMetrics() []metric {
	var out []metric
	for _, m := range endToEnd {
		out = append(out, metric{"trace_overhead." + m.name, m.unit})
	}
	return out
}

// runOpts are one pass's settings.
type runOpts struct {
	seed    int64
	budget  budget
	traced  bool
	dataDir string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runOpts) (*measured, error){
	"wiki-hot": func(o runOpts) (*measured, error) {
		return runWiki(wikiSpec{users: 45, zipfS: 1.1}, o)
	},
	"wiki-durable": func(o runOpts) (*measured, error) {
		return runWiki(wikiSpec{users: 400, durable: true}, o)
	},
	"repair-online": runRepair,
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: wiki-hot, wiki-durable or repair-online")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	dataDir := flag.String("data", ".bench_build", "directory for durable deployments")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload wiki-hot|wiki-durable|repair-online --seed N --seconds N --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*dataDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := runOpts{seed: *seed, budget: budget{d: time.Duration(*seconds) * time.Second}, dataDir: *dataDir}

	plain, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	passes := []*measured{plain}
	report, values := endToEnd, plain.endToEnd()
	if *trace == 1 {
		o.traced = true
		obs.SetEnabled(true)
		traced, err := run(o)
		obs.SetEnabled(false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", *name, err)
			os.Exit(1)
		}
		passes = append(passes, traced)
		values = layerValues(traced, plain)
		report = perLayer
	}

	res := result{Metrics: map[string]metricValue{}}
	for _, p := range passes {
		res.Attempted += p.v.n() + p.checks
		res.Failed += p.v.failed + p.checksFailed
	}
	res.Correct = res.Failed == 0
	fmt.Printf("workload %s seed %d window %ds trace %d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("  reads %d, edits %d, failed visits %d, output checks %d (%d failed), ops_failed_frac %.6f\n",
		len(plain.v.readMS), len(plain.v.editMS), plain.v.failed, plain.checks, plain.checksFailed,
		ratio(float64(res.Failed), float64(res.Attempted)))
	readP99, editP99 := plain.tails()
	fmt.Printf("  read p99 %.4f ms, edit p99 %.4f ms\n", readP99, editP99)
	for _, m := range report {
		v := values[m.name]
		fmt.Printf("  %-36s %16.6f %s\n", m.name, v, m.unit)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64 // a failed visit's latency; JSON has no infinity
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// layerValues computes a traced pass's per-layer metrics, with the
// untraced pass's tail latencies and the tracing overhead against the
// untraced pass's end-to-end metrics.
func layerValues(t, plain *measured) map[string]float64 {
	untraced := plain.endToEnd()
	out := map[string]float64{}
	t.acc.fill(out)
	for k, v := range t.layer {
		out[k] = v
	}
	out["client.read_samples"] = float64(len(t.v.readMS))
	out["client.edit_samples"] = float64(len(t.v.editMS))
	out["client.read_p99_ms"], out["client.edit_p99_ms"] = plain.tails()
	if nw := out["app.nowarp_request_us"]; nw > 0 {
		out["core.overhead_vs_nowarp_pct"] = (out["core.request_us_p50"]/nw - 1) * 100
	}
	for name, v := range t.endToEnd() {
		out["trace_overhead."+name] = v - untraced[name]
	}
	return out
}
