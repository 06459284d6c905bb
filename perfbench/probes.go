package main

import (
	"fmt"
	"strings"
	"time"

	"warp/internal/core"
	"warp/internal/httpd"
	"warp/internal/obs"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
	"warp/internal/webapp/wiki"
)

// snapshot brackets a measurement window: everything the benchmark reads
// from the deployment's public accessors.
type snapshot struct {
	stor     core.StorageStats
	exec     sqldb.ExecStats
	actions  int
	counters map[string]uint64
	hists    map[string]obs.HistSnapshot
}

func takeSnapshot(w *core.Warp) snapshot {
	m := w.Metrics()
	s := snapshot{
		stor:     w.Storage(),
		exec:     m.Exec,
		actions:  w.Graph.Len(),
		counters: map[string]uint64{},
		hists:    map[string]obs.HistSnapshot{},
	}
	for _, c := range m.Obs.Counters {
		s.counters[c.Name] = c.Value
	}
	for _, h := range m.Obs.Histograms {
		s.hists[h.Name] = h.Hist
	}
	return s
}

// delta is the change between two snapshots of one deployment.
type delta struct {
	before, after snapshot
}

func (d delta) counter(name string) float64 {
	return float64(d.after.counters[name] - d.before.counters[name])
}

func (d delta) hist(name string) obs.HistSnapshot {
	return d.after.hists[name].Sub(d.before.hists[name])
}

func (d delta) execs() float64 {
	var n uint64
	for name, h := range d.after.hists {
		if strings.HasPrefix(name, obsExecPrefix) {
			n += h.Sub(d.before.hists[name]).Count
		}
	}
	return float64(n)
}

// logBytes is the Table 6 log storage total: browser visit logs,
// application run logs, database query logs and versioned row bytes.
func logBytes(s core.StorageStats) int {
	return s.BrowserLogBytes + s.AppLogBytes + s.DBLogBytes + s.DBRowBytes
}

// wikiTables lists every GoWiki table with its columns, for live-row
// counts and for copying live state into the No-WARP engine.
var wikiTables = []struct{ name, cols string }{
	{"users", "user_id, name, password, is_admin"},
	{"sessions", "sid, user_id"},
	{"pages", "page_id, title, lang, last_editor, protected, content"},
	{"acl", "page_title, user_name"},
	{"blocklog", "note"},
	{"tokens", "token"},
}

// pointReadUS times a direct point SELECT by title through ttdb, the
// median of n runs.
func pointReadUS(db *ttdb.DB, title string, n int) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		res, _, err := db.Exec("SELECT content FROM pages WHERE title = ?", sqldb.Text(title))
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		if res.Empty() {
			return 0, fmt.Errorf("probe: no page %q", title)
		}
		xs = append(xs, us(d))
	}
	return median(xs), nil
}

// ttdbProbes fills the ttdb layer's metrics after a window: the hot
// page's physical version count, point-read times on the hot page and on a
// one-version page, and physical rows per live row.
func ttdbProbes(w *core.Warp, hot, cold string, out map[string]float64) error {
	res, err := w.DB.Raw().Exec("SELECT COUNT(*) FROM pages WHERE title = ?", sqldb.Text(hot))
	if err != nil {
		return err
	}
	out["ttdb.hot_versions"] = float64(res.FirstValue().AsInt())
	if out["ttdb.hot_read_us"], err = pointReadUS(w.DB, hot, 200); err != nil {
		return err
	}
	if out["ttdb.cold_read_us"], err = pointReadUS(w.DB, cold, 200); err != nil {
		return err
	}
	live := 0
	for _, t := range wikiTables {
		res, _, err := w.DB.Exec("SELECT COUNT(*) FROM " + t.name)
		if err != nil {
			return err
		}
		live += int(res.FirstValue().AsInt())
	}
	out["ttdb.physical_rows_per_live_row"] = ratio(float64(w.DB.Stats().PhysicalRows), float64(live))
	return nil
}

// noWarpRequestUS replays sampled client requests through the GoWiki
// scripts against a plain sqldb engine holding a copy of the deployment's
// live rows: Table 6's "No WARP" path, with no versioning and no logging.
// It returns the median time of Runtime.Run over the second of two passes.
func noWarpRequestUS(w *core.Warp, seed int64, reqs []*httpd.Request) (float64, error) {
	host := core.New(core.Config{Seed: seed})
	if _, err := wiki.Install(host); err != nil {
		return 0, err
	}
	plain := sqldb.Open()
	for _, ddl := range wiki.Schema() {
		if _, err := plain.Exec(ddl); err != nil {
			return 0, err
		}
	}
	for _, t := range wikiTables {
		res, _, err := w.DB.Exec("SELECT " + t.cols + " FROM " + t.name)
		if err != nil {
			return 0, err
		}
		marks := strings.TrimSuffix(strings.Repeat("?, ", len(strings.Split(t.cols, ","))), ", ")
		ins := "INSERT INTO " + t.name + " (" + t.cols + ") VALUES (" + marks + ")"
		for _, row := range res.Rows {
			if _, err := plain.Exec(ins, row...); err != nil {
				return 0, err
			}
		}
	}
	qf := func(sql string, params []sqldb.Value) (*sqldb.Result, *ttdb.Record, error) {
		res, err := plain.Exec(sql, params...)
		return res, nil, err
	}
	var xs []float64
	for pass := 0; pass < 2; pass++ {
		xs = xs[:0]
		for _, req := range reqs {
			file, ok := host.Runtime.RouteOf(req.Path)
			if !ok {
				return 0, fmt.Errorf("no-warp: no route for %s", req.Path)
			}
			start := time.Now()
			rec, err := host.Runtime.Run(file, req, qf, nil)
			d := time.Since(start)
			if err != nil {
				return 0, err
			}
			if rec.Resp.Status != 200 && rec.Resp.Status != 303 {
				return 0, fmt.Errorf("no-warp: %s %s: status %d", req.Method, req.Path, rec.Resp.Status)
			}
			xs = append(xs, us(d))
		}
	}
	return median(xs), nil
}

// probe runs the after-window probes of a traced pass: ttdb point reads
// and version counts, and the No-WARP replay of the client's sampled
// requests.
func probe(w *core.Warp, seed int64, c *client, hot string, out map[string]float64) error {
	if err := ttdbProbes(w, hot, coldPage, out); err != nil {
		return fmt.Errorf("ttdb probes: %w", err)
	}
	nowarp, err := noWarpRequestUS(w, seed, c.sample)
	if err != nil {
		return fmt.Errorf("no-warp replay: %w", err)
	}
	out["app.nowarp_request_us"] = nowarp
	return nil
}
