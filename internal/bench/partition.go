package bench

import (
	"fmt"
	"strings"
	"time"

	"warp/internal/app"
	"warp/internal/core"
	"warp/internal/httpd"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
)

// PartitionRepair measures the partition-granular repair pipeline on a
// single hot table: every client's page visits read and write their own
// partition of one `posts` table, and the repair — a retroactive patch
// of the login page that changes every client's cookie state — cascades
// through cookie divergence (§5.3) into a per-client chain of page-visit
// replays, each re-executing its run (with appLatency of simulated
// application work) against the hot table.
//
// Visit replays are exclusive only per client and the hot table takes
// partition (lock-column key) scopes, so independent clients' replays —
// and their DB re-executions on disjoint partitions of the one table —
// proceed in parallel across workers.
//
// The repair outcome — re-execution accounting and final table contents
// — is identical at every worker count; only the wall time changes.
func PartitionRepair(clients, pages, workers int, appLatency time.Duration) (*PartitionRepairResult, error) {
	w := core.New(core.Config{Seed: 99, RepairWorkers: workers})
	if err := w.DB.Annotate("posts", ttdb.TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		return nil, err
	}
	if _, _, err := w.DB.Exec("CREATE TABLE posts (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)"); err != nil {
		return nil, err
	}
	if err := w.Runtime.Register("login.php", app.Version{Entry: loginHandler(false)}); err != nil {
		return nil, err
	}
	if err := w.Runtime.Register("page.php", app.Version{Entry: postsHandler(appLatency)}); err != nil {
		return nil, err
	}
	w.Runtime.Mount("/login", "login.php")
	w.Runtime.Mount("/page", "page.php")

	id := 0
	for c := 0; c < clients; c++ {
		b := w.NewBrowser()
		if p := b.Open("/login"); p.DOM == nil {
			return nil, fmt.Errorf("bench: login failed for client %d", c)
		}
		for n := 0; n < pages; n++ {
			id++
			p := b.Open(fmt.Sprintf("/page?owner=%s&id=%d&body=<i>p%d</i>", b.ClientID, id, n))
			if p.DOM == nil {
				return nil, fmt.Errorf("bench: page visit failed for client %d", c)
			}
		}
	}

	start := time.Now()
	rep, err := w.RetroPatch("login.php", app.Version{Entry: loginHandler(true), Note: "session hardening"})
	if err != nil {
		return nil, err
	}
	out := &PartitionRepairResult{Workers: workers, RepairTime: time.Since(start), Report: rep}
	res, _, err := w.DB.Exec("SELECT owner, body FROM posts ORDER BY id")
	if err != nil {
		return nil, err
	}
	for _, r := range res.Rows {
		out.Rows = append(out.Rows, r[0].AsText()+"|"+r[1].AsText())
	}
	return out, nil
}

// PartitionRepairResult is one measurement of the partition-granular
// pipeline, with the hot table's final contents for equivalence checks
// across worker counts.
type PartitionRepairResult struct {
	Workers    int
	RepairTime time.Duration
	Report     *core.Report
	Rows       []string
}

// loginHandler issues a session cookie. The patched version additionally
// sets a hardening cookie and brands the page, so every client's login
// response — and through cookie divergence, every later page visit of
// that client — changes during repair.
func loginHandler(patched bool) app.Script {
	return func(c *app.Ctx) *httpd.Response {
		sid := c.Token("login.sid")
		body := "<html><body>welcome</body></html>"
		if patched {
			body = "<html><body>welcome (hardened)</body></html>"
		}
		resp := httpd.HTML(body)
		resp.SetCookie("sid", sid)
		if patched {
			resp.SetCookie("csrf", c.Token("login.csrf"))
		}
		return resp
	}
}

// postsHandler writes one post into the owner's partition of the hot
// table and renders the owner's posts, sleeping appLatency to simulate
// the application-side work (template rendering, helper I/O) a replay
// overlaps across workers.
func postsHandler(appLatency time.Duration) app.Script {
	return func(c *app.Ctx) *httpd.Response {
		if body := c.Req.Param("body"); body != "" {
			c.MustQuery("INSERT INTO posts (id, owner, body) VALUES (?, ?, ?)",
				sqldb.Int(atoi(c.Req.Param("id"))), sqldb.Text(c.Req.Param("owner")), sqldb.Text(body))
		}
		res := c.MustQuery("SELECT body FROM posts WHERE owner = ?", sqldb.Text(c.Req.Param("owner")))
		if appLatency > 0 {
			time.Sleep(appLatency)
		}
		var b strings.Builder
		b.WriteString("<html><body><ul>")
		for _, row := range res.Rows {
			b.WriteString("<li>" + row[0].AsText() + "</li>")
		}
		b.WriteString("</ul></body></html>")
		return httpd.HTML(b.String())
	}
}
