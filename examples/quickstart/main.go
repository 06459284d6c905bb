// Quickstart: the smallest end-to-end WARP use, against the public API
// only — now with durable persistence. It builds a one-file guestbook
// with an XSS bug on a persistent store, records normal operation
// (including an attack), then simulates a deploy: the process "restarts"
// by closing and reopening the store. The action history graph and the
// time-travel database survive the restart — which is exactly what makes
// the next step possible: retroactively patching the bug on the
// *reopened* deployment, so the attack's effects disappear while the
// legitimate entries survive.
package main

import (
	"fmt"
	"os"
	"strings"

	"warp"
)

// guestbook returns the application page. Application code is not
// persisted (like PHP source, it lives outside the database), so both
// runs register it; sanitize selects the patched version.
func guestbook(sanitize bool) warp.Script {
	return func(c *warp.Ctx) *warp.Response {
		if msg := c.Req.Param("msg"); msg != "" {
			if sanitize {
				msg = strings.NewReplacer("<", "&lt;", ">", "&gt;").Replace(msg)
			}
			id := c.MustQuery("SELECT COALESCE(MAX(id), 0) + 1 FROM entries").FirstValue()
			c.MustQuery("INSERT INTO entries (id, author, msg) VALUES (?, ?, ?)",
				id, warp.Text(c.Req.Param("author")), warp.Text(msg))
		}
		res := c.MustQuery("SELECT author, msg FROM entries ORDER BY id")
		var b strings.Builder
		b.WriteString("<html><body><h1>Guestbook</h1><ul>")
		for _, row := range res.Rows {
			fmt.Fprintf(&b, "<li>%s: %s</li>", row[0].AsText(), row[1].AsText())
		}
		b.WriteString("</ul></body></html>")
		return warp.HTML(b.String())
	}
}

// install is the application's setup, run on every process start. It is
// idempotent: re-annotation of an identical spec is a no-op and the DDL
// uses IF NOT EXISTS, so it works on both a fresh and a recovered store.
func install(sys *warp.System, sanitize bool) {
	must(sys.DB.Annotate("entries", warp.TableSpec{
		RowIDColumn:      "id",
		PartitionColumns: []string{"author"},
	}))
	_, _, err := sys.DB.Exec(`CREATE TABLE IF NOT EXISTS entries (id INTEGER PRIMARY KEY, author TEXT, msg TEXT)`)
	must(err)
	note := "vulnerable: stored XSS"
	if sanitize {
		note = "sanitize on save"
	}
	must(sys.Runtime.Register("guestbook.php", warp.Version{Entry: guestbook(sanitize), Note: note}))
	sys.Runtime.Mount("/", "guestbook.php")
}

func main() {
	dir, err := os.MkdirTemp("", "warp-quickstart-*")
	must(err)
	defer os.RemoveAll(dir)

	// --- First process lifetime: normal operation, including an attack.
	sys, err := warp.Open(dir, warp.Config{Seed: 1})
	must(err)
	install(sys, false)

	alice := sys.NewBrowser()
	mallory := sys.NewBrowser()
	alice.Open("/?author=alice&msg=hello+world")
	mallory.Open("/?author=mallory&msg=" + "%3Cscript%3Ewarpjs%3A%20get%20%2Fsteal%3C%2Fscript%3E")
	victim := sys.NewBrowser()
	victim.Open("/") // the victim's browser would run the injected script

	before, _, _ := sys.DB.Exec("SELECT COUNT(*) FROM entries")
	fmt.Printf("run 1: %d entries, script stored: %v, history actions: %d\n",
		before.FirstValue().AsInt(), contains(sys, "<script>"), sys.Graph.Len())
	must(sys.Close()) // deploy: the process exits

	// --- Second process lifetime: reopen the same store. The history
	// graph and versioned database are recovered from disk — without
	// them, the audit trail repair depends on would be gone.
	sys, err = warp.Open(dir, warp.Config{Seed: 1})
	must(err)
	install(sys, false)
	st := sys.Recovery()
	fmt.Printf("run 2: recovered snapshot=%v walRecords=%d, history actions: %d, entries survive: %v\n",
		st.FromSnapshot, st.WALRecords, sys.Graph.Len(), contains(sys, "hello world"))

	// The developers publish a patch: retroactively apply it to the
	// recovered history. WARP re-executes every recorded run of
	// guestbook.php against the fixed code and repairs everything the
	// attack influenced.
	report, err := sys.RetroPatch("guestbook.php", warp.Version{Entry: guestbook(true), Note: "sanitize on save"})
	must(err)

	after, _, _ := sys.DB.Exec("SELECT COUNT(*) FROM entries")
	fmt.Printf("after repair:  %d entries, script stored: %v\n",
		after.FirstValue().AsInt(), contains(sys, "<script>"))
	fmt.Println("repair report:", report.String())
	must(sys.Close())
}

func contains(sys *warp.System, needle string) bool {
	res, _, err := sys.DB.Exec("SELECT msg FROM entries")
	if err != nil {
		return false
	}
	for _, row := range res.Rows {
		if strings.Contains(row[0].AsText(), needle) {
			return true
		}
	}
	return false
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
