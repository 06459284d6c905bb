package browser

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"
	"testing"

	"warp/internal/httpd"
)

// fakeWiki is a miniature stateful server for browser tests: pages are
// stored in a map and /edit.php renders a form whose submission updates
// them. It records every request it sees.
type fakeWiki struct {
	pages     map[string]string
	requests  []*httpd.Request
	frameDeny bool
}

func newFakeWiki() *fakeWiki {
	return &fakeWiki{pages: map[string]string{
		"Main":    "welcome to the wiki",
		"Sandbox": "play here",
	}}
}

func (w *fakeWiki) transport(req *httpd.Request) *httpd.Response {
	w.requests = append(w.requests, req)
	switch req.Path {
	case "/view.php":
		title := req.Param("title")
		body, ok := w.pages[title]
		if !ok {
			return httpd.NotFound("no such page")
		}
		resp := httpd.HTML(fmt.Sprintf(
			`<html><body><h1>%s</h1><div id="content">%s</div><a href="/edit.php?title=%s">edit</a></body></html>`,
			title, body, url.QueryEscape(title)))
		if w.frameDeny {
			resp.SetHeader("X-Frame-Options", "DENY")
		}
		return resp
	case "/edit.php":
		title := req.Param("title")
		if req.Method == "POST" {
			w.pages[title] = req.Form.Get("content")
			return httpd.Redirect("/view.php?title=" + url.QueryEscape(title))
		}
		return httpd.HTML(fmt.Sprintf(
			`<html><body><form action="/edit.php" method="post"><input type="hidden" name="title" value="%s"/><textarea name="content">%s</textarea></form></body></html>`,
			title, w.pages[title]))
	case "/login.php":
		resp := httpd.Redirect("/view.php?title=Main")
		resp.SetCookie("session", "sess-"+req.Param("user"))
		return resp
	}
	return httpd.NotFound("unknown path")
}

func newTestBrowser(w *fakeWiki, logs *[]*VisitLog) *Browser {
	upload := func(l *VisitLog) {
		if logs != nil {
			*logs = append(*logs, l)
		}
	}
	return New(w.transport, upload, rand.New(rand.NewSource(1)))
}

func TestBrowseAndHeaders(t *testing.T) {
	w := newFakeWiki()
	var logs []*VisitLog
	b := newTestBrowser(w, &logs)

	p := b.Open("/view.php?title=Main")
	if p.DOM == nil || !strings.Contains(p.DOM.InnerText(), "welcome") {
		t.Fatalf("page did not render: %v", p.DOM)
	}
	req := w.requests[0]
	if req.ClientID != b.ClientID || req.VisitID != 1 || req.RequestID != 1 {
		t.Fatalf("extension headers missing: %+v", req)
	}
	if len(logs) != 1 || logs[0].URL != "/view.php?title=Main" {
		t.Fatalf("visit log: %+v", logs)
	}
}

func TestClickEditTypeSubmitFlow(t *testing.T) {
	w := newFakeWiki()
	var logs []*VisitLog
	b := newTestBrowser(w, &logs)

	p1 := b.Open("/view.php?title=Main")
	p2, err := p1.ClickLink("edit")
	if err != nil {
		t.Fatal(err)
	}
	if p2.Log.ParentVisit != p1.Log.VisitID {
		t.Fatalf("visit dependency missing: %+v", p2.Log)
	}
	if err := p2.TypeInto("content", "welcome to the wiki\nmy new line"); err != nil {
		t.Fatal(err)
	}
	p3, err := p2.Submit(0)
	if err != nil {
		t.Fatal(err)
	}
	if w.pages["Main"] != "welcome to the wiki\nmy new line" {
		t.Fatalf("edit not applied: %q", w.pages["Main"])
	}
	if p3.Log.ParentVisit != p2.Log.VisitID {
		t.Fatal("submit navigation dependency missing")
	}
	// Events were recorded with XPaths and base text.
	var input *Event
	for i := range logs[1].Events {
		if logs[1].Events[i].Kind == EventInput {
			input = &logs[1].Events[i]
		}
	}
	if input == nil || input.Base != "welcome to the wiki" || !strings.Contains(input.XPath, "textarea") {
		t.Fatalf("input event: %+v", input)
	}
}

func TestCookiesFollowResponses(t *testing.T) {
	w := newFakeWiki()
	b := newTestBrowser(w, nil)
	p := b.Open("/view.php?title=Main")
	p.roundTrip("POST", "/login.php", url.Values{"user": {"alice"}})
	if b.Cookies()["session"] != "sess-alice" {
		t.Fatalf("cookie jar: %v", b.Cookies())
	}
	// Subsequent requests carry the cookie.
	b.Open("/view.php?title=Main")
	last := w.requests[len(w.requests)-1]
	if last.Cookie("session") != "sess-alice" {
		t.Fatalf("cookie not sent: %v", last.Cookies)
	}
}

func TestScriptExecution(t *testing.T) {
	w := newFakeWiki()
	b := newTestBrowser(w, nil)
	// A stored-XSS-style page: script appends text to another page via its
	// edit form (read-modify-write through the browser).
	w.pages["Infected"] = `see below<script>warpjs: appendedit /edit.php?title=Sandbox content  PWNED</script>`
	b.Open("/view.php?title=Infected")
	if !strings.Contains(w.pages["Sandbox"], "PWNED") {
		t.Fatalf("script edit did not run: %q", w.pages["Sandbox"])
	}
	if !strings.HasPrefix(w.pages["Sandbox"], "play here") {
		t.Fatalf("append must preserve original: %q", w.pages["Sandbox"])
	}
}

func TestScriptSelfPropagation(t *testing.T) {
	w := newFakeWiki()
	b := newTestBrowser(w, nil)
	w.pages["Infected"] = `x<script>warpjs: appendedit /edit.php?title=Sandbox content {self}</script>`
	b.Open("/view.php?title=Infected")
	if !strings.Contains(w.pages["Sandbox"], "warpjs: appendedit") {
		t.Fatalf("self propagation failed: %q", w.pages["Sandbox"])
	}
}

func TestScriptPost(t *testing.T) {
	w := newFakeWiki()
	b := newTestBrowser(w, nil)
	// CSRF-style: a script logs the victim in under the attacker account.
	html := `<html><body><script>warpjs: post /login.php user=attacker</script></body></html>`
	b.OpenAttackerPage("http://evil.example/", html)
	if b.Cookies()["session"] != "sess-attacker" {
		t.Fatalf("login CSRF simulation failed: %v", b.Cookies())
	}
}

func TestIFrameLoadingAndBlocking(t *testing.T) {
	w := newFakeWiki()
	var logs []*VisitLog
	b := newTestBrowser(w, &logs)
	html := `<html><body><iframe src="/view.php?title=Main"></iframe></body></html>`
	p := b.OpenAttackerPage("http://evil.example/game", html)
	if len(p.Frames()) != 1 {
		t.Fatalf("frames = %d", len(p.Frames()))
	}
	frame := p.Frames()[0]
	if frame.Blocked || frame.DOM == nil {
		t.Fatal("frame should have loaded")
	}
	if !frame.Log.IsFrame || frame.Log.ParentVisit != p.Log.VisitID {
		t.Fatalf("frame log: %+v", frame.Log)
	}
	// With X-Frame-Options: DENY the frame refuses to render.
	w.frameDeny = true
	p2 := b.OpenAttackerPage("http://evil.example/game", html)
	if !p2.Frames()[0].Blocked {
		t.Fatal("frame should be blocked by X-Frame-Options")
	}
}

func TestNoExtensionRecordsNothing(t *testing.T) {
	w := newFakeWiki()
	var logs []*VisitLog
	b := newTestBrowser(w, &logs)
	b.HasExtension = false
	p := b.Open("/view.php?title=Main")
	_ = p
	if len(logs) != 0 {
		t.Fatalf("logs uploaded without extension: %d", len(logs))
	}
	if w.requests[0].ClientID != "" {
		t.Fatal("extension headers sent without extension")
	}
}

//
// Replay tests
//

func TestReplayCleanPageReissuesRequests(t *testing.T) {
	w := newFakeWiki()
	var logs []*VisitLog
	b := newTestBrowser(w, &logs)
	p1 := b.Open("/view.php?title=Main")
	p2, _ := p1.ClickLink("edit")
	p2.TypeInto("content", "welcome to the wiki EDITED")
	p2.Submit(0)

	// Replay visit 2 (the edit form) against an identical page.
	editLog := logs[1]
	replayW := newFakeWiki()
	mainResp := replayW.transport(httpd.NewRequest("GET", editLog.URL))
	out := ReplayVisit(editLog, mainResp, "", httpd.Fields{}, replayW.transport, FullReplay)
	if out.Conflicted() {
		t.Fatalf("conflicts: %+v", out.Conflicts)
	}
	if len(out.Navigations) != 1 || out.Navigations[0].Method != "POST" {
		t.Fatalf("navigations: %+v", out.Navigations)
	}
	if got := out.Navigations[0].Form.Get("content"); got != "welcome to the wiki EDITED" {
		t.Fatalf("replayed form content: %q", got)
	}
}

func TestReplayMergesUserEditOntoRepairedPage(t *testing.T) {
	w := newFakeWiki()
	var logs []*VisitLog
	b := newTestBrowser(w, &logs)
	// Original page had attacker-appended text; the user edited on top.
	w.pages["Main"] = "welcome to the wiki\nATTACK LINE"
	p1 := b.Open("/view.php?title=Main")
	p2, _ := p1.ClickLink("edit")
	p2.TypeInto("content", "welcome to the wiki\nATTACK LINE\nuser line")
	p2.Submit(0)

	// During repair the edit form serves the clean page.
	editLog := logs[1]
	replayW := newFakeWiki()
	replayW.pages["Main"] = "welcome to the wiki"
	mainResp := replayW.transport(httpd.NewRequest("GET", editLog.URL))
	out := ReplayVisit(editLog, mainResp, "", httpd.Fields{}, replayW.transport, FullReplay)
	if out.Conflicted() {
		t.Fatalf("conflicts: %+v", out.Conflicts)
	}
	got := out.Navigations[0].Form.Get("content")
	if got != "welcome to the wiki\nuser line" {
		t.Fatalf("merged content = %q, want user line preserved and attack gone", got)
	}
}

func TestReplayConflictMatrix(t *testing.T) {
	// The §8.3 behaviors: overwrite attacks conflict even with merge; a
	// changed field conflicts without merge; no log always conflicts.
	w := newFakeWiki()
	var logs []*VisitLog
	b := newTestBrowser(w, &logs)
	w.pages["Main"] = "ATTACKER OVERWROTE EVERYTHING"
	p1 := b.Open("/view.php?title=Main")
	p2, _ := p1.ClickLink("edit")
	p2.TypeInto("content", "ATTACKER OVERWROTE EVERYTHING plus my edit")
	p2.Submit(0)
	editLog := logs[1]

	replayW := newFakeWiki()
	replayW.pages["Main"] = "welcome to the wiki"
	mainResp := replayW.transport(httpd.NewRequest("GET", editLog.URL))

	out := ReplayVisit(editLog, mainResp, "", httpd.Fields{}, replayW.transport, FullReplay)
	if !out.Conflicted() || out.Conflicts[0].Kind != ConflictMerge {
		t.Fatalf("overwrite should merge-conflict: %+v", out.Conflicts)
	}
	noMerge := ReplayConfig{HasLog: true, TextMerge: false}
	out = ReplayVisit(editLog, mainResp, "", httpd.Fields{}, replayW.transport, noMerge)
	if !out.Conflicted() || out.Conflicts[0].Kind != ConflictFieldChanged {
		t.Fatalf("no-merge should field-conflict: %+v", out.Conflicts)
	}
	out = ReplayVisit(editLog, mainResp, "", httpd.Fields{}, replayW.transport, ReplayConfig{HasLog: false})
	if !out.Conflicted() || out.Conflicts[0].Kind != ConflictNoLog {
		t.Fatalf("no-log should conflict: %+v", out.Conflicts)
	}
}

func TestReplayScriptGoneAfterRepair(t *testing.T) {
	w := newFakeWiki()
	var logs []*VisitLog
	b := newTestBrowser(w, &logs)
	w.pages["Infected"] = `x<script>warpjs: appendedit /edit.php?title=Sandbox content PWNED</script>`
	b.Open("/view.php?title=Infected")
	visitLog := logs[0]
	if len(visitLog.Requests) < 3 {
		t.Fatalf("attack should have issued extra requests: %d", len(visitLog.Requests))
	}

	// Repaired page: script removed. Replay issues no attack requests.
	replayW := newFakeWiki()
	replayW.pages["Infected"] = "x"
	mainResp := replayW.transport(httpd.NewRequest("GET", "/view.php?title=Infected"))
	before := len(replayW.requests)
	out := ReplayVisit(visitLog, mainResp, "", httpd.Fields{}, replayW.transport, FullReplay)
	if out.Conflicted() {
		t.Fatalf("clean replay conflicted: %+v", out.Conflicts)
	}
	if len(replayW.requests) != before {
		t.Fatalf("repaired page still issued %d requests", len(replayW.requests)-before)
	}
	if replayW.pages["Sandbox"] != "play here" {
		t.Fatal("replay corrupted the page")
	}
}

func TestReplayFrameBlocked(t *testing.T) {
	w := newFakeWiki()
	var logs []*VisitLog
	b := newTestBrowser(w, &logs)
	html := `<html><body><iframe src="/view.php?title=Main"></iframe></body></html>`
	p := b.OpenAttackerPage("http://evil.example/game", html)
	frame := p.Frames()[0]
	frame.TypeInto("nonexistent", "x") // no field: returns error, fine
	// Record a real event inside the frame by clicking the edit link.
	frame.ClickLink("edit")
	frameLog := frame.Log

	// After the clickjacking patch the frame response carries DENY.
	resp := httpd.HTML("<html><body>content</body></html>")
	resp.SetHeader("X-Frame-Options", "DENY")
	out := ReplayVisit(frameLog, resp, "", httpd.Fields{}, w.transport, FullReplay)
	if !out.Conflicted() || out.Conflicts[0].Kind != ConflictFrameBlocked {
		t.Fatalf("expected frame-blocked conflict: %+v", out.Conflicts)
	}
}

func TestReplayMatchesOriginalRequestIDs(t *testing.T) {
	w := newFakeWiki()
	var logs []*VisitLog
	b := newTestBrowser(w, &logs)
	w.pages["Infected"] = `x<script>warpjs: get /view.php?title=Sandbox</script>`
	b.Open("/view.php?title=Infected")
	visitLog := logs[0]

	// Replay with the same page: the script request must reuse its
	// original request ID.
	replayW := newFakeWiki()
	replayW.pages["Infected"] = w.pages["Infected"]
	mainResp := replayW.transport(httpd.NewRequest("GET", "/view.php?title=Infected"))
	out := ReplayVisit(visitLog, mainResp, "", httpd.Fields{}, replayW.transport, FullReplay)
	if len(out.Requests) != 1 {
		t.Fatalf("replay requests: %+v", out.Requests)
	}
	var origID int64
	for _, tr := range visitLog.Requests {
		if strings.Contains(tr.URL, "Sandbox") {
			origID = tr.RequestID
		}
	}
	if out.Requests[0].RequestID != origID {
		t.Fatalf("request ID not matched: got %d want %d", out.Requests[0].RequestID, origID)
	}
}

func TestReplayUIConflictHook(t *testing.T) {
	w := newFakeWiki()
	var logs []*VisitLog
	b := newTestBrowser(w, &logs)
	b.Open("/view.php?title=Main")
	visitLog := logs[0]
	mainResp := httpd.HTML("<html><body>balance: $2000</body></html>")
	cfg := FullReplay
	cfg.UIConflict = func(orig, repaired string) bool {
		return strings.Contains(repaired, "$2000") && !strings.Contains(orig, "$2000")
	}
	out := ReplayVisit(visitLog, mainResp, "<html><body>balance: $1000</body></html>", httpd.Fields{}, w.transport, cfg)
	if !out.Conflicted() || out.Conflicts[0].Kind != ConflictUI {
		t.Fatalf("UI conflict hook: %+v", out.Conflicts)
	}
}
