package core_test

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"testing"

	"warp/internal/browser"
	"warp/internal/core"
	"warp/internal/history"
	"warp/internal/httpd"
	"warp/internal/webapp/wiki"
)

// wikiSession records a GoWiki login, a page read and a page edit through
// one extension browser, returning the deployment, the browser and the
// visit logs it uploaded.
func wikiSession(t *testing.T) (*core.Warp, *browser.Browser, []*browser.VisitLog) {
	t.Helper()
	w := core.New(core.Config{Seed: 42})
	app, err := wiki.Install(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.CreateUser("alice", "pw-alice", false); err != nil {
		t.Fatal(err)
	}
	for _, title := range []string{"Main", "Page-alice"} {
		if err := app.CreatePage(title, "text of "+title, false); err != nil {
			t.Fatal(err)
		}
	}
	var logs []*browser.VisitLog
	upload := func(v *browser.VisitLog) {
		logs = append(logs, v)
		w.UploadVisitLog(v)
	}
	b := browser.New(w.HandleRequest, upload, rand.New(rand.NewSource(7)))

	p := b.Open("/login.php")
	if err := p.TypeInto("user", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := p.TypeInto("password", "pw-alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(0); err != nil {
		t.Fatal(err)
	}
	if b.Cookies()["sid"] == "" {
		t.Fatal("login established no session")
	}
	if p := b.Open("/index.php?title=Main"); p.DOM == nil {
		t.Fatal("read rendered nothing")
	}
	p = b.Open("/edit.php?title=Page-alice")
	if err := p.TypeInto("content", "edited by alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(0); err != nil {
		t.Fatal(err)
	}
	return w, b, logs
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// runGolden is what one recorded app run looked like before request and
// response headers, cookie jars and node IDs became shared: the request
// and response fingerprints, the logged sizes, and a hash of the run
// action's WAL encoding. reqBytes and codec leave out the per-request
// X-Warp-* header map the browser used to send, which repeated the
// client, visit and request IDs the request carries as fields.
type runGolden struct {
	method, path  string
	reqFP, respFP uint64
	reqBytes      int
	respBytes     int
	codec         uint64
}

var goldenRuns = []runGolden{
	{"GET", "/login.php", 0x28ec222f6cb90b1f, 0x4bf62a7331e02fa5, 52, 466, 0xe16aad0b7ecec1a},
	{"POST", "/login.php", 0x17244582d5e49bf, 0xf98d04353ab9e913, 81, 56, 0x5f97084c6e9ab92e},
	{"GET", "/index.php", 0x618700948f6fbf69, 0x555fb1917141b600, 81, 654, 0x628d26abfd14ff74},
	{"GET", "/index.php", 0x618700948f6fbf69, 0x555fb1917141b600, 81, 654, 0x984af035899dca0a},
	{"GET", "/edit.php", 0x1eb24bfe7f4d0fd0, 0x5fd9e764d3fe6f91, 86, 511, 0x5c0a2248a1e4be20},
	{"POST", "/edit.php", 0xb1a1c07156dc5fbc, 0xf9b9a5e49f0834b7, 111, 43, 0xbcc92a96bd51eb93},
	{"GET", "/index.php", 0x235ab77f90b71910, 0x78d77618d710563d, 87, 686, 0x2619ebf445e19780},
}

// goldenVisits hashes the WAL encoding of each uploaded visit log.
var goldenVisits = []uint64{
	0x70d5db501bc8f0b9,
	0x560efedc5b83e488,
	0xda9d35990069a3c3,
	0x199bedc070c534b0,
	0xd599089a7cf6c0ec,
}

// TestRecordedExchangesMatchGolden pins what a wiki login, read and edit
// record: fingerprints, Table 6 sizes and the codec's bytes, which repair
// and recovery depend on, stay what they were when every request and
// response owned private header and cookie maps.
func TestRecordedExchangesMatchGolden(t *testing.T) {
	w, _, logs := wikiSession(t)
	runs := w.Graph.ByKind(history.KindAppRun)
	if len(runs) != len(goldenRuns) {
		t.Fatalf("recorded %d runs, want %d", len(runs), len(goldenRuns))
	}
	for i, a := range runs {
		want := goldenRuns[i]
		rec := a.Payload.(*core.RunPayload).Rec
		req, resp := rec.Req, rec.Resp
		if req.Method != want.method || req.Path != want.path {
			t.Fatalf("run %d: %s %s, want %s %s", i, req.Method, req.Path, want.method, want.path)
		}
		if req.Headers.Len() != 0 {
			t.Errorf("run %d: browser request carries headers %v", i, req.Headers.Names())
		}
		if req.Fingerprint() != want.reqFP || resp.Fingerprint() != want.respFP {
			t.Errorf("run %d: fingerprints %#x/%#x, want %#x/%#x", i, req.Fingerprint(), resp.Fingerprint(), want.reqFP, want.respFP)
		}
		if req.ApproxBytes() != want.reqBytes || resp.ApproxBytes() != want.respBytes {
			t.Errorf("run %d: logged sizes %d/%d, want %d/%d", i, req.ApproxBytes(), resp.ApproxBytes(), want.reqBytes, want.respBytes)
		}
		enc := core.EncodeAction(a, w.Graph)
		if got := fnv64(enc); got != want.codec {
			t.Errorf("run %d: encoding hash %#x, want %#x", i, got, want.codec)
		}
		dec, err := core.DecodeAction(enc, w.Graph)
		if err != nil {
			t.Fatalf("run %d: decode: %v", i, err)
		}
		if re := core.EncodeAction(dec, w.Graph); !bytes.Equal(re, enc) {
			t.Errorf("run %d: encoding does not round-trip", i)
		}
		drec := dec.Payload.(*core.RunPayload).Rec
		if drec.Req.Fingerprint() != want.reqFP || drec.Resp.Fingerprint() != want.respFP {
			t.Errorf("run %d: decoded fingerprints differ", i)
		}
	}
	if len(logs) != len(goldenVisits) {
		t.Fatalf("uploaded %d visit logs, want %d", len(logs), len(goldenVisits))
	}
	for i, v := range logs {
		if got := fnv64(core.EncodeVisitLog(v)); got != goldenVisits[i] {
			t.Errorf("visit %d: encoding hash %#x, want %#x", i, got, goldenVisits[i])
		}
	}
}

// TestRecordedExchangesDoNotAlias edits headers and cookies through the
// public API after a session and checks that no other recorded request,
// response, visit log or the browser's jar changes with them. Recorded
// exchanges share header sets and the browser's cookie jar, so any write
// that reached a shared value would show up here.
func TestRecordedExchangesDoNotAlias(t *testing.T) {
	w, b, logs := wikiSession(t)
	runs := w.Graph.ByKind(history.KindAppRun)
	type snap struct{ reqFP, respFP uint64 }
	fps := func() []snap {
		var out []snap
		for _, a := range runs {
			rec := a.Payload.(*core.RunPayload).Rec
			out = append(out, snap{rec.Req.Fingerprint(), rec.Resp.Fingerprint()})
		}
		return out
	}
	logBytes := func() [][]byte {
		var out [][]byte
		for _, v := range logs {
			out = append(out, core.EncodeVisitLog(v))
		}
		return out
	}
	before, beforeLogs, jar := fps(), logBytes(), b.Cookies()
	if jar["sid"] == "" {
		t.Fatal("no session cookie")
	}

	// Responses of two HTML runs share one header set; requests after the
	// login share the browser's jar.
	var html []*httpd.Response
	var withSid []*httpd.Request
	for _, a := range runs {
		rec := a.Payload.(*core.RunPayload).Rec
		if rec.Resp.Headers.Get("Content-Type") == "text/html" {
			html = append(html, rec.Resp)
		}
		if rec.Req.Cookie("sid") != "" {
			withSid = append(withSid, rec.Req)
		}
	}
	if len(html) < 2 || len(withSid) < 2 {
		t.Fatalf("session has %d HTML responses and %d requests with a session", len(html), len(withSid))
	}
	html[0].SetHeader("X-Frame-Options", "DENY")
	html[0].SetHeader("Content-Type", "text/plain")
	html[0].SetCookie("sid", "forged")
	withSid[0].Cookies = withSid[0].Cookies.With("sid", "forged").Without("lang")
	// The map Browser.Cookies returns is the caller's own.
	b.Cookies()["sid"] = "forged"

	after := fps()
	for i := range before {
		if runs[i].Payload.(*core.RunPayload).Rec.Resp == html[0] || runs[i].Payload.(*core.RunPayload).Rec.Req == withSid[0] {
			continue
		}
		if after[i] != before[i] {
			t.Errorf("run %d changed with another run's headers or cookies", i)
		}
	}
	if got := httpd.HTML("x").Headers; got.Get("X-Frame-Options") != "" || got.Get("Content-Type") != "text/html" {
		t.Errorf("new HTML responses picked up an edit: %v", got.Names())
	}
	for i, enc := range logBytes() {
		if !bytes.Equal(enc, beforeLogs[i]) {
			t.Errorf("visit log %d changed", i)
		}
	}
	if got := b.Cookies(); got["sid"] != jar["sid"] || len(got) != len(jar) {
		t.Errorf("browser jar changed: %v, want %v", got, jar)
	}

	// Browser-side cookie edits replace the jar: recorded visits keep the
	// jar they started with.
	b.SetCookie("sid", "replaced")
	b.ClearCookie("sid")
	for i, enc := range logBytes() {
		if !bytes.Equal(enc, beforeLogs[i]) {
			t.Errorf("visit log %d changed with the browser's jar", i)
		}
	}
	b.SetCookie("sid", jar["sid"])

	// Cookie invalidation deletes the cookie from the request it serves,
	// not from the jar that request shares with the browser and the
	// visit's log.
	core.InvalidateCookies(w, b.ClientID, "sid")
	p := b.Open("/index.php?title=Main")
	if got := p.Log.Cookies.Get("sid"); got != jar["sid"] {
		t.Errorf("invalidation changed the visit's recorded jar: sid=%q", got)
	}
	last := w.Graph.ByKind(history.KindAppRun)
	rec := last[len(last)-1].Payload.(*core.RunPayload).Rec
	if rec.Req.Cookie("sid") != "" {
		t.Errorf("invalidated request still carries sid=%q", rec.Req.Cookie("sid"))
	}
	if got := b.Cookies()["sid"]; got != "" {
		t.Errorf("browser kept invalidated cookie sid=%q", got)
	}
}
