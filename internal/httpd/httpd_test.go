package httpd

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

func TestSplitURLAndParams(t *testing.T) {
	req := NewRequest("GET", "/edit.php?title=Main&x=1")
	if req.Path != "/edit.php" {
		t.Fatalf("path = %q", req.Path)
	}
	if req.Param("title") != "Main" || req.Param("x") != "1" {
		t.Fatalf("params: %v", req.Query)
	}
	req.Form.Set("title", "FromForm")
	// Query wins over form.
	if req.Param("title") != "Main" {
		t.Fatal("query should take precedence")
	}
	req2 := NewRequest("POST", "/save")
	req2.Form.Set("body", "x")
	if req2.Param("body") != "x" {
		t.Fatal("form fallback broken")
	}
	if req.URLString() == "" || !strings.HasPrefix(req.URLString(), "/edit.php?") {
		t.Fatalf("url string: %q", req.URLString())
	}
}

func TestRequestFingerprintSensitivity(t *testing.T) {
	base := NewRequest("GET", "/a?x=1")
	base.Cookies = NewFields("sid", "s1")
	same := base.Clone()
	if base.Fingerprint() != same.Fingerprint() {
		t.Fatal("clone must fingerprint equal")
	}
	for _, mutate := range []func(r *Request){
		func(r *Request) { r.Method = "POST" },
		func(r *Request) { r.Path = "/b" },
		func(r *Request) { r.Query.Set("x", "2") },
		func(r *Request) { r.Form.Set("y", "3") },
		func(r *Request) { r.Cookies = r.Cookies.With("sid", "s2") },
	} {
		m := base.Clone()
		mutate(m)
		if m.Fingerprint() == base.Fingerprint() {
			t.Fatalf("mutation not reflected in fingerprint: %+v", m)
		}
	}
	// Extension IDs must NOT affect the fingerprint: the same request
	// replayed with matched IDs compares equal.
	m := base.Clone()
	m.ClientID, m.VisitID, m.RequestID = "c", 9, 9
	if m.Fingerprint() != base.Fingerprint() {
		t.Fatal("warp IDs must not affect request fingerprints")
	}
}

func TestResponseFingerprintSensitivity(t *testing.T) {
	base := HTML("<p>hi</p>")
	if base.Fingerprint() != HTML("<p>hi</p>").Fingerprint() {
		t.Fatal("equal responses must fingerprint equal")
	}
	for _, mutate := range []func(r *Response){
		func(r *Response) { r.Status = 404 },
		func(r *Response) { r.Body = "other" },
		func(r *Response) { r.SetHeader("X-Frame-Options", "DENY") },
		func(r *Response) { r.SetCookie("sid", "x") },
		func(r *Response) { r.ClearCookie("sid") },
	} {
		m := HTML("<p>hi</p>")
		mutate(m)
		if m.Fingerprint() == base.Fingerprint() {
			t.Fatalf("mutation not reflected: %+v", m)
		}
	}
}

func TestResponseHelpers(t *testing.T) {
	r := Redirect("/next")
	if r.Status != 303 || r.Headers.Get("Location") != "/next" {
		t.Fatalf("redirect: %+v", r)
	}
	if NotFound("x").Status != 404 || ServerError("y").Status != 500 {
		t.Fatal("status helpers broken")
	}
	c := r.Clone()
	c.SetHeader("Location", "/other")
	if r.Headers.Get("Location") != "/next" {
		t.Fatal("clone shares headers")
	}
}

func TestAdapterRoundTrip(t *testing.T) {
	var got *Request
	ad := &Adapter{Handler: func(req *Request) *Response {
		got = req
		resp := HTML("<p>served</p>")
		resp.SetCookie("sid", "abc")
		resp.ClearCookie("old")
		return resp
	}}
	srv := httptest.NewServer(ad)
	defer srv.Close()

	hreq, _ := http.NewRequest("POST", srv.URL+"/edit.php?title=Main", strings.NewReader(url.Values{"content": {"hello"}}.Encode()))
	hreq.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	hreq.Header.Set(HeaderClientID, "client-1")
	hreq.Header.Set(HeaderVisitID, "7")
	hreq.Header.Set(HeaderRequestID, "3")
	hreq.AddCookie(&http.Cookie{Name: "sid", Value: "old-sid"})
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	if got == nil || got.Path != "/edit.php" || got.Param("title") != "Main" {
		t.Fatalf("request not adapted: %+v", got)
	}
	if got.Form.Get("content") != "hello" {
		t.Fatalf("form not parsed: %v", got.Form)
	}
	if got.ClientID != "client-1" || got.VisitID != 7 || got.RequestID != 3 {
		t.Fatalf("warp headers not adapted: %+v", got)
	}
	if got.Cookie("sid") != "old-sid" {
		t.Fatalf("cookie not adapted: %v", got.Cookies)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	found := false
	for _, c := range resp.Cookies() {
		if c.Name == "sid" && c.Value == "abc" {
			found = true
		}
	}
	if !found {
		t.Fatalf("set-cookie not adapted: %v", resp.Cookies())
	}
}

// TestFields checks the immutable set every header and cookie map is
// kept in: construction sorts and de-duplicates, and With, Without and
// ApplyCookies return new sets while the original keeps its contents.
func TestFields(t *testing.T) {
	f := NewFields("sid", "a", "lang", "en", "sid", "b")
	if got := strings.Join(f.Names(), ","); got != "lang,sid" || f.Get("sid") != "b" || f.Len() != 2 {
		t.Fatalf("NewFields: names %s, sid=%q", got, f.Get("sid"))
	}
	g := f.With("csrf", "t").With("sid", "c")
	h := f.Without("lang", "absent")
	if f.Get("sid") != "b" || f.Get("csrf") != "" || f.Get("lang") != "en" {
		t.Fatalf("With/Without changed the receiver: %v", f.Map())
	}
	if got := strings.Join(g.Names(), ","); got != "csrf,lang,sid" || g.Get("sid") != "c" {
		t.Fatalf("With: %v", g.Map())
	}
	if h.Len() != 1 || h.Get("sid") != "b" {
		t.Fatalf("Without: %v", h.Map())
	}
	if !f.Without("absent").Equal(f) || f.With("sid", "b") != f || f.Without("absent") != f {
		t.Fatal("no-op edits must return the receiver")
	}
	if !h.Without("sid").Equal(Fields{}) || (Fields{}).Len() != 0 {
		t.Fatal("emptied set is not the empty set")
	}
	m := f.Map()
	m["sid"] = "x"
	if f.Get("sid") != "b" {
		t.Fatal("Map must return a copy")
	}

	resp := HTML("x")
	resp.SetCookie("sid", "new")
	resp.ClearCookie("lang")
	jar := resp.ApplyCookies(f)
	if jar.Get("sid") != "new" || jar.Get("lang") != "" || f.Get("sid") != "b" || f.Get("lang") != "en" {
		t.Fatalf("ApplyCookies: jar %v, original %v", jar.Map(), f.Map())
	}
	if HTML("y").ApplyCookies(f) != f {
		t.Fatal("a response without cookie changes must leave the jar as is")
	}
}
