package wiki

import (
	"strings"

	"warp/internal/app"
	"warp/internal/dom"
	"warp/internal/httpd"
	"warp/internal/sqldb"
)

// Vulnerability describes one Table 2 entry: the CVE, the vulnerable
// source file, and the patch that fixes it (the input to retroactive
// patching). The ACL-error scenario has no patch — it is repaired by
// undoing the administrator's page visit.
type Vulnerability struct {
	CVE         string
	Kind        string
	File        string
	Description string
	Fix         string
	Patch       app.Version
}

// Vulnerabilities returns the paper's Table 2 for GoWiki.
func (a *App) Vulnerabilities() []Vulnerability {
	return []Vulnerability{
		{
			CVE:  "CVE-2009-0737",
			Kind: "Reflected XSS",
			File: "config/index.php",
			Description: "the user options (wgDB*) in the live web-based installer " +
				"are not HTML-escaped",
			Fix:   "sanitize all user options with htmlspecialchars() (r46889)",
			Patch: app.Version{Entry: a.installerV2, Note: "CVE-2009-0737: escape installer options"},
		},
		{
			CVE:         "CVE-2009-4589",
			Kind:        "Stored XSS",
			File:        "block.php",
			Description: "the name of the contribution link (Special:Block?ip) is not HTML-escaped",
			Fix:         "sanitize the ip parameter with htmlspecialchars() (r52521)",
			Patch:       app.Version{Entry: a.blockV2, Note: "CVE-2009-4589: escape ip parameter"},
		},
		{
			CVE:         "CVE-2010-1150",
			Kind:        "CSRF",
			File:        "login.php",
			Description: "HTML/API login interfaces do not properly handle an unintended login attempt",
			Fix:         "include a random challenge token in a hidden form field for every login attempt (r64677)",
			Patch:       app.Version{Entry: a.loginV2, Note: "CVE-2010-1150: login challenge token"},
		},
		{
			CVE:         "CVE-2011-0003",
			Kind:        "Clickjacking",
			File:        "common.php",
			Description: "a malicious website can embed the wiki within an iframe",
			Fix:         "add X-Frame-Options: DENY to HTTP headers (r79566)",
			Patch:       app.Version{Lib: a.commonV2(), Note: "CVE-2011-0003: X-Frame-Options DENY"},
		},
		{
			CVE:         "CVE-2004-2186",
			Kind:        "SQL injection",
			File:        "maintenance.php",
			Description: "the language identifier thelang is not properly sanitized",
			Fix:         "sanitize the thelang parameter with wfStrencode()",
			Patch:       app.Version{Entry: a.maintenanceV2, Note: "CVE-2004-2186: escape thelang"},
		},
		{
			CVE:         "—",
			Kind:        "ACL error",
			File:        "",
			Description: "administrator accidentally grants page access to the wrong user",
			Fix:         "revoke by undoing the administrator's page visit",
		},
	}
}

// VulnerabilityByKind finds a Table 2 entry.
func (a *App) VulnerabilityByKind(kind string) (Vulnerability, bool) {
	for _, v := range a.Vulnerabilities() {
		if v.Kind == kind {
			return v, true
		}
	}
	return Vulnerability{}, false
}

// installerV2 escapes the echoed installer options (fix r46889).
func (a *App) installerV2(c *app.Ctx) *httpd.Response {
	lib := a.common(c)
	var b strings.Builder
	b.WriteString("<h1>Installer</h1><p>Checking settings:</p><ul>")
	for _, opt := range []string{"wgDBserver", "wgDBname", "wgDBuser"} {
		v := lib.Sanitize(c.Req.Param(opt)) // patched
		b.WriteString("<li>" + opt + " = " + v + "</li>")
	}
	b.WriteString("</ul>")
	return lib.Decorate(httpd.HTML(lib.Layout("Installer", b.String())))
}

// blockV2 sanitizes the ip parameter before storing it (fix r52521).
func (a *App) blockV2(c *app.Ctx) *httpd.Response {
	lib := a.common(c)
	ip := c.Req.Param("ip")
	if ip == "" {
		return lib.Decorate(httpd.HTML(lib.Layout("Block", `<p>missing ip</p>`)))
	}
	note := "blocked: " + lib.Sanitize(ip) // patched
	if _, err := c.Query("INSERT INTO blocklog (note) VALUES (?)", sqldb.Text(note)); err != nil {
		return lib.Decorate(httpd.ServerError(err.Error()))
	}
	return lib.Decorate(httpd.HTML(lib.Layout("Block", `<p>recorded</p>`)))
}

// loginV2 is the patched login (fix r64677): the form carries a random
// challenge token stored server-side, the POST path requires it, and a
// successful login establishes a fresh session ID (regeneration), which is
// why CSRF repair re-executes broadly (Table 7).
func (a *App) loginV2(c *app.Ctx) *httpd.Response {
	lib := a.common(c)
	if c.Req.Method == "GET" {
		token := c.Token("login.challenge")
		if _, err := c.Query("INSERT INTO tokens (token) VALUES (?)", sqldb.Text(token)); err != nil {
			return lib.Decorate(httpd.ServerError(err.Error()))
		}
		hidden := `<input type="hidden" name="wpLoginToken" value="` + dom.EscapeAttr(token) + `"/>`
		return lib.Decorate(httpd.HTML(lib.Layout("Log in", loginFormHTML(hidden))))
	}
	token := c.Req.Form.Get("wpLoginToken")
	ok := false
	if token != "" {
		res, err := c.Query("SELECT COUNT(*) FROM tokens WHERE token = ?", sqldb.Text(token))
		if err != nil {
			return lib.Decorate(httpd.ServerError(err.Error()))
		}
		ok = res.FirstValue().AsInt() > 0
	}
	if !ok {
		resp := httpd.HTML(lib.Layout("Log in", loginFormHTML("")+`<p id="err">login attempt rejected: missing or invalid token</p>`))
		resp.Status = 403
		return lib.Decorate(resp)
	}
	if _, err := c.Query("DELETE FROM tokens WHERE token = ?", sqldb.Text(token)); err != nil {
		return lib.Decorate(httpd.ServerError(err.Error()))
	}
	return a.doLogin(c, lib, "login.sid.regenerated")
}

// commonV2 is the patched common library: every response carries
// X-Frame-Options: DENY (fix r79566).
func (a *App) commonV2() Common {
	return Common{
		Layout: layout,
		Decorate: func(r *httpd.Response) *httpd.Response {
			r.SetHeader("X-Frame-Options", "DENY")
			return r
		},
		Sanitize: dom.Escape,
	}
}

// maintenanceV2 escapes thelang (the wfStrencode fix).
func (a *App) maintenanceV2(c *app.Ctx) *httpd.Response {
	lib := a.common(c)
	thelang := c.Req.Param("thelang")
	if thelang == "" {
		return lib.Decorate(httpd.HTML(lib.Layout("Maintenance", "<p>no-op</p>")))
	}
	if _, err := c.Query("UPDATE pages SET lang = ?", sqldb.Text(thelang)); err != nil {
		return lib.Decorate(httpd.HTML(lib.Layout("Maintenance", "<p>error</p>")))
	}
	return lib.Decorate(httpd.HTML(lib.Layout("Maintenance", "<p>language updated</p>")))
}
