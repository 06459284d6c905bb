package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"time"

	"warp/internal/browser"
	"warp/internal/core"
	"warp/internal/httpd"
)

// client is the benchmark's extension client: a browser whose transport
// and visit-log upload callbacks wrap Warp.HandleRequest and
// Warp.UploadVisitLog. Those callbacks are the benchmark's seams into the
// core layer. Untraced, they only count requests and bad statuses; traced,
// they also time every call. One goroutine drives a client, so its fields
// need no locking.
type client struct {
	w      *core.Warp
	b      *browser.Browser
	traced bool

	requests  int
	badStatus int

	// Traced only.
	reqUS    []float64     // HandleRequest time per request
	uploadUS []float64     // UploadVisitLog time per upload
	inCore   time.Duration // time inside both callbacks so far
	sample   []*httpd.Request
}

// sampleEvery and sampleCap bound the requests kept for the No-WARP
// replay (app.nowarp_request_us).
const (
	sampleEvery = 8
	sampleCap   = 1024
)

func newClient(w *core.Warp, seed int64, traced bool) *client {
	c := &client{w: w, traced: traced}
	c.b = browser.New(c.transport, c.upload, rand.New(rand.NewSource(seed)))
	return c
}

func (c *client) transport(req *httpd.Request) *httpd.Response {
	c.requests++
	var resp *httpd.Response
	if c.traced {
		start := time.Now()
		resp = c.w.HandleRequest(req)
		d := time.Since(start)
		c.inCore += d
		c.reqUS = append(c.reqUS, us(d))
		if c.requests%sampleEvery == 0 && len(c.sample) < sampleCap {
			c.sample = append(c.sample, req)
		}
	} else {
		resp = c.w.HandleRequest(req)
	}
	if resp == nil || (resp.Status != 200 && resp.Status != 303) {
		c.badStatus++
	}
	return resp
}

func (c *client) upload(log *browser.VisitLog) {
	if !c.traced {
		c.w.UploadVisitLog(log)
		return
	}
	start := time.Now()
	c.w.UploadVisitLog(log)
	d := time.Since(start)
	c.inCore += d
	c.uploadUS = append(c.uploadUS, us(d))
}

// login drives the wiki's login form as user.
func (c *client) login(user string) error {
	p := c.b.Open("/login.php")
	if err := p.TypeInto("user", user); err != nil {
		return err
	}
	if err := p.TypeInto("password", "pw-"+user); err != nil {
		return err
	}
	if _, err := p.Submit(0); err != nil {
		return err
	}
	if c.b.Cookies()["sid"] == "" {
		return fmt.Errorf("login %s: no session", user)
	}
	return nil
}

// do performs one op and reports whether it succeeded: every response was
// 200 or a redirect, the page rendered, and an edit found its form and
// submitted.
func (c *client) do(o op) bool {
	bad := c.badStatus
	if !o.edit {
		p := c.b.Open("/index.php?title=" + url.QueryEscape(o.title))
		return p.DOM != nil && c.badStatus == bad
	}
	p := c.b.Open("/edit.php?title=" + url.QueryEscape(o.title))
	if p.DOM == nil || p.DOM.ByName("content") == nil {
		return false
	}
	if err := p.TypeInto("content", o.text); err != nil {
		return false
	}
	done, err := p.Submit(0)
	return err == nil && done.DOM != nil && c.badStatus == bad
}

// visits accumulates a client's op outcomes over one or more windows.
type visits struct {
	readMS, editMS []float64 // failed ops recorded as failedMS
	// readRound and editRound give each sample's window once merged into a
	// pass (merge): the repair round on repair-online.
	readRound, editRound []int
	rounds               int
	failed               int
	selfUS               []float64 // traced: op time outside the core callbacks
	acked                map[string]string
	edits                map[string]int
}

func newVisits() *visits {
	return &visits{acked: map[string]string{}, edits: map[string]int{}}
}

func (v *visits) n() int { return len(v.readMS) + len(v.editMS) }

// run performs one op and records it.
func (c *client) run(o op, v *visits) {
	inCore := c.inCore
	start := time.Now()
	ok := c.do(o)
	d := time.Since(start)
	if c.traced {
		v.selfUS = append(v.selfUS, us(d-(c.inCore-inCore)))
	}
	lat := ms(d)
	if !ok {
		v.failed++
		lat = failedMS
	}
	if o.edit {
		v.editMS = append(v.editMS, lat)
		if ok {
			v.acked[o.title] = o.text
			v.edits[o.title]++
		}
	} else {
		v.readMS = append(v.readMS, lat)
	}
}

// hottest returns the page the client edited most (ties by name).
func (v *visits) hottest() string {
	best, n := "", -1
	for t, k := range v.edits {
		if k > n || (k == n && t < best) {
			best, n = t, k
		}
	}
	return best
}

// startWindow clears the seam accounting of set-up traffic (the login),
// so a window's figures cover only its own requests.
func (c *client) startWindow() {
	c.requests, c.badStatus = 0, 0
	c.reqUS, c.uploadUS, c.sample = nil, nil, nil
	c.inCore = 0
}
