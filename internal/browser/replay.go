package browser

import (
	"fmt"
	"net/url"
	"strings"

	"warp/internal/dom"
	"warp/internal/httpd"
	"warp/internal/merge"
)

// ReplayConfig selects the re-execution fidelity. The three Table 4
// configurations map to: {HasLog:false}, {HasLog:true, TextMerge:false},
// and {HasLog:true, TextMerge:true} (full WARP).
type ReplayConfig struct {
	// HasLog is false when the client had no WARP extension: no DOM-level
	// log exists, so an affected page cannot be verified or replayed and
	// the user must resolve it by hand (§2.3).
	HasLog bool
	// TextMerge enables three-way merging of text-field input (§5.3).
	TextMerge bool
	// UIConflict, when set, lets the application flag a semantic conflict
	// between the original and repaired page even if every event replays
	// (§5.4's account-balance example).
	UIConflict func(origBody, newBody string) bool
}

// FullReplay is the complete WARP configuration.
var FullReplay = ReplayConfig{HasLog: true, TextMerge: true}

// ConflictKind classifies replay conflicts.
type ConflictKind uint8

// Conflict kinds.
const (
	ConflictNoLog        ConflictKind = iota // no extension log for an affected page
	ConflictTargetGone                       // event target not found on repaired page
	ConflictMerge                            // three-way merge failed
	ConflictFieldChanged                     // no-merge mode: field changed under the user
	ConflictFrameBlocked                     // frame refused to load (X-Frame-Options)
	ConflictUI                               // application UI-conflict function fired
)

// String names the kind.
func (k ConflictKind) String() string {
	switch k {
	case ConflictNoLog:
		return "no-log"
	case ConflictTargetGone:
		return "target-gone"
	case ConflictMerge:
		return "merge-conflict"
	case ConflictFieldChanged:
		return "field-changed"
	case ConflictFrameBlocked:
		return "frame-blocked"
	case ConflictUI:
		return "ui-conflict"
	default:
		return fmt.Sprintf("conflict(%d)", uint8(k))
	}
}

// Conflict is one replay conflict, queued for the user to resolve (§5.4).
type Conflict struct {
	Kind    ConflictKind
	Client  string
	VisitID int64
	Detail  string
}

// Navigation describes a page transition the replayed visit performed: a
// clicked link, a submitted form, or a sub-frame load. The repair
// controller matches navigations to the original child page visits and
// recursively replays them.
type Navigation struct {
	Method  string
	URL     string
	Form    url.Values
	IsFrame bool
}

// Outcome is the result of replaying one page visit.
type Outcome struct {
	Conflicts   []Conflict
	Navigations []Navigation
	// Requests are the requests the page issued during replay (main
	// request chain and script activity), traced like normal execution.
	Requests []RequestTrace
	// UnmatchedOriginals are requests the visit issued during the original
	// execution that the replay did not re-issue — typically an undone
	// attack's requests. The repair controller cancels their effects.
	UnmatchedOriginals []RequestTrace
	// MainResponse is the response rendered for the visit's main request.
	MainResponse *httpd.Response
	// CookiesAfter is the clone browser's cookie jar after replay, used
	// for cookie invalidation when it diverges from the client's real
	// timeline (§5.3).
	CookiesAfter httpd.Fields
}

// Conflicted reports whether any conflict occurred.
func (o *Outcome) Conflicted() bool { return len(o.Conflicts) > 0 }

// ReplayVisit re-executes one recorded page visit in a cloned browser on
// the server (§5.3). mainResp, when non-nil, is the repaired response for
// the visit's main request as already computed by the caller; when nil the
// clone fetches the main request itself through the transport (matching it
// to the original request ID). origBody is the body the client originally
// received (for the UI-conflict hook); cookies is the clone's jar at this
// point in the client's repaired timeline. The clone runs sandboxed: its
// only capability is the transport and the given cookies.
func ReplayVisit(log *VisitLog, mainResp *httpd.Response, origBody string, cookies httpd.Fields, transport Transport, cfg ReplayConfig) *Outcome {
	out := &Outcome{CookiesAfter: cookies}
	if !cfg.HasLog {
		out.Conflicts = append(out.Conflicts, Conflict{
			Kind: ConflictNoLog, Client: log.ClientID, VisitID: log.VisitID,
			Detail: "client has no WARP extension log; manual inspection required",
		})
		return out
	}

	clone := &Browser{
		ClientID:     log.ClientID,
		HasExtension: true,
		transport:    transport,
		cookies:      cookies,
		visitSeq:     log.VisitID,
	}
	page := &Page{Browser: clone, URL: log.URL}
	page.Log = &VisitLog{
		ClientID: log.ClientID, VisitID: log.VisitID,
		ParentVisit: log.ParentVisit, IsFrame: log.IsFrame,
		URL: log.URL, Method: log.Method, FormEncoded: log.FormEncoded,
	}
	page.replayOrig = log

	// Obtain the repaired main response: fetch it (following redirects, as
	// the original browser did) unless the caller provided it.
	if mainResp == nil && log.AttackerHTML == "" {
		form := url.Values{}
		if log.FormEncoded != "" {
			if vals, err := url.ParseQuery(log.FormEncoded); err == nil {
				form = vals
			}
		}
		resp, _ := page.roundTrip(log.Method, log.URL, form)
		for i := 0; i < 4 && resp.Status == 303 && resp.Headers.Get("Location") != ""; i++ {
			resp, _ = page.roundTrip("GET", resp.Headers.Get("Location"), url.Values{})
		}
		mainResp = resp
	} else if mainResp != nil && len(log.Requests) > 0 {
		// The caller executed the main request: consume its original trace
		// so it is not reported as cancelled.
		page.replayMatched = map[int]bool{0: true}
	}
	out.MainResponse = mainResp

	// Render the repaired main response (or the attacker's recorded page,
	// which is outside WARP's control and unchanged).
	switch {
	case log.AttackerHTML != "":
		page.DOM = dom.Parse(log.AttackerHTML)
	case log.IsFrame && mainResp != nil && strings.EqualFold(mainResp.Headers.Get("X-Frame-Options"), "DENY"):
		page.Blocked = true
		out.Conflicts = append(out.Conflicts, Conflict{
			Kind: ConflictFrameBlocked, Client: log.ClientID, VisitID: log.VisitID,
			Detail: fmt.Sprintf("frame load refused; %d recorded events not replayed", len(log.Events)),
		})
	case mainResp != nil:
		page.DOM = dom.Parse(mainResp.Body)
	default:
		page.DOM = dom.NewDocument()
	}

	// Re-run page scripts: on a repaired page the injected payload is
	// gone, so the attack's requests are simply never issued (§5).
	if !page.Blocked {
		page.runScripts()
		// Sub-frame loads become navigations for the controller.
		for _, f := range page.DOM.ElementsByTag("iframe") {
			if src, ok := f.Attr("src"); ok && src != "" {
				out.Navigations = append(out.Navigations, Navigation{Method: "GET", URL: src, IsFrame: true})
			}
		}
	}

	// Replay the user's DOM-level events.
	if !page.Blocked {
		for _, ev := range log.Events {
			replayEvent(page, ev, cfg, out)
		}
	}

	if cfg.UIConflict != nil && mainResp != nil && log.AttackerHTML == "" {
		// The application may flag semantically important page changes even
		// when replay succeeds.
		if cfg.UIConflict(origBody, mainResp.Body) {
			out.Conflicts = append(out.Conflicts, Conflict{
				Kind: ConflictUI, Client: log.ClientID, VisitID: log.VisitID,
				Detail: "application UI-conflict function flagged the repaired page",
			})
		}
	}

	out.Requests = page.Log.Requests
	for i, tr := range log.Requests {
		if !page.replayMatched[i] {
			out.UnmatchedOriginals = append(out.UnmatchedOriginals, tr)
		}
	}
	out.CookiesAfter = clone.cookies
	return out
}

// replayEvent applies one recorded event to the replayed page.
func replayEvent(p *Page, ev Event, cfg ReplayConfig, out *Outcome) {
	log := p.replayOrig
	target := dom.Resolve(p.DOM, ev.XPath)
	if target == nil {
		out.Conflicts = append(out.Conflicts, Conflict{
			Kind: ConflictTargetGone, Client: log.ClientID, VisitID: log.VisitID,
			Detail: fmt.Sprintf("%s target %s not found on repaired page", ev.Kind, ev.XPath),
		})
		return
	}
	switch ev.Kind {
	case EventInput:
		current := fieldValue(target)
		if cfg.TextMerge {
			merged, ok := merge.Merge(ev.Base, current, ev.Value)
			if !ok {
				out.Conflicts = append(out.Conflicts, Conflict{
					Kind: ConflictMerge, Client: log.ClientID, VisitID: log.VisitID,
					Detail: fmt.Sprintf("user input into %s conflicts with repaired content (base=%.40q cur=%.40q val=%.40q)", ev.XPath, ev.Base, current, ev.Value),
				})
				return
			}
			setFieldValue(target, merged)
			return
		}
		// Without text merging, the field must be exactly as the user found
		// it; otherwise their keystrokes cannot be re-applied (§8.3).
		if current != ev.Base {
			out.Conflicts = append(out.Conflicts, Conflict{
				Kind: ConflictFieldChanged, Client: log.ClientID, VisitID: log.VisitID,
				Detail: fmt.Sprintf("field %s changed during repair and text merge is disabled", ev.XPath),
			})
			return
		}
		setFieldValue(target, ev.Value)
	case EventCheck:
		if ev.Value == "on" {
			target.SetAttr("checked", "checked")
		}
	case EventClick:
		href := target.AttrOr("href", "")
		if href == "" {
			out.Conflicts = append(out.Conflicts, Conflict{
				Kind: ConflictTargetGone, Client: log.ClientID, VisitID: log.VisitID,
				Detail: fmt.Sprintf("click target %s is no longer a link", ev.XPath),
			})
			return
		}
		out.Navigations = append(out.Navigations, Navigation{Method: "GET", URL: href, Form: url.Values{}})
	case EventSubmit:
		method, action, vals := formSubmission(target)
		nav := Navigation{Method: strings.ToUpper(method), URL: action, Form: vals}
		if nav.Method == "GET" && len(vals) > 0 {
			nav.URL = action + "?" + vals.Encode()
			nav.Form = url.Values{}
		}
		out.Navigations = append(out.Navigations, nav)
	}
}
