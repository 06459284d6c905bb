// Binary codecs for the core's durable objects: history actions with
// their run/query payloads, HTTP requests and responses, browser visit
// logs, conflicts, and repair intents. Used both for WAL records and for
// snapshot encoding (docs/persistence.md).
//
// The run/query aliasing invariant matters here: a QueryPayload's Rec
// pointer is the same object as the owning run's Rec.Queries[i], and
// repair mutates it in place. Query actions therefore encode a
// (run action, query index) reference rather than a copy, and decoding
// restores the shared pointer. Only a query whose owning run has left
// the graph (GC) encodes its record inline.
package core

import (
	"fmt"
	"net/url"
	"sort"

	"warp/internal/app"
	"warp/internal/browser"
	"warp/internal/history"
	"warp/internal/httpd"
	"warp/internal/store"
	"warp/internal/ttdb"
)

// Action payload encodings.
const (
	payloadNone        byte = 0
	payloadRun         byte = 1
	payloadQueryRef    byte = 2
	payloadQueryInline byte = 3
	payloadPatch       byte = 4
)

func encodeDeps(enc *store.Encoder, deps []history.Dep) {
	enc.Uvarint(uint64(len(deps)))
	for _, d := range deps {
		enc.String(string(d.Node))
		enc.Int(d.Time)
	}
}

func decodeDeps(dec *store.Decoder) []history.Dep {
	n := dec.Count()
	out := make([]history.Dep, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, history.Dep{Node: history.NodeID(dec.String()), Time: dec.Int()})
	}
	return out
}

// encodeFields writes a count and then the pairs in name order, the
// layout sorted string maps had before Fields.
func encodeFields(enc *store.Encoder, f httpd.Fields) {
	enc.Uvarint(uint64(f.Len()))
	for k, v := range f.All() {
		enc.String(k)
		enc.String(v)
	}
}

func decodeFields(dec *store.Decoder) httpd.Fields {
	n := dec.Count()
	kv := make([]string, 0, 2*n)
	for i := 0; i < n; i++ {
		kv = append(kv, dec.String(), dec.String())
	}
	return httpd.NewFields(kv...)
}

func encodeURLValues(enc *store.Encoder, v url.Values) {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	enc.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		enc.String(k)
		vals := v[k]
		enc.Uvarint(uint64(len(vals)))
		for _, s := range vals {
			enc.String(s)
		}
	}
}

func decodeURLValues(dec *store.Decoder) url.Values {
	n := dec.Count()
	v := make(url.Values, n)
	for i := 0; i < n; i++ {
		k := dec.String()
		nv := dec.Count()
		vals := make([]string, 0, nv)
		for j := 0; j < nv; j++ {
			vals = append(vals, dec.String())
		}
		v[k] = vals
	}
	return v
}

func encodeRequest(enc *store.Encoder, r *httpd.Request) {
	if r == nil {
		enc.Bool(false)
		return
	}
	enc.Bool(true)
	enc.String(r.Method)
	enc.String(r.Path)
	encodeURLValues(enc, r.Query)
	encodeURLValues(enc, r.Form)
	encodeFields(enc, r.Cookies)
	encodeFields(enc, r.Headers)
	enc.String(r.ClientID)
	enc.Int(r.VisitID)
	enc.Int(r.RequestID)
}

func decodeRequest(dec *store.Decoder) *httpd.Request {
	if !dec.Bool() {
		return nil
	}
	return &httpd.Request{
		Method:    dec.String(),
		Path:      dec.String(),
		Query:     decodeURLValues(dec),
		Form:      decodeURLValues(dec),
		Cookies:   decodeFields(dec),
		Headers:   decodeFields(dec),
		ClientID:  dec.String(),
		VisitID:   dec.Int(),
		RequestID: dec.Int(),
	}
}

func encodeResponse(enc *store.Encoder, r *httpd.Response) {
	if r == nil {
		enc.Bool(false)
		return
	}
	enc.Bool(true)
	enc.Int(int64(r.Status))
	enc.String(r.Body)
	encodeFields(enc, r.Headers)
	encodeFields(enc, r.SetCookies)
	enc.Uvarint(uint64(len(r.ClearCookies)))
	for _, c := range r.ClearCookies {
		enc.String(c)
	}
}

func decodeResponse(dec *store.Decoder) *httpd.Response {
	if !dec.Bool() {
		return nil
	}
	r := &httpd.Response{
		Status:     int(dec.Int()),
		Body:       dec.String(),
		Headers:    decodeFields(dec),
		SetCookies: decodeFields(dec),
	}
	n := dec.Count()
	for i := 0; i < n; i++ {
		r.ClearCookies = append(r.ClearCookies, dec.String())
	}
	return r
}

func encodeRunRecord(enc *store.Encoder, r *app.RunRecord) {
	enc.Int(r.RunID)
	enc.Int(r.Time)
	enc.String(r.File)
	encodeRequest(enc, r.Req)
	encodeResponse(enc, r.Resp)
	enc.Uvarint(uint64(len(r.FilesLoaded)))
	for _, f := range r.FilesLoaded {
		enc.String(f)
	}
	enc.Uvarint(uint64(len(r.Queries)))
	for _, q := range r.Queries {
		ttdb.EncodeRecord(enc, q)
	}
	enc.Uvarint(uint64(len(r.NonDet)))
	for _, nd := range r.NonDet {
		enc.String(nd.Site)
		enc.String(nd.Value)
	}
	enc.Bool(r.Failed)
}

func decodeRunRecord(dec *store.Decoder) *app.RunRecord {
	r := &app.RunRecord{
		RunID: dec.Int(),
		Time:  dec.Int(),
		File:  dec.String(),
		Req:   decodeRequest(dec),
		Resp:  decodeResponse(dec),
	}
	n := dec.Count()
	for i := 0; i < n; i++ {
		r.FilesLoaded = append(r.FilesLoaded, dec.String())
	}
	n = dec.Count()
	for i := 0; i < n; i++ {
		r.Queries = append(r.Queries, ttdb.DecodeRecord(dec))
	}
	n = dec.Count()
	for i := 0; i < n; i++ {
		r.NonDet = append(r.NonDet, app.NonDetCall{Site: dec.String(), Value: dec.String()})
	}
	r.Failed = dec.Bool()
	return r
}

// encodeAction serializes one history action with its payload. g selects
// the mode: non-nil for snapshot encoding (query-to-run references are
// resolved through the graph), nil for WAL encoding at append time
// (query actions reference the owning run's next query slot, which is
// exactly this query's index — recordRun appends them in order).
func encodeAction(enc *store.Encoder, a *history.Action, g *history.Graph) {
	enc.Int(int64(a.ID))
	enc.Byte(byte(a.Kind))
	enc.Int(a.Time)
	encodeDeps(enc, a.Inputs)
	encodeDeps(enc, a.Outputs)

	switch p := a.Payload.(type) {
	case *RunPayload:
		enc.Byte(payloadRun)
		encodeRunRecord(enc, p.Rec)
		files := make([]string, 0, len(p.FileVersions))
		for f := range p.FileVersions {
			files = append(files, f)
		}
		sort.Strings(files)
		enc.Uvarint(uint64(len(files)))
		for _, f := range files {
			enc.String(f)
			enc.Int(int64(p.FileVersions[f]))
		}
		enc.Uvarint(uint64(len(p.QueryActions)))
		for _, id := range p.QueryActions {
			enc.Int(int64(id))
		}
		enc.Bool(p.Superseded.Load())
		enc.Bool(p.Repaired)
	case *QueryPayload:
		idx := -1
		if g != nil {
			// Snapshot mode: the reference is valid only if the owning
			// run is still in the graph with this payload attached.
			if ra := g.Get(p.RunAction); ra != nil {
				if rp, ok := ra.Payload.(*RunPayload); ok && rp == p.run {
					for i, qid := range rp.QueryActions {
						if qid == a.ID {
							idx = i
							break
						}
					}
				}
			}
		} else if p.run != nil {
			// WAL mode, during Append: the owning run has not yet linked
			// this action, so our slot is the next one.
			idx = len(p.run.QueryActions)
		}
		if idx >= 0 {
			enc.Byte(payloadQueryRef)
			enc.Int(int64(p.RunAction))
			enc.Uvarint(uint64(idx))
		} else {
			enc.Byte(payloadQueryInline)
			enc.Int(int64(p.RunAction))
			ttdb.EncodeRecord(enc, p.Rec)
		}
		enc.Bool(p.Superseded.Load())
		enc.Bool(p.Repaired)
	case string:
		enc.Byte(payloadPatch)
		enc.String(p)
	default:
		enc.Byte(payloadNone)
	}
}

// decodeAction rebuilds one action. Query references resolve against g,
// which must already contain the owning run (actions decode in append
// order, and runs always precede their queries). The returned
// QueryPayload, if any, still needs linking into the owning run's
// QueryActions when replaying WAL appends.
func decodeAction(dec *store.Decoder, g *history.Graph) (*history.Action, *QueryPayload, error) {
	a := &history.Action{
		ID:      history.ActionID(dec.Int()),
		Kind:    history.Kind(dec.Byte()),
		Time:    dec.Int(),
		Inputs:  decodeDeps(dec),
		Outputs: decodeDeps(dec),
	}
	var qp *QueryPayload
	switch tag := dec.Byte(); tag {
	case payloadRun:
		p := &RunPayload{Rec: decodeRunRecord(dec), FileVersions: make(map[string]int)}
		n := dec.Count()
		for i := 0; i < n; i++ {
			f := dec.String()
			p.FileVersions[f] = int(dec.Int())
		}
		n = dec.Count()
		for i := 0; i < n; i++ {
			p.QueryActions = append(p.QueryActions, history.ActionID(dec.Int()))
		}
		p.Superseded.Store(dec.Bool())
		p.Repaired = dec.Bool()
		a.Payload = p
	case payloadQueryRef:
		qp = &QueryPayload{RunAction: history.ActionID(dec.Int())}
		idx := int(dec.Uvarint())
		qp.Superseded.Store(dec.Bool())
		qp.Repaired = dec.Bool()
		if dec.Err() == nil {
			ra := g.Get(qp.RunAction)
			if ra == nil {
				return nil, nil, fmt.Errorf("core: query action %d references missing run %d", a.ID, qp.RunAction)
			}
			rp, ok := ra.Payload.(*RunPayload)
			if !ok || idx >= len(rp.Rec.Queries) {
				return nil, nil, fmt.Errorf("core: query action %d references run %d query %d out of range", a.ID, qp.RunAction, idx)
			}
			qp.Rec = rp.Rec.Queries[idx] // restore the shared pointer
			qp.run = rp
		}
		a.Payload = qp
	case payloadQueryInline:
		qp = &QueryPayload{RunAction: history.ActionID(dec.Int()), Rec: ttdb.DecodeRecord(dec)}
		qp.Superseded.Store(dec.Bool())
		qp.Repaired = dec.Bool()
		a.Payload = qp
	case payloadPatch:
		a.Payload = dec.String()
	case payloadNone:
	default:
		return nil, nil, fmt.Errorf("core: unknown action payload tag %d", tag)
	}
	if err := dec.Err(); err != nil {
		return nil, nil, err
	}
	return a, qp, nil
}

func encodeVisitLog(enc *store.Encoder, v *browser.VisitLog) {
	// The live browser grows Events/Requests in place; a background
	// (fault-fence) checkpoint can encode the shared log mid-page-load.
	v.Lock()
	defer v.Unlock()
	enc.String(v.ClientID)
	enc.Int(v.VisitID)
	enc.Int(v.ParentVisit)
	enc.Bool(v.IsFrame)
	enc.String(v.URL)
	enc.String(v.Method)
	enc.String(v.FormEncoded)
	encodeFields(enc, v.Cookies)
	enc.Int(v.Time)
	enc.String(v.AttackerHTML)
	enc.Uvarint(uint64(len(v.Events)))
	for _, e := range v.Events {
		enc.Byte(byte(e.Kind))
		enc.String(e.XPath)
		enc.String(e.Base)
		enc.String(e.Value)
	}
	enc.Uvarint(uint64(len(v.Requests)))
	for _, r := range v.Requests {
		enc.Int(r.RequestID)
		enc.String(r.Method)
		enc.String(r.URL)
		enc.String(r.FormEncoded)
		enc.Uvarint(r.ReqFP)
		enc.Uvarint(r.RespFP)
	}
	enc.Bool(v.Blocked)
}

func decodeVisitLog(dec *store.Decoder) *browser.VisitLog {
	v := &browser.VisitLog{
		ClientID:    dec.String(),
		VisitID:     dec.Int(),
		ParentVisit: dec.Int(),
		IsFrame:     dec.Bool(),
		URL:         dec.String(),
		Method:      dec.String(),
		FormEncoded: dec.String(),
		Cookies:     decodeFields(dec),
		Time:        dec.Int(),
	}
	v.AttackerHTML = dec.String()
	n := dec.Count()
	for i := 0; i < n; i++ {
		v.Events = append(v.Events, browser.Event{
			Kind:  browser.EventKind(dec.Byte()),
			XPath: dec.String(),
			Base:  dec.String(),
			Value: dec.String(),
		})
	}
	n = dec.Count()
	for i := 0; i < n; i++ {
		v.Requests = append(v.Requests, browser.RequestTrace{
			RequestID:   dec.Int(),
			Method:      dec.String(),
			URL:         dec.String(),
			FormEncoded: dec.String(),
			ReqFP:       dec.Uvarint(),
			RespFP:      dec.Uvarint(),
		})
	}
	v.Blocked = dec.Bool()
	return v
}

func encodeConflict(enc *store.Encoder, c browser.Conflict) {
	enc.Byte(byte(c.Kind))
	enc.String(c.Client)
	enc.Int(c.VisitID)
	enc.String(c.Detail)
}

func decodeConflict(dec *store.Decoder) browser.Conflict {
	return browser.Conflict{
		Kind:    browser.ConflictKind(dec.Byte()),
		Client:  dec.String(),
		VisitID: dec.Int(),
		Detail:  dec.String(),
	}
}

func encodeIntent(enc *store.Encoder, it *RepairIntent) {
	enc.Byte(byte(it.Kind))
	enc.String(it.File)
	enc.String(it.Note)
	enc.Int(it.Since)
	enc.String(it.Client)
	enc.Int(it.Visit)
	enc.Bool(it.Admin)
	enc.Bool(it.Dequeue)
	enc.String(it.Partition)
	enc.Int(it.From)
}

func decodeIntent(dec *store.Decoder) RepairIntent {
	return RepairIntent{
		Kind:      IntentKind(dec.Byte()),
		File:      dec.String(),
		Note:      dec.String(),
		Since:     dec.Int(),
		Client:    dec.String(),
		Visit:     dec.Int(),
		Admin:     dec.Bool(),
		Dequeue:   dec.Bool(),
		Partition: dec.String(),
		From:      dec.Int(),
	}
}
