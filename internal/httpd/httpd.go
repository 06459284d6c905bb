// Package httpd provides the HTTP request/response model shared by WARP's
// browser simulator, HTTP server manager, and application runtime.
//
// WARP's components exchange requests in-process for determinism and
// speed — the paper's Apache + mod_php pipeline becomes direct calls — but
// the same types adapt to net/http so the wiki can be served to a real
// browser (cmd/warp-server).
//
// The WARP browser extension's ⟨client ID, visit ID, request ID⟩ headers
// (paper §5.1) are first-class fields here, as are cookies, which WARP
// tracks as a dependency channel between page visits.
package httpd

import (
	"hash/fnv"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// WARP extension header names, as sent by the browser extension (§5.1).
// Adapter reads them off the wire into Request's ClientID, VisitID and
// RequestID; in-process clients set those fields directly.
const (
	HeaderClientID  = "X-Warp-Client-Id"
	HeaderVisitID   = "X-Warp-Visit-Id"
	HeaderRequestID = "X-Warp-Request-Id"
)

// Request is one HTTP request as seen by the server.
type Request struct {
	Method string // GET or POST
	Path   string // e.g. "/index.php"
	Query  url.Values
	Form   url.Values // POST form fields
	// Cookies is usually the sending browser's whole jar, shared with
	// the browser and its visit log rather than copied (Fields is
	// immutable).
	Cookies Fields
	Headers Fields

	// WARP browser extension identifiers (§5.1). ClientID is empty for
	// clients without the extension.
	ClientID  string
	VisitID   int64
	RequestID int64
}

// NewRequest builds a GET request for a raw URL ("/path?k=v").
func NewRequest(method, rawURL string) *Request {
	path, q := SplitURL(rawURL)
	return &Request{
		Method: method,
		Path:   path,
		Query:  q,
		Form:   url.Values{},
	}
}

// SplitURL splits "/path?query" into path and parsed query values.
func SplitURL(raw string) (string, url.Values) {
	path := raw
	q := url.Values{}
	if i := strings.IndexByte(raw, '?'); i >= 0 {
		path = raw[:i]
		if vals, err := url.ParseQuery(raw[i+1:]); err == nil {
			q = vals
		}
	}
	return path, q
}

// URLString reassembles the request target.
func (r *Request) URLString() string {
	if len(r.Query) == 0 {
		return r.Path
	}
	return r.Path + "?" + r.Query.Encode()
}

// Param returns a parameter by name, checking the query string first and
// then the form body, like PHP's $_REQUEST.
func (r *Request) Param(name string) string {
	if v := r.Query.Get(name); v != "" {
		return v
	}
	return r.Form.Get(name)
}

// Cookie returns a cookie value, or "".
func (r *Request) Cookie(name string) string { return r.Cookies.Get(name) }

// Clone returns a copy of the request that shares nothing mutable with
// it (its cookie and header sets are immutable).
func (r *Request) Clone() *Request {
	c := &Request{
		Method:    r.Method,
		Path:      r.Path,
		Query:     url.Values{},
		Form:      url.Values{},
		Cookies:   r.Cookies,
		Headers:   r.Headers,
		ClientID:  r.ClientID,
		VisitID:   r.VisitID,
		RequestID: r.RequestID,
	}
	for k, vs := range r.Query {
		c.Query[k] = append([]string{}, vs...)
	}
	for k, vs := range r.Form {
		c.Form[k] = append([]string{}, vs...)
	}
	return c
}

// Fingerprint hashes the parts of the request the server's behavior
// depends on. The repair controller compares fingerprints to decide
// whether a replayed browser issued the same request as the original
// execution (§5.3).
func (r *Request) Fingerprint() uint64 {
	h := fnv.New64a()
	write := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	write(r.Method)
	write(r.Path)
	write(r.Query.Encode())
	write(r.Form.Encode())
	for k, v := range r.Cookies.All() {
		write(k)
		write(v)
	}
	return h.Sum64()
}

// ApproxBytes estimates the logged size of the request (Table 6
// accounting).
func (r *Request) ApproxBytes() int {
	n := len(r.Method) + len(r.Path) + len(r.Query.Encode()) + len(r.Form.Encode()) + len(r.ClientID) + 16
	for k, v := range r.Cookies.All() {
		n += len(k) + len(v)
	}
	for k, v := range r.Headers.All() {
		n += len(k) + len(v)
	}
	return n
}

// Response is one HTTP response.
type Response struct {
	Status int
	Body   string
	// Headers is shared by every HTML response until one sets a header of
	// its own (Fields is immutable).
	Headers Fields
	// SetCookies are cookies to set; ClearCookies are cookie names to
	// delete. WARP watches these to track the cookie dependency channel
	// (§5.3).
	SetCookies   Fields
	ClearCookies []string
}

// htmlHeaders is the header set of every HTML response.
var htmlHeaders = NewFields("Content-Type", "text/html")

// NewResponse returns an empty 200 response.
func NewResponse() *Response {
	return &Response{Status: 200}
}

// HTML builds a 200 text/html response.
func HTML(body string) *Response {
	return &Response{Status: 200, Body: body, Headers: htmlHeaders}
}

// Redirect builds a 303 redirect.
func Redirect(location string) *Response {
	return &Response{Status: 303, Headers: NewFields("Location", location)}
}

// NotFound builds a 404 response.
func NotFound(msg string) *Response {
	r := NewResponse()
	r.Status = 404
	r.Body = msg
	return r
}

// ServerError builds a 500 response.
func ServerError(msg string) *Response {
	r := NewResponse()
	r.Status = 500
	r.Body = msg
	return r
}

// SetHeader sets a response header.
func (r *Response) SetHeader(name, value string) {
	r.Headers = r.Headers.With(name, value)
}

// SetCookie records a Set-Cookie on the response.
func (r *Response) SetCookie(name, value string) {
	r.SetCookies = r.SetCookies.With(name, value)
}

// ClearCookie records a cookie deletion on the response.
func (r *Response) ClearCookie(name string) {
	r.ClearCookies = append(r.ClearCookies, name)
}

// Fingerprint hashes the response's observable content: status, body,
// headers, and cookie changes. Used for the "did the HTTP response change"
// test that drives browser re-execution (§5).
func (r *Response) Fingerprint() uint64 {
	h := fnv.New64a()
	write := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	write(strconv.Itoa(r.Status))
	write(r.Body)
	for k, v := range r.Headers.All() {
		write(k)
		write(v)
	}
	for k, v := range r.SetCookies.All() {
		write(k)
		write(v)
	}
	cc := append([]string{}, r.ClearCookies...)
	sort.Strings(cc)
	for _, k := range cc {
		write("clear:" + k)
	}
	return h.Sum64()
}

// ApproxBytes estimates the logged size of the response.
func (r *Response) ApproxBytes() int {
	n := len(r.Body) + 8
	for k, v := range r.Headers.All() {
		n += len(k) + len(v)
	}
	for k, v := range r.SetCookies.All() {
		n += len(k) + len(v)
	}
	for _, k := range r.ClearCookies {
		n += len(k)
	}
	return n
}

// Clone returns a copy of the response that shares nothing mutable with
// it (its header and cookie sets are immutable).
func (r *Response) Clone() *Response {
	c := *r
	c.ClearCookies = append([]string(nil), r.ClearCookies...)
	return &c
}

// ApplyCookies returns jar after the response's cookie changes: its
// Set-Cookies, then its deletions. jar itself is unchanged, and is
// returned as is when the response changes no cookie.
func (r *Response) ApplyCookies(jar Fields) Fields {
	for k, v := range r.SetCookies.All() {
		jar = jar.With(k, v)
	}
	return jar.Without(r.ClearCookies...)
}
