package httpd

import (
	"net/http"
	"strconv"
)

// HandlerFunc serves one in-process request.
type HandlerFunc func(*Request) *Response

// Adapter bridges net/http to a WARP handler, so a WARP-managed
// application can be served to real browsers (cmd/warp-server).
type Adapter struct {
	Handler HandlerFunc
}

// ServeHTTP implements http.Handler.
func (a *Adapter) ServeHTTP(w http.ResponseWriter, hr *http.Request) {
	req := NewRequest(hr.Method, hr.URL.RequestURI())
	if err := hr.ParseForm(); err == nil {
		req.Form = hr.PostForm
	}
	var kv []string
	for _, c := range hr.Cookies() {
		kv = append(kv, c.Name, c.Value)
	}
	req.Cookies = NewFields(kv...)
	kv = kv[:0]
	for k := range hr.Header {
		kv = append(kv, k, hr.Header.Get(k))
	}
	req.Headers = NewFields(kv...)
	req.ClientID = hr.Header.Get(HeaderClientID)
	req.VisitID, _ = strconv.ParseInt(hr.Header.Get(HeaderVisitID), 10, 64)
	req.RequestID, _ = strconv.ParseInt(hr.Header.Get(HeaderRequestID), 10, 64)

	resp := a.Handler(req)
	for k, v := range resp.Headers.All() {
		w.Header().Set(k, v)
	}
	for name, val := range resp.SetCookies.All() {
		http.SetCookie(w, &http.Cookie{Name: name, Value: val, Path: "/"})
	}
	for _, name := range resp.ClearCookies {
		http.SetCookie(w, &http.Cookie{Name: name, Value: "", Path: "/", MaxAge: -1})
	}
	w.WriteHeader(resp.Status)
	_, _ = w.Write([]byte(resp.Body))
}
