package core

import (
	"warp/internal/browser"
	"warp/internal/history"
	"warp/internal/store"
)

// EncodeAction and DecodeAction expose the history-action codec to the
// external test package, which needs a real GoWiki deployment (the wiki
// imports core, so those tests cannot live in package core).
func EncodeAction(a *history.Action, g *history.Graph) []byte {
	enc := store.NewEncoder()
	encodeAction(enc, a, g)
	return enc.Bytes()
}

func DecodeAction(b []byte, g *history.Graph) (*history.Action, error) {
	a, _, err := decodeAction(store.NewDecoder(b), g)
	return a, err
}

// EncodeVisitLog exposes the visit-log codec to the external test package.
func EncodeVisitLog(v *browser.VisitLog) []byte {
	enc := store.NewEncoder()
	encodeVisitLog(enc, v)
	return enc.Bytes()
}

// InvalidateCookies queues cookie invalidation for a client, as a repair
// whose replayed jar diverged would (§5.3).
func InvalidateCookies(w *Warp, client string, names ...string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cookieInvalid[client] = names
}
