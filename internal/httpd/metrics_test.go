// External test package: core wires httpd into a full deployment here,
// and httpd itself is imported by core, so this smoke test of the
// /warp/metrics endpoint cannot live inside package httpd.
package httpd_test

import (
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"warp/internal/app"
	"warp/internal/core"
	"warp/internal/httpd"
	"warp/internal/obs"
	"warp/internal/sqldb"
)

var (
	// One sample line of the Prometheus text format (version 0.0.4):
	// metric name, optional {key="value",...} label set, float value.
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? (\S+)$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
)

// TestMetricsEndpointParses drives a small deployment with
// observability on, fetches the metrics handler that warp-server mounts
// at GET /warp/metrics, and verifies every line of the exposition
// parses: TYPE comments, samples with optional label sets, finite
// values, cumulative histogram buckets with a trailing +Inf equal to
// _count, and the series the instrumented layers must have produced.
func TestMetricsEndpointParses(t *testing.T) {
	prevEnabled := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prevEnabled)

	w := core.New(core.Config{Seed: 7})
	if _, _, err := w.DB.Exec("CREATE TABLE notes (id INTEGER PRIMARY KEY, body TEXT)"); err != nil {
		t.Fatal(err)
	}
	if err := w.Runtime.Register("index.php", app.Version{Entry: func(c *app.Ctx) *httpd.Response {
		c.MustQuery("INSERT INTO notes (id, body) VALUES (?, ?)", sqldb.Int(1), sqldb.Text("hello"))
		c.MustQuery("SELECT body FROM notes WHERE id = ?", sqldb.Int(1))
		return httpd.HTML("<html><body>ok</body></html>")
	}}); err != nil {
		t.Fatal(err)
	}
	w.Runtime.Mount("/", "index.php")
	b := w.NewBrowser()
	if p := b.Open("/"); p.DOM == nil {
		t.Fatal("page visit failed")
	}

	req := httptest.NewRequest("GET", "/warp/metrics", nil)
	rec := httptest.NewRecorder()
	obs.Handler().ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	body := rec.Body.String()

	// count trails the bucket series of the same histogram; bucket
	// counts must be cumulative and end at the +Inf value.
	var (
		lastBucketName string
		lastCum        float64
		sawInf         bool
	)
	names := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !typeRe.MatchString(line) {
				t.Fatalf("line %d: unparsable comment %q", ln+1, line)
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: unparsable sample %q", ln+1, line)
		}
		name, labels := m[1], m[2]
		v, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
		}
		names[name] = true

		if strings.HasSuffix(name, "_bucket") {
			key := name + labelsWithoutLe(labels)
			if key != lastBucketName {
				lastBucketName, lastCum, sawInf = key, 0, false
			}
			if v < lastCum {
				t.Fatalf("line %d: bucket series %s not cumulative (%g < %g)", ln+1, key, v, lastCum)
			}
			lastCum = v
			if strings.Contains(labels, `le="+Inf"`) {
				sawInf = true
			}
		} else if strings.HasSuffix(name, "_count") && lastBucketName != "" &&
			strings.TrimSuffix(name, "_count") == strings.TrimSuffix(strings.SplitN(lastBucketName, "{", 2)[0], "_bucket") {
			if !sawInf {
				t.Fatalf("histogram %s has no +Inf bucket", name)
			}
			if v != lastCum {
				t.Fatalf("%s = %g, but +Inf bucket = %g", name, v, lastCum)
			}
		}
	}

	// The layers instrumented in this run must have exported series.
	for _, want := range []string{
		"warp_core_requests_total",
		"warp_core_request_seconds_count",
		"warp_sqldb_exec_seconds_bucket",
		"warp_sqldb_exec_seconds_count",
		"warp_history_actions",
		"warp_history_nodes",
	} {
		if !names[want] {
			t.Errorf("exposition is missing series %s", want)
		}
	}
}

// labelsWithoutLe strips the le label so bucket series of one histogram
// share a key.
func labelsWithoutLe(labels string) string {
	if labels == "" {
		return ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var kept []string
	for _, kv := range strings.Split(inner, ",") {
		if !strings.HasPrefix(kv, "le=") {
			kept = append(kept, kv)
		}
	}
	return "{" + strings.Join(kept, ",") + "}"
}
