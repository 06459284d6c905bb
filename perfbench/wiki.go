package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"warp/internal/attacks"
	"warp/internal/core"
	"warp/internal/sqldb"
	"warp/internal/store"
	"warp/internal/workload"
)

// wikiSpec is a normal-operation workload: GoWiki seeded with users and
// their pages by workload.Run, then one extension client in a closed loop
// of alternating reads and edits.
type wikiSpec struct {
	users int
	// zipfS > 1 draws pages from a Zipf law of that exponent; otherwise
	// pages are drawn uniformly.
	zipfS float64
	// durable runs on core.Open over a fresh directory with the store's
	// default flush policy (windowed group commit, 2 ms window), takes a
	// Checkpoint every ckptEvery visits, and after the window closes and
	// reopens the directory.
	durable bool
}

const (
	// A run sets a wiki deployment up at least setupRepeats times and
	// until set-ups have taken setupMin; the last one is measured and
	// setup_s is the median. A small deployment sets up in about 25 ms,
	// and a median of five of those moved by a third from run to run.
	setupRepeats = 5
	setupMin     = time.Second
	ckptEvery    = 5000
	// coldPage is a page seeded once and never edited.
	coldPage = "Main"
)

// budget ends a window after a duration or, when ops > 0, after that many
// ops (the determinism test's fixed-size windows).
type budget struct {
	d   time.Duration
	ops int
}

func (b budget) done(start time.Time, n int) bool {
	if b.ops > 0 {
		return n >= b.ops
	}
	return time.Since(start) >= b.d
}

// wikiDeployment is one set-up wiki deployment with its logged-in client.
// open is the durable deployment discard must still close.
type wikiDeployment struct {
	env  *attacks.Env
	c    *client
	dir  string
	fs   *countFS
	open *core.Warp
}

func (d *wikiDeployment) discard() {
	if d == nil || d.dir == "" {
		return
	}
	if d.open != nil {
		_ = d.open.Close() // the directory is removed next
	}
	os.RemoveAll(d.dir)
}

func setupWiki(spec wikiSpec, o runOpts) (*wikiDeployment, error) {
	d := &wikiDeployment{}
	cfg := workload.Config{Users: spec.users, Seed: o.seed}
	if spec.durable {
		dir, err := os.MkdirTemp(o.dataDir, "wiki-durable-")
		if err != nil {
			return nil, err
		}
		d.dir, cfg.DataDir = dir, dir
		if o.traced {
			d.fs = newCountFS()
			cfg.Durability = store.Options{FS: d.fs}
		}
	}
	res, err := workload.Run(cfg)
	if err != nil {
		if d.dir != "" {
			os.RemoveAll(d.dir)
		}
		return nil, err
	}
	d.env = res.Env
	if spec.durable {
		d.open = d.env.W
	}
	d.c = newClient(d.env.W, o.seed, o.traced)
	if err := d.c.login(d.env.Others[0].Name); err != nil {
		d.discard()
		return nil, err
	}
	return d, nil
}

func runWiki(spec wikiSpec, o runOpts) (*measured, error) {
	m := newMeasured(o.traced)
	var d *wikiDeployment
	defer func() { d.discard() }()
	var spent time.Duration
	for i := 0; i < setupRepeats || spent < setupMin; i++ {
		d.discard()
		d = nil
		runtime.GC()
		start := time.Now()
		var err error
		if d, err = setupWiki(spec, o); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(start)
		spent += took
		m.setupS = append(m.setupS, took.Seconds())
	}
	w, c := d.env.W, d.c
	var pages []string
	for _, u := range d.env.AllUsers() {
		pages = append(pages, "Page-"+u.Name)
	}
	g := newGen(o.seed, pages, spec.zipfS)
	v := newVisits()

	runtime.GC()
	c.startWindow()
	before := takeSnapshot(w)
	var fs0 fsCounts
	if d.fs != nil {
		fs0 = d.fs.counts()
	}
	var ckptMS, ckptBytes []float64
	start := time.Now()
	for n := 0; !o.budget.done(start, n); n++ {
		c.run(g.next(), v)
		if spec.durable && (n+1)%ckptEvery == 0 {
			if err := checkpoint(w, d.fs, &ckptMS, &ckptBytes); err != nil {
				return nil, err
			}
		}
	}
	m.windowS = time.Since(start).Seconds()
	m.heap()
	after := takeSnapshot(w)
	m.logB = float64(logBytes(after.stor) - logBytes(before.stor))
	m.v.merge(v)

	if o.traced {
		m.acc.add(c, v, delta{before, after})
		m.layer["history.actions"] = float64(after.actions)
		if err := probe(w, o.seed, c, v.hottest(), m.layer); err != nil {
			return nil, err
		}
		if d.fs != nil {
			fsWindow(d.fs, fs0, float64(v.n()), ckptBytes, m.layer)
			m.layer["store.checkpoint_ms"] = median(ckptMS)
			m.layer["store.checkpoint_bytes"] = mean(ckptBytes)
		}
	}

	if !spec.durable {
		for title, text := range v.acked {
			m.check(pageHolds(w, title, text))
		}
		return m, nil
	}
	// Durability: close, reopen (timed), and read every acknowledged
	// edit back from what recovery restored.
	d.open = nil
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	cfg := core.Config{Seed: o.seed}
	var fs *countFS
	if o.traced {
		fs = newCountFS()
		cfg.Durability = store.Options{FS: fs}
	}
	t0 := time.Now()
	re, err := core.Open(d.dir, cfg)
	reopen := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	d.open = re
	if o.traced {
		m.layer["store.reopen_s"] = reopen.Seconds()
		m.layer["store.reopen_read_bytes"] = float64(fs.readBytes.Load())
	}
	m.check(!re.Recovery().TailCorrupt)
	for title, text := range v.acked {
		m.check(pageHolds(re, title, text))
	}
	return m, nil
}

// checkpoint runs Warp.Checkpoint; with a counting FS it records the
// checkpoint's time and the bytes written through the FS while it ran.
func checkpoint(w *core.Warp, fs *countFS, msOut, bytesOut *[]float64) error {
	if fs == nil {
		return w.Checkpoint()
	}
	b0 := fs.writeBytes.Load()
	start := time.Now()
	err := w.Checkpoint()
	*msOut = append(*msOut, ms(time.Since(start)))
	*bytesOut = append(*bytesOut, float64(fs.writeBytes.Load()-b0))
	return err
}

// fsWindow fills the store layer's FS counts for a window of n visits
// whose checkpoints wrote ckptBytes.
func fsWindow(fs *countFS, c0 fsCounts, n float64, ckptBytes []float64, out map[string]float64) {
	c := fs.counts()
	written := float64(c.writeBytes - c0.writeBytes)
	out["store.disk_bytes_per_visit"] = ratio(written, n)
	out["store.write_bytes_per_visit"] = ratio(written-mean(ckptBytes)*float64(len(ckptBytes)), n)
	out["store.writes_per_visit"] = ratio(float64(c.writes-c0.writes), n)
	out["store.fsyncs_per_visit"] = ratio(float64(c.fsyncs-c0.fsyncs), n)
	lat := fs.fsyncsSince(c0)
	out["store.fsync_us_p50"] = quantile(lat, 0.5)
	out["store.fsync_us_p99"] = quantile(lat, 0.99)
}

// pageHolds reports whether page title's content reads back as text.
func pageHolds(w *core.Warp, title, text string) bool {
	res, _, err := w.DB.Exec("SELECT content FROM pages WHERE title = ?", sqldb.Text(title))
	return err == nil && !res.Empty() && res.FirstValue().AsText() == text
}
