package main

import (
	"os"
	"sync"
	"sync/atomic"
	"time"

	"warp/internal/store/storefs"
)

// countFS is the storefs.FS the traced run hands the store: it passes
// every call to the OS filesystem and counts bytes and calls, timing each
// fsync. The store's group-commit flusher calls it from its own
// goroutines, so every field is synchronized.
type countFS struct {
	storefs.FS
	writeBytes atomic.Int64
	writes     atomic.Int64
	readBytes  atomic.Int64
	fsyncs     atomic.Int64

	mu      sync.Mutex
	fsyncUS []float64
}

func newCountFS() *countFS { return &countFS{FS: storefs.OS} }

func (f *countFS) OpenFile(name string, flag int, perm os.FileMode) (storefs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: file, fs: f}, nil
}

func (f *countFS) ReadFile(name string) ([]byte, error) {
	b, err := f.FS.ReadFile(name)
	f.readBytes.Add(int64(len(b)))
	return b, err
}

func (f *countFS) SyncDir(dir string) error {
	return f.sync(func() error { return f.FS.SyncDir(dir) })
}

func (f *countFS) sync(do func() error) error {
	start := time.Now()
	err := do()
	d := time.Since(start)
	f.fsyncs.Add(1)
	f.mu.Lock()
	f.fsyncUS = append(f.fsyncUS, us(d))
	f.mu.Unlock()
	return err
}

// fsCounts is a point-in-time copy of a countFS's write-side counters.
type fsCounts struct {
	writeBytes, writes, fsyncs int64
	nFsyncUS                   int
}

func (f *countFS) counts() fsCounts {
	f.mu.Lock()
	n := len(f.fsyncUS)
	f.mu.Unlock()
	return fsCounts{f.writeBytes.Load(), f.writes.Load(), f.fsyncs.Load(), n}
}

// fsyncsSince returns the fsync latencies observed after c was taken.
func (f *countFS) fsyncsSince(c fsCounts) []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]float64{}, f.fsyncUS[c.nFsyncUS:]...)
}

type countFile struct {
	storefs.File
	fs *countFS
}

func (c *countFile) Write(p []byte) (int, error) {
	n, err := c.File.Write(p)
	c.fs.writes.Add(1)
	c.fs.writeBytes.Add(int64(n))
	return n, err
}

func (c *countFile) Read(p []byte) (int, error) {
	n, err := c.File.Read(p)
	c.fs.readBytes.Add(int64(n))
	return n, err
}

func (c *countFile) Sync() error { return c.fs.sync(c.File.Sync) }
