// Package storefs is the store's pluggable filesystem seam. Every byte
// internal/store reads or writes — WAL segments, checkpoint delta
// files, manifests, directory fsyncs — goes through an FS, so a test
// can substitute an error-injecting implementation (faultfs) and prove
// the store's behavior under ENOSPC, failed fsyncs, and corrupted
// reads without ever touching a real disk fault.
//
// The interface is deliberately narrow: exactly the operations the
// store performs, nothing more. OS is the production implementation;
// a nil Options.FS selects it.
package storefs

import (
	"io"
	"os"
)

// File is one open file. *os.File satisfies it.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Sync fsyncs the file. A failed Sync leaves every write since the
	// last successful Sync in unknown durability state — the store
	// treats the failure as poisonous (see internal/store's segment
	// sealing), never as retryable.
	Sync() error
	// Truncate durably shortens the file to size bytes (the caller
	// still Syncs).
	Truncate(size int64) error
	// Stat returns file metadata (the store uses only Size).
	Stat() (os.FileInfo, error)
}

// FS is the filesystem the store runs on.
type FS interface {
	// OpenFile opens a file with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile reads a whole file (WAL segment replay, manifests).
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory in name order.
	ReadDir(name string) ([]os.DirEntry, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory, making renames, creates, and
	// removals within it durable.
	SyncDir(dir string) error
}

// OS is the real operating-system filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
