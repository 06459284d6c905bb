package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"warp/internal/store/storefs"
)

// TestMetadataNeverOutlivesDataRecords pins the WAL's prefix property
// in windowed (non-fsync-per-append) mode across segment rotations: for
// pairs of (data record, then metadata record), a crash must recover a
// prefix of the appended stream, so it can never keep a metadata record
// while losing its earlier data record. The background flusher is
// disabled (huge GroupWindow) and SegmentBytes is tiny, so the only
// fsyncs are segment rotations.
func TestMetadataNeverOutlivesDataRecords(t *testing.T) {
	dir := t.TempDir()
	opts := Options{GroupWindow: time.Hour, SegmentBytes: 512}
	s, _ := mustOpen(t, dir, opts)
	const pairs = 100
	pad := strings.Repeat("x", 120)
	var want []Record
	for i := 0; i < pairs; i++ {
		data := Record{Type: 1, Payload: []byte(fmt.Sprintf("data-%03d", i))}
		meta := Record{Type: 2, Payload: []byte(fmt.Sprintf("meta-%03d/%s", i, pad))}
		want = append(want, data, meta)
		if err := s.Append(data.Type, data.Payload); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(meta.Type, meta.Payload); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash()

	s2, rec := mustOpen(t, dir, opts)
	defer s2.Close()
	assertRecords(t, rec.Records, want, true)
	metas := 0
	for _, r := range rec.Records {
		if r.Type == 2 {
			metas++
		}
	}
	if metas == 0 {
		t.Fatal("no metadata records became durable; rotations never fired and the test exercised nothing")
	}
}

// snapshotDir reads every file in dir, by name.
func snapshotDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestOpenRefusesSecondWALChain: a directory holding segments of a WAL
// chain other than 00 — left by a release that sharded the WAL — must
// be refused with the migration instructions, not opened with that
// chain's records silently dropped, and the refusal must leave every
// file byte-for-byte as it was (even an orphaned temp file that a
// successful Open would delete).
func TestOpenRefusesSecondWALChain(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, testOpts())
	if err := s.Append(1, []byte("before-checkpoint")); err != nil {
		t.Fatal(err)
	}
	checkpointOne(t, s, "state", "checkpointed")
	if err := s.Append(1, []byte("after-checkpoint")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	const planted = "wal-01-00000001.log"
	if err := os.WriteFile(filepath.Join(dir, planted), []byte("second chain"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest-00000009.mf.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := snapshotDir(t, dir)

	_, _, err := Open(dir, testOpts())
	if err == nil {
		t.Fatal("Open accepted a directory holding a second WAL chain")
	}
	for _, want := range []string{planted, "previous release", "wal-shards", "checkpoint"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not mention %q", err, want)
		}
	}
	after := snapshotDir(t, dir)
	if len(after) != len(before) {
		t.Fatalf("refused Open changed the directory: %d files before, %d after", len(before), len(after))
	}
	for name, data := range before {
		if got, ok := after[name]; !ok || !bytes.Equal(got, data) {
			t.Fatalf("refused Open changed %s", name)
		}
	}
}

// TestManifestSkipsRetiredChainBounds: a manifest written by a release
// that sharded the WAL carries one bound per chain. Once the other
// chains' segments are gone (the documented migration: checkpoint with
// one shard), the directory recovers from chain 0's bound alone.
func TestManifestSkipsRetiredChainBounds(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, testOpts())
	checkpointOne(t, s, "state", "checkpointed")
	tail := []Record{{Type: 1, Payload: []byte("tail")}}
	if err := s.Append(tail[0].Type, tail[0].Payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-encode the manifest with bounds for retired chains 1 and 2
	// around chain 0's, as a sharded release wrote it.
	var seq int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if parseSeqName(e.Name(), "manifest-", ".mf", &seq) {
			break
		}
	}
	m, err := readManifestFile(storefs.OS, manifestPath(dir, seq))
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder()
	enc.Byte(manifestVersion)
	enc.Int(m.seq)
	enc.Int(m.maxLSN)
	enc.Uvarint(3)
	enc.Uvarint(0)
	enc.Int(m.walBound)
	enc.Uvarint(1)
	enc.Int(7)
	enc.Uvarint(2)
	enc.Int(9)
	enc.Uvarint(uint64(len(m.sections)))
	for _, sec := range m.sections {
		enc.String(sec.name)
		enc.Int(sec.fileSeq)
	}
	if err := writeBlobFile(storefs.OS, manifestPath(dir, seq), manifestMagic, enc.Bytes()); err != nil {
		t.Fatal(err)
	}

	s2, rec := mustOpen(t, dir, testOpts())
	defer s2.Close()
	if !rec.Manifest {
		t.Fatal("checkpoint not recovered")
	}
	assertRecords(t, rec.Records, tail, false)
}

// TestManifestMissingDeltaIsError: deleting a checkpoint file the
// manifest references must fail Open loudly instead of recovering a
// partial state.
func TestManifestMissingDeltaIsError(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, testOpts())
	checkpointOne(t, s, "base", "base-state")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	removed := false
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		var seq int64
		if parseSeqName(e.Name(), "ckpt-", ".sec", &seq) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
			removed = true
		}
	}
	if !removed {
		t.Fatal("no checkpoint file written")
	}
	if _, _, err := Open(dir, testOpts()); err == nil {
		t.Fatal("Open recovered a checkpoint whose delta file is missing")
	}
}

// TestManifestSectionMissingFromDeltaIsError: a manifest naming a
// section its delta file does not contain is corruption, not a partial
// load.
func TestManifestSectionMissingFromDeltaIsError(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, testOpts())
	checkpointOne(t, s, "base", "base-state")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the manifest to reference a section that does not exist.
	var seq int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if parseSeqName(e.Name(), "manifest-", ".mf", &seq) {
			m, err := readManifestFile(storefs.OS, filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			m.sections = append(m.sections, manifestSection{name: "ghost", fileSeq: m.sections[0].fileSeq})
			if err := writeManifestFile(storefs.OS, dir, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := Open(dir, testOpts()); err == nil {
		t.Fatal("Open recovered a manifest naming a nonexistent section")
	}
}
