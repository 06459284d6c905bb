package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"warp/internal/store/faultfs"
)

// faultOpts is the standard configuration of the fault tests: every
// append waits for its fsync (so injected sync failures surface on the
// append path deterministically) and retries back off fast.
func faultOpts(ffs *faultfs.FS) Options {
	return Options{
		SyncEveryAppend: true,
		FS:              ffs,
		RetryAttempts:   3,
		RetryBackoff:    time.Microsecond,
	}
}

func TestTransientWriteFailureRetried(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	s, _ := mustOpen(t, dir, faultOpts(ffs))

	// Fail exactly one WAL write; the retry policy must absorb it.
	var failed bool
	ffs.AddRule(func(op faultfs.Op) error {
		if !failed && op.Kind == faultfs.OpWrite && strings.Contains(op.Path, "wal-") {
			failed = true
			return fmt.Errorf("%w: transient EIO", faultfs.ErrInjected)
		}
		return nil
	})
	if err := s.Append(1, []byte("survives-transient")); err != nil {
		t.Fatalf("Append through transient write failure: %v", err)
	}
	if !failed {
		t.Fatal("injection rule never fired")
	}
	// A retried transient failure is not a fault: the record was acked.
	if err := s.LastFault(); err != nil {
		t.Fatalf("transient retried failure latched a fault: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec := mustOpen(t, dir, testOpts())
	defer s2.Close()
	assertRecords(t, rec.Records, []Record{{Type: 1, Payload: []byte("survives-transient")}}, false)
}

func TestFsyncFailurePoisonsSegmentAndRotates(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	s, _ := mustOpen(t, dir, faultOpts(ffs))

	before := s.wal.activeSeq()

	// Fail exactly one WAL fsync. The waiting appender must get an
	// error (its record's durability is unknown — fsyncgate), the
	// segment must be sealed, and the WAL must rotate to a fresh one.
	var failed bool
	ffs.AddRule(func(op faultfs.Op) error {
		if !failed && op.Kind == faultfs.OpSync && strings.Contains(op.Path, "wal-") {
			failed = true
			return fmt.Errorf("%w: fsync EIO", faultfs.ErrInjected)
		}
		return nil
	})
	err := s.Append(1, []byte("ack-unknown"))
	if err == nil {
		t.Fatal("append whose fsync failed was acked")
	}
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append error does not carry the injected cause: %v", err)
	}
	if s.LastFault() == nil {
		t.Fatal("fsync poisoning did not report a fault")
	}
	after := s.wal.activeSeq()
	if after == before {
		t.Fatalf("WAL did not rotate off the poisoned segment %d", before)
	}

	// The store is still writable: later appends land on the fresh
	// segment and sync normally.
	if err := s.Append(1, []byte("post-poison")); err != nil {
		t.Fatalf("append after poison rotation: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Recovery replays the poisoned segment as far as its frames are
	// intact (here the write itself succeeded, only the fsync "failed",
	// so both records survive — the error above was the honest "I don't
	// know" answer, not a loss).
	s2, rec := mustOpen(t, dir, testOpts())
	defer s2.Close()
	assertRecords(t, rec.Records, []Record{
		{Type: 1, Payload: []byte("ack-unknown")},
		{Type: 1, Payload: []byte("post-poison")},
	}, false)
}

// TestENOSPCCheckpointKeepsPriorRoot is the satellite acceptance test:
// a checkpoint that dies of ENOSPC mid-write must leave the previous
// manifest + delta chain as the recovery root, reference no partial
// ckpt-*.sec file, and leave no .tmp debris behind.
func TestENOSPCCheckpointKeepsPriorRoot(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	s, _ := mustOpen(t, dir, faultOpts(ffs))

	checkpointOne(t, s, "a", "payload-1")
	if err := s.Append(1, []byte("tail-after-ckpt")); err != nil {
		t.Fatalf("Append: %v", err)
	}

	ffs.FailKind(faultfs.OpWrite, "ckpt-", faultfs.ErrNoSpace)
	err := s.WriteCheckpoint(func(cw *CheckpointWriter) error {
		cw.Section("a").String("payload-2")
		return nil
	})
	if err == nil {
		t.Fatal("checkpoint on a full disk succeeded")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("checkpoint error does not carry ENOSPC: %v", err)
	}
	if s.LastFault() == nil {
		t.Fatal("failed checkpoint did not report a fault")
	}
	select {
	case <-s.FaultSignal():
	default:
		t.Fatal("failed checkpoint did not signal the fault channel")
	}
	ffs.Clear()

	// The store remains usable, and a later checkpoint succeeds.
	if err := s.Append(1, []byte("post-enospc")); err != nil {
		t.Fatalf("append after failed checkpoint: %v", err)
	}
	checkpointOne(t, s, "a", "payload-3")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("aborted checkpoint left %s behind", e.Name())
		}
	}

	s2, rec := mustOpen(t, dir, testOpts())
	defer s2.Close()
	if !rec.Manifest {
		t.Fatal("no manifest recovered")
	}
	if got := readSectionString(t, rec, "a"); got != "payload-3" {
		t.Fatalf("section a = %q, want payload-3", got)
	}
}

// TestENOSPCCheckpointPriorRootRecovers is the same scenario without
// the rescue checkpoint: reopening right after the failed checkpoint
// must recover from the prior manifest plus the WAL tail.
func TestENOSPCCheckpointPriorRootRecovers(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	s, _ := mustOpen(t, dir, faultOpts(ffs))

	checkpointOne(t, s, "a", "payload-1")
	if err := s.Append(1, []byte("tail-after-ckpt")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	ffs.FailKind(faultfs.OpWrite, "ckpt-", faultfs.ErrNoSpace)
	if err := s.WriteCheckpoint(func(cw *CheckpointWriter) error {
		cw.Section("a").String("payload-2")
		return nil
	}); err == nil {
		t.Fatal("checkpoint on a full disk succeeded")
	}
	ffs.Clear()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec := mustOpen(t, dir, testOpts())
	defer s2.Close()
	if got := readSectionString(t, rec, "a"); got != "payload-1" {
		t.Fatalf("section a = %q, want the pre-failure payload-1", got)
	}
	assertRecords(t, rec.Records, []Record{{Type: 1, Payload: []byte("tail-after-ckpt")}}, false)
}

func TestOrphanedTmpCleanedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, testOpts())
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, name := range []string{"ckpt-00000099.sec.tmp", "manifest-00000099.mf.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, _ := mustOpen(t, dir, testOpts())
	defer s2.Close()
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("Open left orphaned temp file %s", e.Name())
		}
	}
}

// TestSegmentCreateSyncsDirectory asserts the satellite directory-sync
// rule: creating a WAL segment is followed by an fsync of the store
// directory, so the file's name survives a crash along with its data.
func TestSegmentCreateSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	var opened, synced bool
	ffs.AddRule(func(op faultfs.Op) error {
		switch {
		case op.Kind == faultfs.OpOpen && strings.Contains(op.Path, "wal-"):
			opened = true
		case op.Kind == faultfs.OpSyncDir && opened:
			synced = true
		}
		return nil
	})
	s, _ := mustOpen(t, dir, faultOpts(ffs))
	defer s.Close()
	if !opened || !synced {
		t.Fatalf("segment create not followed by directory sync (opened=%v synced=%v)", opened, synced)
	}
}

func TestScrubDetectsCorruptSealedSegment(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentBytes = 256 // rotate quickly so sealed segments exist
	s, _ := mustOpen(t, dir, opts)

	payload := make([]byte, 64)
	for i := 0; i < 32; i++ {
		if err := s.Append(1, payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := s.ScrubNow(); err != nil {
		t.Fatalf("scrub of intact store found corruption: %v", err)
	}

	// Bit-rot the first (sealed) segment in place.
	victim := segName(dir, 1)
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := s.ScrubNow(); err == nil {
		t.Fatal("scrub missed the corrupted sealed segment")
	}
	st := s.ScrubStats()
	if st.Corrupt == 0 || len(st.Quarantined) != 1 {
		t.Fatalf("scrub stats %+v, want 1 corrupt quarantined file", st)
	}
	if s.LastFault() == nil {
		t.Fatal("scrub corruption did not report a fault")
	}

	// The fault fence's checkpoint re-secures everything from memory; at
	// that point prune retires the quarantined segment by renaming it.
	checkpointOne(t, s, "a", "rescued")
	if _, err := os.Stat(victim + ".quarantine"); err != nil {
		t.Fatalf("quarantined segment not renamed: %v", err)
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		t.Fatalf("corrupt segment still in place: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Recovery ignores the .quarantine file and roots at the checkpoint.
	s2, rec := mustOpen(t, dir, testOpts())
	defer s2.Close()
	if got := readSectionString(t, rec, "a"); got != "rescued" {
		t.Fatalf("section a = %q, want rescued", got)
	}
}

func TestScrubCorruptCheckpointForcesFullCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, testOpts())

	writeSections(t, s, map[string]string{"a": "a1", "b": "b1"}, map[string]bool{"a": true, "b": true})
	// An incremental checkpoint that keeps "b": its bytes still live in
	// the first delta file.
	writeSections(t, s, map[string]string{"a": "a2", "b": "b1"}, map[string]bool{"a": true})

	victim := ckptPath(dir, 1)
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := s.ScrubNow(); err == nil {
		t.Fatal("scrub missed the corrupted live checkpoint file")
	}

	// The next checkpoint must be full — Keep("b") refused — so the new
	// manifest stops referencing the corrupt file and prune quarantines
	// it.
	st := writeSections(t, s, map[string]string{"a": "a3", "b": "b1"}, map[string]bool{"a": true})
	if !st.Full {
		t.Fatalf("checkpoint after scrub corruption was not full: %+v", st)
	}
	if _, err := os.Stat(victim + ".quarantine"); err != nil {
		t.Fatalf("quarantined checkpoint file not renamed: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec := mustOpen(t, dir, testOpts())
	defer s2.Close()
	if got := readSectionString(t, rec, "b"); got != "b1" {
		t.Fatalf("section b = %q, want b1", got)
	}
}

// TestStoreFaultSweepAckedNeverLost sweeps a persistent fault across
// every I/O operation index of a fixed append workload: whatever the
// injection point, every append the store acked must be recovered on a
// clean reopen. This is the store half of the two-outcome invariant —
// acked data is never lost, whether the run degraded or not.
func TestStoreFaultSweepAckedNeverLost(t *testing.T) {
	const appends = 12
	record := func(i int) []byte { return []byte(fmt.Sprintf("r%02d", i)) }

	// Counting pass: how many I/O ops does the workload issue?
	probe := faultfs.New(nil)
	func() {
		dir := t.TempDir()
		s, _ := mustOpen(t, dir, faultOpts(probe))
		for i := 0; i < appends; i++ {
			_ = s.Append(1, record(i))
		}
		_ = s.Close()
	}()
	total := probe.OpCount()
	if total < 10 {
		t.Fatalf("probe counted only %d ops", total)
	}

	step := int64(1)
	if testing.Short() {
		step = 7
	}
	for k := int64(1); k <= total; k += step {
		k := k
		t.Run(fmt.Sprintf("op%03d", k), func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.New(nil)
			ffs.FailFrom(k, fmt.Errorf("%w: dying disk", faultfs.ErrInjected))
			s, _, err := Open(dir, faultOpts(ffs))
			if err != nil {
				return // faulted during Open: a clean refusal, nothing acked
			}
			var acked [][]byte
			for i := 0; i < appends; i++ {
				if s.Append(1, record(i)) == nil {
					acked = append(acked, record(i))
				}
			}
			_ = s.Close() // may fail; the store did its best

			s2, rec, err := Open(dir, testOpts())
			if err != nil {
				t.Fatalf("clean reopen failed: %v", err)
			}
			defer s2.Close()
			// Every acked record must appear, in order, possibly
			// interleaved with unacked ones that reached disk anyway.
			j := 0
			for _, r := range rec.Records {
				if j < len(acked) && string(r.Payload) == string(acked[j]) {
					j++
				}
			}
			if j != len(acked) {
				t.Fatalf("fault at op %d: acked record %q lost (%d/%d recovered)",
					k, acked[j], j, len(acked))
			}
		})
	}
}
