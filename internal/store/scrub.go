package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Background scrubbing (docs/persistence.md "Failure model"). Disk
// corruption that arrives *after* a successful write — bit rot, a bad
// sector, a firmware lie — would otherwise sit undetected until the
// next recovery needs the file, which is the worst possible moment to
// learn about it. The scrubber re-verifies the CRCs of cold data on a
// period: every sealed WAL segment (rotation fsyncs a segment before
// the next one opens, so anything torn or checksum-broken in a sealed
// segment is real corruption, not an in-flight tail) and every
// checkpoint file the current manifest references.
//
// A corrupt file is quarantined: recorded so the next prune renames it
// to <name>.quarantine instead of deleting it, surfaced in metrics and
// ScrubStats, and reported as a storage fault. The fault fence
// (internal/core) responds with a checkpoint — forced full when a live
// checkpoint file is corrupt, so the fresh manifest stops referencing
// the bad file — which re-secures the affected state from memory and
// lets prune retire the quarantined file from the recovery root.

// ScrubStats is the scrubber's cumulative progress (Store.ScrubStats,
// surfaced by the deployment health endpoint).
type ScrubStats struct {
	// Passes counts completed scrub passes.
	Passes int64
	// Files and Bytes count files and bytes CRC-verified across all
	// passes.
	Files int64
	Bytes int64
	// Corrupt counts files found corrupt.
	Corrupt int64
	// Quarantined lists the files currently quarantined (corrupt, not
	// yet retired by a checkpoint's prune, or already renamed to
	// .quarantine).
	Quarantined []string
	// LastPass is when the most recent pass finished (zero before the
	// first).
	LastPass time.Time
}

// ScrubStats returns the scrubber's cumulative progress.
func (s *Store) ScrubStats() ScrubStats {
	s.scrubMu.Lock()
	st := s.scrubStat
	s.scrubMu.Unlock()
	s.faultMu.Lock()
	st.Quarantined = make([]string, 0, len(s.quarantined))
	for name := range s.quarantined {
		st.Quarantined = append(st.Quarantined, name)
	}
	s.faultMu.Unlock()
	return st
}

// scrubber is the background loop started by Options.ScrubInterval.
func (s *Store) scrubber() {
	defer close(s.scrubDone)
	tick := time.NewTicker(s.opts.ScrubInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.scrubStop:
			return
		case <-tick.C:
			_ = s.ScrubNow()
		}
	}
}

// ScrubNow runs one synchronous scrub pass and returns the first
// corruption found (nil when the pass was clean). Concurrent with
// normal operation: it reads only sealed segments and installed
// checkpoint files, and tolerates files pruned mid-pass.
func (s *Store) ScrubNow() error {
	s.stateMu.Lock()
	dead := s.dead || s.closed
	s.stateMu.Unlock()
	if dead {
		return ErrCrashed
	}

	// Snapshot the moving parts first. Segments with seq >= the active
	// seq may still be receiving appends (or be mid-rotation) — only
	// strictly older ones are guaranteed sealed and stable.
	activeSeq := s.wal.activeSeq()
	s.ckptMu.Lock()
	var ckptRefs map[int64]bool
	if s.manifest != nil {
		ckptRefs = s.manifest.fileRefs()
	}
	s.ckptMu.Unlock()

	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return err
	}

	var firstCorrupt error
	var files, bytes, corrupt int64
	flag := func(name string, err error) {
		corrupt++
		if firstCorrupt == nil {
			firstCorrupt = err
		}
		scrubCorrupt.Inc()
		s.faultMu.Lock()
		s.quarantined[name] = true
		n := len(s.quarantined)
		s.faultMu.Unlock()
		quarantinedGauge.Set(int64(n))
	}

	for _, e := range entries {
		var seq int64
		var id int
		name := e.Name()
		if s.isSealedTorn(name) || s.isQuarantined(name) {
			continue
		}
		switch {
		case parseSegName(name, &id, &seq):
			if seq >= activeSeq {
				continue // active or mid-rotation
			}
			n, clean, err := readSegment(s.fs, filepath.Join(s.dir, name), func([]byte) error { return nil })
			if errors.Is(err, os.ErrNotExist) {
				continue // pruned mid-pass
			}
			files++
			bytes += n
			if err != nil || !clean {
				if err == nil {
					err = fmt.Errorf("%w: WAL segment %s: invalid frame at offset %d", ErrCorrupt, name, n)
				}
				flag(name, err)
			}
		case parseSeqName(name, "ckpt-", ".sec", &seq):
			if ckptRefs == nil || !ckptRefs[seq] {
				continue // unreferenced: prune's problem, not recovery's
			}
			if _, err := validateSectionFile(s.fs, filepath.Join(s.dir, name)); err != nil {
				if errors.Is(err, os.ErrNotExist) {
					continue
				}
				flag(name, err)
				// The corrupt file is part of the live checkpoint: force
				// the next checkpoint full so its manifest re-writes every
				// section and stops referencing this file.
				s.ckptMu.Lock()
				s.sinceFull = s.opts.CompactEvery
				s.ckptMu.Unlock()
			} else {
				files++
				if f, err := s.fs.OpenFile(filepath.Join(s.dir, name), os.O_RDONLY, 0); err == nil {
					if info, err := f.Stat(); err == nil {
						bytes += info.Size()
					}
					f.Close()
				}
			}
		}
	}

	s.scrubMu.Lock()
	s.scrubStat.Passes++
	s.scrubStat.Files += files
	s.scrubStat.Bytes += bytes
	s.scrubStat.Corrupt += corrupt
	s.scrubStat.LastPass = time.Now()
	s.scrubMu.Unlock()
	scrubPasses.Inc()
	scrubFiles.Add(uint64(files))
	scrubBytes.Add(uint64(bytes))

	if firstCorrupt != nil {
		s.reportFault(fmt.Errorf("store: scrub: %w", firstCorrupt))
	}
	return firstCorrupt
}

func (s *Store) isQuarantined(name string) bool {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	return s.quarantined[name]
}
