package store

import (
	"time"

	"warp/internal/obs"
	"warp/internal/store/storefs"
)

// Durability-path instrumentation (docs/observability.md). The byte and
// operation counters are unconditional atomic adds on paths that are
// already syscall-bound; the latency histograms read the clock only
// when obs is enabled.
var (
	// walAppendHist observes Append latency as the caller sees it —
	// frame encode, chain append, and (under SyncEveryAppend) the
	// group-commit wait.
	walAppendHist = obs.NewHistogram("warp_store_wal_append_seconds")
	// walFsyncHist observes each physical WAL fsync (group-commit leader
	// syncs and segment finalizes alike).
	walFsyncHist = obs.NewHistogram("warp_store_wal_fsync_seconds")
	// walAppends / walAppendBytes count appended records and their
	// framed bytes.
	walAppends     = obs.NewCounter("warp_store_wal_appends_total")
	walAppendBytes = obs.NewCounter("warp_store_wal_append_bytes_total")
	// walFsyncs counts physical WAL fsyncs.
	walFsyncs = obs.NewCounter("warp_store_wal_fsyncs_total")
	// ckptHist observes whole-checkpoint duration (rotation, build,
	// manifest install, prune); ckptSectionHist observes each section the
	// builder streams (encode + chunk spill).
	ckptHist        = obs.NewHistogram("warp_store_checkpoint_seconds")
	ckptSectionHist = obs.NewHistogram("warp_store_checkpoint_section_seconds")
	// ckptTotal / ckptBytes count completed checkpoints and their delta
	// bytes.
	ckptTotal = obs.NewCounter("warp_store_checkpoints_total")
	ckptBytes = obs.NewCounter("warp_store_checkpoint_bytes_total")
)

// Failure-path instrumentation (docs/persistence.md "Failure model"):
// exhausted-retry errors by operation, retries, fsync poisonings, and
// the scrubber's progress.
var (
	// ioErr* count I/O errors that survived the retry policy (or are
	// never retried, like fsync), by operation.
	ioErrWrite   = obs.NewCounter(`warp_store_io_errors_total{op="write"}`)
	ioErrSync    = obs.NewCounter(`warp_store_io_errors_total{op="sync"}`)
	ioErrSyncDir = obs.NewCounter(`warp_store_io_errors_total{op="syncdir"}`)
	ioErrOpen    = obs.NewCounter(`warp_store_io_errors_total{op="open"}`)
	ioErrCkpt    = obs.NewCounter(`warp_store_io_errors_total{op="checkpoint"}`)
	// ioRetries counts transient I/O failures absorbed by a retry.
	ioRetries = obs.NewCounter("warp_store_io_retries_total")
	// fsyncPoisoned counts segments sealed by the fsync-poisoning rule.
	fsyncPoisoned = obs.NewCounter("warp_store_fsync_poisoned_total")
	// scrub progress: completed passes, files and bytes verified, files
	// found corrupt, and the current quarantine population.
	scrubPasses      = obs.NewCounter("warp_store_scrub_passes_total")
	scrubFiles       = obs.NewCounter("warp_store_scrub_files_total")
	scrubBytes       = obs.NewCounter("warp_store_scrub_bytes_total")
	scrubCorrupt     = obs.NewCounter("warp_store_scrub_corrupt_total")
	quarantinedGauge = obs.NewGauge("warp_store_quarantined_files")
	faultsReported   = obs.NewCounter("warp_store_faults_total")
)

// timedSync is the shared physical-fsync wrapper for the WAL sync
// paths. A failed fsync counts as an io error here (it is never
// retried — the caller poisons the segment instead).
func timedSync(f storefs.File) error {
	var start time.Time
	if obs.Enabled() {
		start = time.Now()
	}
	err := f.Sync()
	walFsyncs.Inc()
	if !start.IsZero() {
		walFsyncHist.Observe(time.Since(start))
	}
	if err != nil {
		ioErrSync.Inc()
	}
	return err
}
