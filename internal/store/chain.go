package store

import (
	"fmt"
	"path/filepath"
	"sync"

	"warp/internal/store/storefs"
)

// A chain is the store's WAL: one sequence of segment files
// (wal-00-<seq>.log) with its own group-commit clock. File order is
// LSN order, so recovery replays the chain front to back.
//
// Failure model (docs/persistence.md "Failure model"): write errors
// retry inside walWriter under the store's retry policy; a *failed
// fsync* is poisonous and never retried. After fsync failure the kernel
// may silently have dropped the dirty pages, so a later successful
// fsync of the same file proves nothing about them — the chain
// therefore seals the segment (close without sync, never trust it
// again), bumps its poison epoch so every waiter blocked on that
// segment's durability gets an error instead of a false ack, and starts
// a fresh segment for subsequent appends. The store is notified through
// onFault; the deployment layer reacts with a fence checkpoint that
// re-secures the in-memory state the sealed segment failed to make
// durable (internal/core).
type chain struct {
	dir   string
	opts  Options
	fs    storefs.FS
	retry retryPolicy

	// onFault reports a storage fault (exhausted write retries, fsync
	// poisoning, a broken segment chain) to the store. May be called
	// with mu held.
	onFault func(error)
	// onSeal records a segment sealed by fsync poisoning: its tail is
	// of unknown durability, so the scrubber must not flag a torn tail
	// there as corruption.
	onSeal func(path string)

	mu       sync.Mutex
	cond     *sync.Cond
	w        *walWriter
	seq      int64 // sequence number of the active segment
	appended int64 // bytes appended to the chain
	synced   int64 // bytes known durable
	syncing  bool  // a group-commit leader is fsyncing outside the lock
	// epoch increments on every fsync poisoning. A durability waiter
	// captures the epoch at entry; seeing it change means the segment
	// holding its record was sealed with the record's durability
	// unknown, and the wait fails with poisonErr rather than falsely
	// acking. (The error can be spuriously pessimistic for a record
	// synced just before the poison — the safe direction.)
	epoch     int64
	poisonErr error
	// broken latches when a replacement segment cannot be opened: the
	// chain can accept no further appends, and only a checkpoint (or
	// degraded mode) can carry the deployment from here.
	broken error
	dead   bool
	closed bool
}

func newChain(dir string, opts Options, startSeq int64) (*chain, error) {
	c := &chain{
		dir: dir, opts: opts, seq: startSeq,
		fs:    opts.FS,
		retry: retryPolicy{attempts: opts.RetryAttempts, backoff: opts.RetryBackoff},
	}
	c.cond = sync.NewCond(&c.mu)
	w, err := openSegment(c.fs, segName(dir, startSeq), c.retry)
	if err != nil {
		return nil, err
	}
	c.w = w
	return c, nil
}

// append buffers one frame under the chain lock and returns the byte
// offset the caller must wait on for durability. Rotation happens here
// when the active segment crosses SegmentBytes.
func (c *chain) append(frame []byte) (target int64, err error) {
	if c.dead || c.closed {
		return 0, ErrCrashed
	}
	if c.broken != nil {
		return 0, c.broken
	}
	if err := c.w.append(frame); err != nil {
		return 0, err
	}
	c.appended += int64(frameHeaderLen + len(frame))
	target = c.appended
	if c.w.size >= c.opts.SegmentBytes {
		if err := c.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return target, nil
}

// syncLocked blocks until byte offset target is durable, acting as the
// chain's group-commit leader when no sync is in flight. With quiet set
// (the background flusher), a dead, closed, or broken chain is a no-op
// rather than an error. Called with c.mu held.
func (c *chain) syncLocked(target int64, quiet bool) error {
	epoch := c.epoch
	for {
		if c.dead || c.closed {
			if quiet {
				return nil
			}
			return ErrCrashed
		}
		if c.broken != nil {
			if quiet {
				return nil
			}
			return c.broken
		}
		if c.epoch != epoch {
			return c.poisonErr
		}
		if c.synced >= target {
			return nil
		}
		if c.syncing {
			c.cond.Wait()
			continue
		}
		// Leader: flush the shared buffer under the lock (a memory
		// copy), fsync outside it so followers keep appending frames
		// that ride the next sync.
		c.syncing = true
		appended := c.appended
		if err := c.w.flush(); err != nil {
			c.syncing = false
			c.cond.Broadcast()
			c.fault(err)
			return err
		}
		f := c.w.f
		c.mu.Unlock()
		err := timedSync(f)
		c.mu.Lock()
		c.syncing = false
		if err != nil {
			c.poisonLocked(err)
			return c.poisonErr
		}
		if appended > c.synced {
			c.synced = appended
		}
		c.cond.Broadcast()
	}
}

// sync makes every frame appended before the call durable.
func (c *chain) sync(quiet bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncLocked(c.appended, quiet)
}

// poisonLocked applies the fsync-poisoning rule after a failed fsync:
// seal the active segment (close the descriptor without another sync
// attempt — its flushed-but-unsynced suffix is of unknown durability
// and must never be trusted), bump the poison epoch so blocked waiters
// error out instead of false-acking, and open a fresh segment for
// subsequent appends. Buffered-but-unflushed frames are dropped with
// the seal; the deployment's fault fence re-secures their state from
// memory with a checkpoint. Called with c.mu held and syncing false.
func (c *chain) poisonLocked(cause error) {
	fsyncPoisoned.Inc()
	c.epoch++
	c.poisonErr = fmt.Errorf("store: fsync failed, segment %s sealed: %w",
		filepath.Base(c.w.path), cause)
	c.w.abandon()
	if c.onSeal != nil {
		c.onSeal(c.w.path)
	}
	c.synced = c.appended
	c.seq++
	w, err := openSegment(c.fs, segName(c.dir, c.seq), c.retry)
	if err != nil {
		c.broken = fmt.Errorf("store: no replacement segment after fsync failure: %w", err)
	} else {
		c.w = w
	}
	c.fault(c.poisonErr)
	c.cond.Broadcast()
}

// fault reports a storage fault to the store, if wired.
func (c *chain) fault(err error) {
	if c.onFault != nil {
		c.onFault(err)
	}
}

// rotateLocked finalizes the active segment and starts the next one.
// Called with c.mu held; waits out an in-flight sync first. Finalizing
// flushes and fsyncs everything buffered. A finalize failure poisons
// the segment — the close path ends in an fsync, so a failed close
// leaves the same unknown-durability tail a failed group-commit fsync
// does.
func (c *chain) rotateLocked() error {
	for c.syncing {
		c.cond.Wait()
	}
	if c.dead || c.closed {
		return ErrCrashed
	}
	if c.broken != nil {
		return c.broken
	}
	if err := c.w.close(); err != nil {
		c.poisonLocked(err)
		return c.poisonErr
	}
	c.synced = c.appended
	c.seq++
	w, err := openSegment(c.fs, segName(c.dir, c.seq), c.retry)
	if err != nil {
		c.broken = fmt.Errorf("store: no segment after rotation: %w", err)
		c.fault(c.broken)
		return c.broken
	}
	c.w = w
	c.cond.Broadcast()
	return nil
}

// rotate finalizes the active segment for a checkpoint cut and returns
// the finalized segment's sequence number: records in segments after it
// replay over the checkpoint being written.
func (c *chain) rotate() (finalized int64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.rotateLocked(); err != nil {
		return 0, err
	}
	return c.seq - 1, nil
}

// activeSeq returns the sequence number of the segment currently
// accepting appends (the scrubber must skip it: its tail is
// legitimately torn until the next sync).
func (c *chain) activeSeq() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

// close flushes, fsyncs, and releases the chain.
func (c *chain) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead || c.closed {
		return nil
	}
	for c.syncing {
		c.cond.Wait()
	}
	if c.dead || c.closed {
		return nil
	}
	c.closed = true
	if c.broken != nil {
		c.w.abandon()
		c.cond.Broadcast()
		return c.broken
	}
	var err error
	if c.synced == c.appended {
		// Nothing unsynced: skip the redundant final fsync so a disk
		// that died after the last real sync cannot fail a clean close.
		err = c.w.closeFd()
	} else {
		err = c.w.close()
	}
	c.cond.Broadcast()
	return err
}

// crash drops user-space buffers and refuses further writes, exactly as
// a process death would.
func (c *chain) crash() {
	c.mu.Lock()
	if c.dead || c.closed {
		c.mu.Unlock()
		return
	}
	c.dead = true
	c.w.abandon()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// segName formats a segment filename: wal-00-<seq>.log. The 00 is the
// chain id of the on-disk format, which earlier releases could shard
// across several chains; Open refuses a directory holding any other.
func segName(dir string, seq int64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-00-%08d.log", seq))
}
