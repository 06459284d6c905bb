package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"warp/internal/store/storefs"
)

// WAL frame layout: a fixed header followed by the payload.
//
//	[4 bytes] payload length (little-endian uint32)
//	[4 bytes] CRC-32C of the payload
//	[n bytes] payload; payload[0] is the record type
//
// A record is valid only if the full frame is present and the checksum
// matches. Readers stop at the first invalid frame: everything before it
// is a durable prefix, everything at and after it is discarded (the
// classic torn-tail rule). Frames never span segments.
const (
	frameHeaderLen = 8
	// maxFramePayload bounds a single record; larger lengths are treated
	// as corruption rather than attempted allocations.
	maxFramePayload = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame writes one frame to w and returns the on-disk size.
func appendFrame(w *bufio.Writer, payload []byte) (int64, error) {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return int64(frameHeaderLen + len(payload)), nil
}

// readSegment parses every valid frame of one segment file in order.
// clean is false when the segment ends in a torn or corrupt tail; the
// frames consumed before that point are still valid, and validLen is
// the byte length of that valid prefix (recovery truncates a torn
// last-of-chain segment to it, so the chain stays appendable). When fn
// returns an error, validLen covers the frames before the rejected one.
func readSegment(fs storefs.FS, path string, fn func(payload []byte) error) (validLen int64, clean bool, err error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeaderLen {
			return int64(off), false, nil // torn header
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n < 1 || n > maxFramePayload || n > len(data)-off-frameHeaderLen {
			return int64(off), false, nil // torn or corrupt length
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+n]
		if crc32.Checksum(payload, crcTable) != sum {
			return int64(off), false, nil // checksum failure
		}
		if err := fn(payload); err != nil {
			return int64(off), true, err
		}
		off += frameHeaderLen + n
	}
	return int64(off), true, nil
}

// retryPolicy is the transient-I/O retry schedule (Options.RetryAttempts
// / RetryBackoff): attempts tries total, with capped exponential backoff
// between them. Only writes and file creation retry — an fsync failure
// is never retried (see the fsync-poisoning rule in chain.go), and
// checkpoint-file errors abort the checkpoint instead, because the
// fault-fence checkpoint is their retry.
type retryPolicy struct {
	attempts int
	backoff  time.Duration
}

// maxRetryBackoff caps the exponential backoff between retries.
const maxRetryBackoff = 50 * time.Millisecond

// do runs op under the policy.
func (r retryPolicy) do(op func() error) error {
	backoff := r.backoff
	var err error
	for attempt := 1; ; attempt++ {
		err = op()
		if err == nil || attempt >= r.attempts {
			return err
		}
		ioRetries.Inc()
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxRetryBackoff {
			backoff = maxRetryBackoff
		}
	}
}

// walWriter owns one open segment file. Frames accumulate in a
// user-space buffer until the next flush hands them to the OS.
type walWriter struct {
	path  string
	f     storefs.File
	retry retryPolicy
	buf   []byte
	size  int64 // bytes appended to this segment (flushed + buffered)
}

// openSegment creates a fresh segment file and makes its directory
// entry durable: without the parent-directory fsync, a crash after
// records were fsynced *into* the file could still lose the file
// itself, exactly the hole the manifest/section rename paths already
// close with syncDir. Creation retries under the policy (a transient
// failure here would otherwise kill an append or rotation).
func openSegment(fs storefs.FS, path string, retry retryPolicy) (*walWriter, error) {
	var f storefs.File
	err := retry.do(func() error {
		var err error
		f, err = fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		return err
	})
	if err != nil {
		ioErrOpen.Inc()
		return nil, fmt.Errorf("store: creating WAL segment: %w", err)
	}
	// The directory fsync retries too: unlike a data fsync, nothing has
	// been appended (let alone acked) into the just-created empty file,
	// so there are no maybe-dropped dirty pages for a retry to lie
	// about — the fsync-poisoning rule starts with the first record.
	if err := retry.do(func() error { return fs.SyncDir(filepath.Dir(path)) }); err != nil {
		ioErrSyncDir.Inc()
		f.Close()
		return nil, fmt.Errorf("store: syncing WAL directory after segment create: %w", err)
	}
	return &walWriter{path: path, f: f, retry: retry}, nil
}

// append buffers one frame; it does not flush or sync.
func (w *walWriter) append(payload []byte) error {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, payload...)
	w.size += int64(frameHeaderLen + len(payload))
	return nil
}

// flush pushes every buffered frame to the OS. Transient write errors
// retry with backoff; a short write drops exactly the bytes the OS
// accepted from the buffer before retrying the remainder, so a retry
// can never write a byte twice.
func (w *walWriter) flush() error {
	attempt := 1
	backoff := w.retry.backoff
	for len(w.buf) > 0 {
		k, err := w.f.Write(w.buf)
		if k > 0 {
			w.buf = w.buf[:copy(w.buf, w.buf[k:])]
			if err == nil {
				continue
			}
			attempt = 1 // progress resets the clock
			backoff = w.retry.backoff
		}
		if err != nil {
			if attempt >= w.retry.attempts {
				ioErrWrite.Inc()
				return err
			}
			attempt++
			ioRetries.Inc()
			time.Sleep(backoff)
			if backoff *= 2; backoff > maxRetryBackoff {
				backoff = maxRetryBackoff
			}
		}
	}
	return nil
}

// sync flushes and fsyncs the segment. The fsync itself is never
// retried: after a failed fsync the kernel may have dropped the dirty
// pages, so a later "successful" fsync proves nothing about them
// (the fsyncgate rule). Callers treat the failure as poisonous.
func (w *walWriter) sync() error {
	if err := w.flush(); err != nil {
		return err
	}
	return timedSync(w.f)
}

// close finalizes the segment: flush, fsync, close.
func (w *walWriter) close() error {
	if err := w.sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// closeFd closes the file without a final flush or fsync, for callers
// that know every appended byte is already durable (chain close when
// synced == appended): skipping the redundant fsync means a clean close
// cannot be failed by a disk that died after the last real sync.
func (w *walWriter) closeFd() error { return w.f.Close() }

// abandon closes the file descriptor without flushing user-space
// buffers: the crash simulation, and the sealing step of fsync
// poisoning. Buffered frames are lost exactly as they would be in a
// real crash.
func (w *walWriter) abandon() { _ = w.f.Close() }
