package trace

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"lockdoc/internal/resilience"
)

// File is the random-access surface a Follower tails. *os.File
// satisfies it; the fault injectors wrap one to exercise the retry
// path.
type File interface {
	io.ReaderAt
	Stat() (os.FileInfo, error)
	Close() error
}

// Follower tails a growing v2 trace file. Each Poll hands the
// caller's consumer one Reader over the bytes appended since the
// previous Poll and commits its position only past complete,
// CRC-verified sync blocks: a block the producer has written halfway
// is rolled back and re-read on the next Poll instead of being
// reported as corruption. Genuinely damaged bytes are charged exactly
// once — when a later sync marker proves the stream continues past
// them — against the same error budget semantics as ReaderOptions,
// counted across polls.
//
// Transient I/O failures (a flaky NFS read, EINTR) are a third
// category, distinct from both partial tails and corruption: they are
// retried in place per the retry policy (SetRetry), are never charged
// against the corruption error budget, and — even once retries are
// exhausted — never poison the Follower.
//
// A Follower never holds the whole trace in memory and never re-reads
// committed bytes, so a long-running follow costs only the appended
// suffix per poll.
type Follower struct {
	f     File
	opts  ReaderOptions
	retry resilience.Backoff
	sink  BlockSink
	off   int64 // committed offset: everything before it is decoded

	charged int   // corruption reports committed across polls
	err     error // sticky terminal state
}

// BlockSink receives the raw bytes of every committed sync-block range,
// exactly once, in file order — the hook a durable store (segstore)
// uses to persist the trace as it is ingested. The first committed
// range of a file includes the trace header bytes; sinks that store
// bare blocks strip it.
type BlockSink interface {
	CommitBlocks(raw []byte) error
}

// NewFollower opens the trace at path for tail-following. The file may
// be empty or half-written; decoding starts at the first Poll.
func NewFollower(path string, opts ReaderOptions) (*Follower, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return NewFollowerFile(f, opts), nil
}

// NewFollowerFile wraps an already-open file (or an injected fake) for
// tail-following.
func NewFollowerFile(f File, opts ReaderOptions) *Follower {
	return &Follower{f: f, opts: opts}
}

// SetRetry installs the transient-I/O retry policy. The zero Backoff
// (the default) disables retrying; resilience.DefaultBackoff is the
// recommended production setting.
func (fw *Follower) SetRetry(b resilience.Backoff) { fw.retry = b }

// SetSink installs a commit hook: each Poll hands the sink the raw
// bytes it commits, BEFORE advancing the committed offset. A sink
// failure is terminal — it poisons the Follower even if the underlying
// error is transient, because the events of the failed poll were
// already delivered and re-polling would deliver them twice. Callers
// that can recover (re-ingesting from the durable store) build a fresh
// Follower.
func (fw *Follower) SetSink(s BlockSink) { fw.sink = s }

// Close releases the underlying file.
func (fw *Follower) Close() error { return fw.f.Close() }

// Offset returns the committed stream offset: the start of the region
// the next Poll will read.
func (fw *Follower) Offset() int64 { return fw.off }

// interrupted reports whether err stopped a read without saying
// anything about the trace: a transient I/O failure or a done context.
// The Follower stays usable after one, so the next Poll reads the same
// bytes again.
func interrupted(err error) bool {
	return resilience.IsTransient(err) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (fw *Follower) fail(err error) error {
	if interrupted(err) {
		// A transient failure that out-lasted its retries, or a done
		// context, is not a property of the trace: report it, but leave
		// the Follower usable — the next Poll re-reads the same region.
		return err
	}
	fw.err = err
	return err
}

// stat reads the file size, retrying transient failures per the
// policy.
func (fw *Follower) stat(ctx context.Context) (os.FileInfo, error) {
	var st os.FileInfo
	err := fw.retry.Do(ctx, func() error {
		var serr error
		st, serr = fw.f.Stat()
		return serr
	})
	return st, err
}

// section returns a reader over n bytes of the file from off that
// retries transient faults below the decoder, so a flaky read can
// never masquerade as corruption, and fails once ctx is done.
func (fw *Follower) section(ctx context.Context, off, n int64) io.Reader {
	return resilience.NewRetryReader(ctx, io.NewSectionReader(fw.f, off, n), fw.retry)
}

// Poll hands consume a Reader over the bytes appended since the
// previous Poll and returns consume's event count. consume must read r
// until Read fails, be done with r when it returns, and return the
// error Read returned, wrapped or not, unless it is io.EOF — as
// db.DB.Consume does. r's offsets are file offsets, and because the
// file may still grow, its Corruptions and BytesSkipped leave out any
// report that no later verified block confirms: a consumer that folds
// them on success, as db.DB.Consume does, stores exactly the reports
// Poll commits.
//
// Poll commits through r.LastBlockEnd when the read ended at the end
// of the data, even inside a block the producer is still writing
// (io.ErrUnexpectedEOF: the next Poll re-reads that block), and when
// it ended at corruption that a strict reader or an exhausted budget
// cannot pass, after which the Follower is poisoned. It commits
// nothing when consume failed on its own, which poisons the Follower
// because consume may have read past the last event it applied; when
// a transient failure outlasted its retries; or when ctx is done,
// which fails r's next read from the file (r buffers 64 KB) and makes
// Poll return ctx.Err(). A poll that commits nothing may have
// delivered events that the next Poll delivers again.
func (fw *Follower) Poll(ctx context.Context, consume func(*Reader) (int, error)) (int, error) {
	if fw.err != nil {
		return 0, fw.err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	start := time.Now()
	st, err := fw.stat(ctx)
	if err != nil {
		return 0, fw.fail(err)
	}
	size := st.Size()
	if size < fw.off {
		return 0, fw.fail(fmt.Errorf("trace: file truncated below committed offset (%d < %d)", size, fw.off))
	}
	if size == fw.off {
		fw.opts.Metrics.poll(start, 0)
		return 0, nil
	}

	src := fw.section(ctx, fw.off, size-fw.off)
	var r *Reader
	if fw.off == 0 {
		r, err = NewReaderOptions(src, fw.opts)
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
				return 0, nil // header still being written
			}
			return 0, fw.fail(err)
		}
		if r.Version() != FormatV2 {
			return 0, fw.fail(fmt.Errorf(
				"trace: cannot follow a v%d trace: only v2 sync blocks support resumption", r.Version()))
		}
	} else {
		r = NewContinuationReader(src, fw.opts)
		r.cnt.n, r.blockEnd = fw.off, fw.off
	}
	r.growing = true

	n, err := consume(r)
	if err != nil {
		switch {
		case ctx.Err() != nil:
			return n, ctx.Err()
		case !errors.Is(err, r.err): // consume failed on its own
			fw.err = err
			return n, err
		case interrupted(r.err):
			return n, r.err
		}
	}

	commit := r.LastBlockEnd()
	if fw.sink != nil && commit > fw.off {
		// Re-read the exact committed range and persist it before the
		// offset advances: a crash after CommitBlocks re-reads nothing,
		// a crash before it re-reads and re-commits the same range.
		raw := make([]byte, commit-fw.off)
		if _, err := io.ReadFull(fw.section(ctx, fw.off, commit-fw.off), raw); err != nil {
			fw.err = fmt.Errorf("trace: re-reading committed blocks for sink: %w", err)
			return n, fw.err
		}
		if err := fw.sink.CommitBlocks(raw); err != nil {
			fw.err = fmt.Errorf("trace: block sink: %w", err)
			return n, fw.err
		}
	}
	fw.charged += len(r.Corruptions())
	fw.off = commit
	if fw.opts.Lenient && fw.charged > fw.opts.MaxErrors {
		return n, fw.fail(fmt.Errorf("%w: error budget (%d) exhausted across polls", ErrCorrupt, fw.opts.MaxErrors))
	}
	fw.opts.Metrics.poll(start, n)
	if err != nil && !errors.Is(r.err, io.ErrUnexpectedEOF) { // corruption or a failed read r cannot pass
		fw.err = r.err
		return n, r.err
	}
	return n, nil
}
