package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Binary trace format
//
//	magic   "LKDC"
//	version uvarint (1 or 2)
//
// Version 1 body:
//
//	events  *(kind byte, payload)
//
// Version 2 body — a sequence of self-describing, checksummed blocks:
//
//	block   sync marker, payload
//	marker  0xFF "LKSY" (5-byte needle), baseSeq uvarint, baseTS uvarint,
//	        payloadLen uvarint, crc32 (IEEE, little-endian, 4 bytes)
//	payload *(kind byte, event payload) — same encoding as v1
//
// All integers are unsigned varints; booleans are single bytes; strings
// are length-prefixed UTF-8. Sequence numbers and time stamps are
// delta-encoded against the previous event to keep traces small — a run
// of the full benchmark mix produces tens of millions of events.
//
// The v2 sync marker carries the absolute seq/TS the delta chain resets
// to, so a reader can drop a damaged block, scan forward to the next
// 0xFF"LKSY" needle and resume decoding with correct sequence numbers.
// 0xFF is reserved as a kind byte (kindSync) and is never produced by
// the event encoder, which keeps the needle reasonably unambiguous; a
// chance needle inside a payload is caught by the per-block CRC.

var magic = [4]byte{'L', 'K', 'D', 'C'}

// Format versions understood by this package. NewWriter produces
// FormatV2; the Reader auto-detects either from the header.
const (
	FormatV1 = 1
	FormatV2 = 2
)

// kindSync is the reserved kind byte opening a v2 sync marker. It must
// never collide with a real event kind.
const kindSync = 0xFF

var syncMarker = [5]byte{kindSync, 'L', 'K', 'S', 'Y'}

// DefaultSyncInterval is the default number of events per v2 block.
// With ~10 bytes per encoded event a block is ~10 KiB: small enough
// that a corrupt block loses little, large enough that markers add well
// under 1% of overhead.
const DefaultSyncInterval = 1024

// Limits guarding the reader against corrupt input.
const (
	maxWireString  = 1 << 12
	maxWireMembers = 1 << 12
	maxWireBlock   = 1 << 20
)

// ErrCorrupt is returned (wrapped) when the reader encounters a
// malformed trace.
var ErrCorrupt = errors.New("trace: corrupt input")

// CorruptionReport describes one corruption the Reader recovered from
// in lenient mode.
type CorruptionReport struct {
	Offset       int64 // byte offset in the trace where the corruption was detected
	Cause        error // the decode error that triggered resynchronization
	BytesSkipped int64 // bytes discarded to resume decoding: the damaged block plus any scan distance
}

func (c CorruptionReport) String() string {
	return fmt.Sprintf("offset %d: %v (%d bytes skipped)", c.Offset, c.Cause, c.BytesSkipped)
}

// WriterOptions configures trace serialization.
type WriterOptions struct {
	// Version selects the wire format: FormatV1 or FormatV2.
	// 0 means FormatV2.
	Version int
	// SyncInterval is the number of events per v2 block; 0 means
	// DefaultSyncInterval. Ignored for v1.
	SyncInterval int
}

// entrySink is where encoded event bytes go: directly to the output for
// v1, into the pending block buffer for v2.
type entrySink interface {
	io.Writer
	io.ByteWriter
	io.StringWriter
}

// Writer serializes events to an io.Writer. It is not safe for
// concurrent use; the tracer layer serializes event emission.
type Writer struct {
	w   *bufio.Writer
	blk bytes.Buffer
	out entrySink
	buf [binary.MaxVarintLen64]byte

	version     int
	syncEvery   int
	blockEvents int
	baseSeq     uint64
	baseTS      uint64

	lastSeq uint64
	lastTS  uint64
	count   uint64
	err     error
}

// NewWriter returns a Writer emitting a v2 trace header to w.
func NewWriter(w io.Writer) (*Writer, error) {
	return NewWriterOptions(w, WriterOptions{})
}

// NewWriterOptions returns a Writer emitting the trace header to w in
// the requested format version.
func NewWriterOptions(w io.Writer, opts WriterOptions) (*Writer, error) {
	if opts.Version == 0 {
		opts.Version = FormatV2
	}
	if opts.Version != FormatV1 && opts.Version != FormatV2 {
		return nil, fmt.Errorf("trace: unsupported writer version %d", opts.Version)
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	tw := &Writer{w: bw, version: opts.Version, syncEvery: opts.SyncInterval}
	if tw.version == FormatV2 {
		tw.out = &tw.blk
	} else {
		tw.out = bw
	}
	n := binary.PutUvarint(tw.buf[:], uint64(tw.version))
	if _, err := bw.Write(tw.buf[:n]); err != nil {
		return nil, err
	}
	return tw, nil
}

// Version reports the wire format version the writer emits.
func (w *Writer) Version() int { return w.version }

// Count reports the number of events written so far.
func (w *Writer) Count() uint64 { return w.count }

// Err returns the first error encountered while writing.
func (w *Writer) Err() error { return w.err }

// Flush completes the pending block (v2) and flushes buffered output.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if w.version == FormatV2 {
		w.flushBlock()
		if w.err != nil {
			return w.err
		}
	}
	return w.w.Flush()
}

// flushBlock emits the buffered events as one checksummed v2 block.
func (w *Writer) flushBlock() {
	if w.err != nil || w.blockEvents == 0 {
		return
	}
	payload := w.blk.Bytes()
	if _, err := w.w.Write(syncMarker[:]); err != nil {
		w.err = err
		return
	}
	w.markerUvarint(w.baseSeq)
	w.markerUvarint(w.baseTS)
	w.markerUvarint(uint64(len(payload)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if w.err == nil {
		_, w.err = w.w.Write(crc[:])
	}
	if w.err == nil {
		_, w.err = w.w.Write(payload)
	}
	w.blk.Reset()
	w.blockEvents = 0
}

// markerUvarint writes a uvarint directly to the output stream (used
// for sync-marker fields, bypassing the block buffer).
func (w *Writer) markerUvarint(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:n])
}

func (w *Writer) uvarint(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], v)
	_, w.err = w.out.Write(w.buf[:n])
}

func (w *Writer) byte(b byte) {
	if w.err != nil {
		return
	}
	w.err = w.out.WriteByte(b)
}

func (w *Writer) bool(b bool) {
	if b {
		w.byte(1)
	} else {
		w.byte(0)
	}
}

func (w *Writer) string(s string) {
	w.uvarint(uint64(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = w.out.WriteString(s)
}

// Write appends one event to the trace.
func (w *Writer) Write(ev *Event) error {
	if w.err != nil {
		return w.err
	}
	mark := w.blk.Len()
	if w.version == FormatV2 && w.blockEvents == 0 {
		w.baseSeq, w.baseTS = w.lastSeq, w.lastTS
	}
	w.byte(byte(ev.Kind))
	w.uvarint(ev.Seq - w.lastSeq)
	w.uvarint(ev.TS - w.lastTS)
	w.lastSeq, w.lastTS = ev.Seq, ev.TS
	w.uvarint(uint64(ev.Ctx))

	switch ev.Kind {
	case KindDefType:
		w.uvarint(uint64(ev.TypeID))
		w.string(ev.TypeName)
		w.uvarint(uint64(len(ev.Members)))
		for _, m := range ev.Members {
			w.string(m.Name)
			w.uvarint(uint64(m.Offset))
			w.uvarint(uint64(m.Size))
			w.bool(m.Atomic)
			w.bool(m.IsLock)
		}
	case KindDefLock:
		w.uvarint(ev.LockID)
		w.string(ev.LockName)
		w.byte(byte(ev.Class))
		w.uvarint(ev.LockAddr)
		w.uvarint(ev.OwnerAddr)
	case KindDefFunc:
		w.uvarint(uint64(ev.FuncID))
		w.string(ev.File)
		w.uvarint(uint64(ev.Line))
		w.string(ev.Func)
	case KindDefCtx:
		w.uvarint(uint64(ev.CtxID))
		w.byte(byte(ev.CtxKind))
		w.string(ev.CtxName)
	case KindAlloc:
		w.uvarint(ev.AllocID)
		w.uvarint(uint64(ev.TypeID))
		w.uvarint(ev.Addr)
		w.uvarint(uint64(ev.Size))
		w.string(ev.Subclass)
	case KindFree:
		w.uvarint(ev.AllocID)
		w.uvarint(ev.Addr)
	case KindRead, KindWrite:
		w.uvarint(ev.Addr)
		w.uvarint(uint64(ev.AccessSize))
		w.uvarint(uint64(ev.FuncID))
		w.uvarint(uint64(ev.StackID))
		if ev.Kind == KindWrite {
			w.uvarint(ev.Value)
		}
	case KindAcquire, KindRelease:
		w.uvarint(ev.LockID)
		w.bool(ev.Reader)
		w.uvarint(uint64(ev.FuncID))
		w.uvarint(uint64(ev.Line))
	case KindFuncEnter, KindFuncExit:
		w.uvarint(uint64(ev.FuncID))
	case KindCoverage:
		w.uvarint(uint64(ev.FuncID))
		w.uvarint(uint64(ev.Line))
	case KindDefStack:
		w.uvarint(uint64(ev.StackID))
		w.uvarint(uint64(len(ev.StackFuncs)))
		for _, f := range ev.StackFuncs {
			w.uvarint(uint64(f))
		}
	default:
		w.err = fmt.Errorf("trace: cannot encode event kind %d", ev.Kind)
		if w.version == FormatV2 {
			w.blk.Truncate(mark)
		}
	}
	if w.err == nil {
		w.count++
		if w.version == FormatV2 {
			w.blockEvents++
			if w.blockEvents >= w.syncEvery {
				w.flushBlock()
			}
		}
	}
	return w.err
}

// ReaderOptions configures trace decoding.
type ReaderOptions struct {
	// Lenient enables resynchronization: instead of failing on the
	// first corruption, the Reader records a CorruptionReport, scans
	// forward to the next v2 sync marker, resets its delta state and
	// continues. For v1 traces (which carry no markers) a corruption
	// ends the trace early with the prefix salvaged.
	Lenient bool
	// MaxErrors is the error budget in lenient mode: the Reader
	// recovers from up to MaxErrors corruptions and fails hard with a
	// wrapped ErrCorrupt on the next one. 0 fails on the first
	// corruption.
	MaxErrors int
	// Metrics, when non-nil, receives decode/corruption instrument
	// updates (see Metrics). It never changes decode behaviour.
	Metrics *Metrics
}

// blockCursor decodes a verified v2 block payload by index: the block
// is already in memory and CRC-checked, so reading it needs no
// io.ByteReader call per byte.
type blockCursor struct {
	b   []byte
	off int
}

// errOverflow carries the same message as encoding/binary's varint
// overflow error, so corruption reports read the same on either path.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// uvarint mirrors binary.ReadUvarint byte for byte, including how many
// bytes it consumes before failing (ten on an overlong varint, where
// binary.Uvarint would report eleven): lenient decoding charges the
// unread rest of the block to BytesSkipped, so the count must match.
func (c *blockCursor) uvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if c.off == len(c.b) {
			if i > 0 {
				return x, io.ErrUnexpectedEOF
			}
			return x, io.EOF
		}
		b := c.b[c.off]
		c.off++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return x, errOverflow
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return x, errOverflow
}

// countingReader counts bytes handed to the buffered reader so the
// Reader can report absolute stream offsets in corruption reports. It
// also records the source's first error other than io.EOF.
type countingReader struct {
	r   io.Reader
	n   int64
	err error
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	if err != nil && err != io.EOF && c.err == nil {
		c.err = err
	}
	return n, err
}

// Reader decodes a binary trace event by event, auto-detecting the
// format version from the header.
type Reader struct {
	br   *bufio.Reader
	cnt  *countingReader
	opts ReaderOptions

	version int
	hdrLen  int64 // bytes the file header occupied (0 for continuations)
	lastSeq uint64
	lastTS  uint64

	// v2 block state. Events decode from blk for v2 and straight from
	// br for v1; the primitives below pick the path by version.
	blk      blockCursor
	blockBuf []byte
	inBlock  bool
	blockOff int64  // stream offset of the current block's payload
	blockEnd int64  // stream offset just past the last verified block
	blocks   uint64 // CRC-verified sync blocks entered so far

	reports []CorruptionReport
	err     error // sticky terminal state
	pending error // header corruption to recover from on first Read (lenient)
	growing bool  // the source may still grow (a Follower's poll); see confirmed
}

// NewReader validates the header of r and returns a strict Reader: any
// corruption fails the stream.
func NewReader(r io.Reader) (*Reader, error) {
	return NewReaderOptions(r, ReaderOptions{})
}

// NewReaderOptions returns a Reader with the given decoding options. In
// lenient mode even a corrupt header is tolerated: the Reader assumes
// v2 and resynchronizes at the first sync marker.
func NewReaderOptions(r io.Reader, opts ReaderOptions) (*Reader, error) {
	cnt := &countingReader{r: r}
	br := bufio.NewReaderSize(cnt, 1<<16)
	tr := &Reader{br: br, cnt: cnt, opts: opts}
	if err := tr.readHeader(); err != nil {
		// Lenient mode tolerates a *corrupt* header, not a failed read:
		// that propagates (see sourceFailed).
		if !opts.Lenient || tr.sourceFailed(err) {
			return nil, err
		}
		tr.version = FormatV2
		tr.pending = err
	}
	return tr, nil
}

// NewContinuationReader returns a Reader for a v2 block stream that
// does not start with a trace header: the continuation of a trace from
// any sync-block boundary. Every v2 block carries the absolute
// sequence number and timestamp it resets the delta chains to, so
// decoding can start at any block without the preceding bytes.
// Offsets count from the start of r; a Follower's poll reader instead
// counts them from the committed offset it resumes at, so its reports
// and LastBlockEnd are file offsets.
func NewContinuationReader(r io.Reader, opts ReaderOptions) *Reader {
	cnt := &countingReader{r: r}
	return &Reader{br: bufio.NewReaderSize(cnt, 1<<16), cnt: cnt, opts: opts, version: FormatV2}
}

// HasHeader reports whether b starts with the trace file magic — i.e.
// whether a stream is a complete headered trace rather than a bare
// block continuation. Callers sniffing an upload peek 4 bytes and
// branch between NewReaderOptions and NewContinuationReader.
func HasHeader(b []byte) bool {
	return len(b) >= len(magic) && bytes.Equal(b[:len(magic)], magic[:])
}

func (r *Reader) readHeader() error {
	var m [4]byte
	if _, err := io.ReadFull(r.br, m[:]); err != nil {
		return fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, m)
	}
	v, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: reading version: %w", noEOF(err))
	}
	if v != FormatV1 && v != FormatV2 {
		return fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	r.version = int(v)
	r.hdrLen = r.offset()
	return nil
}

// Version reports the detected wire format version.
func (r *Reader) Version() int { return r.version }

// HeaderLen reports the bytes the trace file header occupied: 0 for a
// continuation reader, or when lenient mode resynchronized past a
// corrupt header. Stream length minus HeaderLen is the block payload a
// segment store keeps of the trace.
func (r *Reader) HeaderLen() int64 { return r.hdrLen }

// Corruptions returns the corruption reports accumulated so far in
// lenient mode. The slice is owned by the Reader; do not modify it.
// A Follower's reader leaves out reports that no later verified block
// confirms (see Follower.Poll).
func (r *Reader) Corruptions() []CorruptionReport { return r.reports[:r.confirmed()] }

// BytesSkipped reports the total payload bytes discarded during
// resynchronization, over the reports Corruptions returns.
func (r *Reader) BytesSkipped() int64 {
	var n int64
	for _, rep := range r.Corruptions() {
		n += rep.BytesSkipped
	}
	return n
}

// confirmed returns how many reports are final: all of them, unless
// the source may still grow. Then a report at or past the last
// verified block may be a block the producer is still writing, and is
// final only once a later verified block confirms it.
func (r *Reader) confirmed() int {
	i := len(r.reports)
	for r.growing && i > 0 && r.reports[i-1].Offset >= r.blockEnd {
		i--
	}
	return i
}

// sourceFailed reports whether err is, or wraps, an error the source
// returned. Such an error says nothing about the trace, so a lenient
// Reader passes it on instead of charging it as corruption: it charges
// only bytes it read and could not decode. A caller may then read the
// same bytes again (a Follower retries interrupted reads), and one that
// capped its source sees the cap, not a salvaged prefix.
func (r *Reader) sourceFailed(err error) bool {
	return r.cnt.err != nil && errors.Is(err, r.cnt.err)
}

// offset is the absolute stream position of the next unread byte.
func (r *Reader) offset() int64 { return r.cnt.n - int64(r.br.Buffered()) }

// noEOF maps a bare io.EOF observed in the middle of a record to
// io.ErrUnexpectedEOF so that only a cut exactly at a record boundary
// reads as a clean end of trace.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// The decode primitives read the active v2 block by index, or the raw
// stream for v1. They map a bare io.EOF to io.ErrUnexpectedEOF: an
// event cut inside a field is truncated, not cleanly ended.

func (r *Reader) uvarint() (uint64, error) {
	if r.version == FormatV1 {
		v, err := binary.ReadUvarint(r.br)
		return v, noEOF(err)
	}
	v, err := r.blk.uvarint()
	return v, noEOF(err)
}

func (r *Reader) u32() (uint32, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > 1<<32-1 {
		return 0, fmt.Errorf("%w: value %d exceeds uint32", ErrCorrupt, v)
	}
	return uint32(v), nil
}

// rawByte reads one byte, returning a bare io.EOF at the end of the
// source: decodeEvent takes that as a clean end.
func (r *Reader) rawByte() (byte, error) {
	if r.version == FormatV1 {
		return r.br.ReadByte()
	}
	if r.blk.off == len(r.blk.b) {
		return 0, io.EOF
	}
	b := r.blk.b[r.blk.off]
	r.blk.off++
	return b, nil
}

func (r *Reader) byte() (byte, error) {
	b, err := r.rawByte()
	return b, noEOF(err)
}

func (r *Reader) bool() (bool, error) {
	b, err := r.byte()
	if err != nil {
		return false, err
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("%w: bad bool byte %d", ErrCorrupt, b)
	}
}

func (r *Reader) string() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxWireString {
		return "", fmt.Errorf("%w: string length %d too large", ErrCorrupt, n)
	}
	if r.version == FormatV1 {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r.br, buf); err != nil {
			return "", fmt.Errorf("trace: reading string: %w", noEOF(err))
		}
		return string(buf), nil
	}
	c := &r.blk
	if n > uint64(len(c.b)-c.off) {
		// A short read consumes what is left, as io.ReadFull would.
		c.off = len(c.b)
		return "", fmt.Errorf("trace: reading string: %w", io.ErrUnexpectedEOF)
	}
	s := string(c.b[c.off : c.off+int(n)])
	c.off += int(n)
	return s, nil
}

// Read decodes the next event into ev. It returns io.EOF at a clean end
// of the trace. A decoded event overwrites every field of ev, so
// nothing of an earlier event survives in it and its definition slices
// are always newly allocated; Read never retains ev.
//
// In lenient mode Read recovers from corruption transparently (see
// ReaderOptions) and only returns an error once the error budget is
// exhausted; Corruptions reports what was skipped.
func (r *Reader) Read(ev *Event) error {
	if r.err != nil {
		return r.err
	}
	if r.pending != nil {
		cause := r.pending
		r.pending = nil
		if err := r.recover(cause, r.offset()); err != nil {
			return r.fail(err)
		}
	}
	var err error
	if r.version == FormatV1 {
		err = r.readV1(ev)
	} else {
		err = r.readV2(ev)
	}
	if err == nil {
		r.opts.Metrics.event()
	}
	return err
}

// fail records the terminal state so further Reads return it.
func (r *Reader) fail(err error) error {
	r.err = err
	return err
}

func (r *Reader) readV1(ev *Event) error {
	err := r.decodeEvent(ev)
	if err == nil {
		return nil
	}
	if err == io.EOF {
		return r.fail(io.EOF)
	}
	if !r.opts.Lenient || r.sourceFailed(err) {
		return r.fail(err)
	}
	return r.fail(r.recoverV1(err))
}

// recoverV1 handles a corruption in a v1 trace: without sync markers
// there is nothing to resynchronize on, so the rest of the stream is
// dropped and the decoded prefix salvaged.
func (r *Reader) recoverV1(cause error) error {
	r.reports = append(r.reports, CorruptionReport{Offset: r.offset(), Cause: cause})
	rep := &r.reports[len(r.reports)-1]
	r.opts.Metrics.corruption()
	if len(r.reports) > r.opts.MaxErrors {
		return fmt.Errorf("%w: error budget (%d) exhausted: %v", ErrCorrupt, r.opts.MaxErrors, cause)
	}
	n, err := io.Copy(io.Discard, r.br)
	rep.BytesSkipped = n
	r.opts.Metrics.skippedBytes(n)
	if err != nil {
		return err // the source failed: the rest is not known to be lost
	}
	return io.EOF
}

func (r *Reader) readV2(ev *Event) error {
	for {
		if !r.inBlock {
			start := r.offset()
			err := r.nextBlock()
			if err == io.EOF {
				return r.fail(io.EOF)
			}
			if err != nil {
				// A failed read is not corruption: recovering
				// (resynchronizing and charging the error budget) would
				// misfile a flaky, cancelled or capped read as damaged
				// bytes. Propagate it.
				if !r.opts.Lenient || r.sourceFailed(err) {
					return r.fail(err)
				}
				if rerr := r.recover(err, r.offset()-start); rerr != nil {
					return r.fail(rerr)
				}
				continue
			}
		}
		if r.blk.off == len(r.blk.b) {
			r.inBlock = false
			continue
		}
		consumed := int64(r.blk.off)
		err := r.decodeEvent(ev)
		if err == nil {
			return nil
		}
		// The block passed its CRC yet an event failed to decode: the
		// payload itself is inconsistent. Drop the rest of the block;
		// the stream is already positioned at the next marker.
		lost := int64(len(r.blk.b) - r.blk.off)
		r.inBlock = false
		err = fmt.Errorf("%w: undecodable event in checksummed block: %v", ErrCorrupt, err)
		if !r.opts.Lenient {
			return r.fail(err)
		}
		r.reports = append(r.reports, CorruptionReport{
			Offset: r.blockOff + consumed, Cause: err, BytesSkipped: lost,
		})
		r.opts.Metrics.corruption()
		r.opts.Metrics.skippedBytes(lost)
		if len(r.reports) > r.opts.MaxErrors {
			return r.fail(fmt.Errorf("%w: error budget (%d) exhausted: %v", ErrCorrupt, r.opts.MaxErrors, err))
		}
	}
}

// nextBlock reads a sync marker and its checksummed payload. io.EOF
// means a clean end of trace at a block boundary.
func (r *Reader) nextBlock() error {
	b, err := r.br.ReadByte()
	if err != nil {
		return err // io.EOF at a clean block boundary
	}
	if b != syncMarker[0] {
		return fmt.Errorf("%w: expected sync marker, found byte %#x", ErrCorrupt, b)
	}
	var rest [4]byte
	if _, err := io.ReadFull(r.br, rest[:]); err != nil {
		return fmt.Errorf("trace: truncated sync marker: %w", noEOF(err))
	}
	if !bytes.Equal(rest[:], syncMarker[1:]) {
		return fmt.Errorf("%w: bad sync magic %q", ErrCorrupt, rest)
	}
	return r.readBlockBody()
}

// readBlockBody parses the marker fields after the needle, reads and
// verifies the payload, and makes it the active decode source.
func (r *Reader) readBlockBody() error {
	baseSeq, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: reading block base seq: %w", noEOF(err))
	}
	baseTS, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: reading block base ts: %w", noEOF(err))
	}
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: reading block length: %w", noEOF(err))
	}
	if n > maxWireBlock {
		return fmt.Errorf("%w: block length %d too large", ErrCorrupt, n)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r.br, crc[:]); err != nil {
		return fmt.Errorf("trace: reading block crc: %w", noEOF(err))
	}
	if uint64(cap(r.blockBuf)) < n {
		r.blockBuf = make([]byte, n)
	}
	buf := r.blockBuf[:n]
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return fmt.Errorf("trace: reading block payload: %w", noEOF(err))
	}
	if got, want := crc32.ChecksumIEEE(buf), binary.LittleEndian.Uint32(crc[:]); got != want {
		r.opts.Metrics.crcFailure()
		return fmt.Errorf("%w: block crc mismatch (got %#x, want %#x)", ErrCorrupt, got, want)
	}
	r.lastSeq, r.lastTS = baseSeq, baseTS
	r.blockOff = r.offset() - int64(n)
	r.blockEnd = r.offset()
	r.blk = blockCursor{b: buf}
	r.inBlock = true
	r.blocks++
	r.opts.Metrics.block()
	return nil
}

// Blocks returns the number of v2 sync blocks whose payload has been
// read and CRC-verified so far (0 for v1 traces, which have no
// blocks). Consumers that act on verified-block granularity watch it
// advance between events; together with LastBlockEnd it locates each
// block boundary in the stream.
func (r *Reader) Blocks() uint64 { return r.blocks }

// LastBlockEnd returns the stream offset just past the most recent v2
// sync block whose payload was read and CRC-verified — the safe resume
// point for a tail-follower: every event before it has been decoded or
// charged to a corruption report, and the bytes after it can be
// re-read once the producer has appended more. Before the first
// complete block it is where the reader started: 0, or a Follower's
// committed offset (and always 0 for v1 traces, which cannot be
// resumed mid-stream).
func (r *Reader) LastBlockEnd() int64 { return r.blockEnd }

// recover resynchronizes after a corruption: it records a report, scans
// forward to the next sync marker and resumes there, bounded by the
// error budget. lost is the number of bytes the failed decode attempt
// had already consumed and discarded (e.g. a CRC-rejected payload); it
// is charged to the report on top of the scan distance.
func (r *Reader) recover(cause error, lost int64) error {
	for {
		r.reports = append(r.reports, CorruptionReport{Offset: r.offset(), Cause: cause, BytesSkipped: lost})
		rep := &r.reports[len(r.reports)-1]
		r.opts.Metrics.corruption()
		r.opts.Metrics.skippedBytes(lost)
		if len(r.reports) > r.opts.MaxErrors {
			return fmt.Errorf("%w: error budget (%d) exhausted: %v", ErrCorrupt, r.opts.MaxErrors, cause)
		}
		n, err := r.scanSync()
		rep.BytesSkipped += n
		r.opts.Metrics.skippedBytes(n)
		if err != nil {
			if r.cnt.err != nil {
				return r.cnt.err // the source failed mid-scan, not at the end of data: don't salvage
			}
			return io.EOF // ran out of data while scanning: salvage the prefix
		}
		markerStart := r.offset() - int64(len(syncMarker))
		if err := r.readBlockBody(); err != nil {
			if r.sourceFailed(err) {
				return err
			}
			cause = err
			lost = r.offset() - markerStart
			continue
		}
		return nil
	}
}

// scanSync discards bytes until it has consumed a whole sync needle,
// returning the number of bytes skipped before it.
func (r *Reader) scanSync() (int64, error) {
	var skipped int64
	for {
		b, err := r.br.ReadByte()
		if err != nil {
			return skipped, err
		}
		if b != syncMarker[0] {
			skipped++
			continue
		}
		rest, err := r.br.Peek(len(syncMarker) - 1)
		if err != nil {
			// Fewer than 4 bytes left: no marker can follow.
			n, _ := io.Copy(io.Discard, r.br)
			return skipped + 1 + n, io.EOF
		}
		if bytes.Equal(rest, syncMarker[1:]) {
			r.br.Discard(len(syncMarker) - 1)
			return skipped, nil
		}
		skipped++
	}
}

// decodeEvent decodes one event from the active source. An io.EOF on
// the very first byte is a clean end of the source; any later
// truncation surfaces as io.ErrUnexpectedEOF.
func (r *Reader) decodeEvent(ev *Event) error {
	kindByte, err := r.rawByte()
	if err != nil {
		return err // io.EOF at a clean event boundary
	}
	*ev = Event{Kind: Kind(kindByte)}
	if ev.Kind == KindInvalid || ev.Kind >= kindSentinel {
		return fmt.Errorf("%w: bad event kind %d", ErrCorrupt, kindByte)
	}
	dSeq, err := r.uvarint()
	if err != nil {
		return fmt.Errorf("trace: reading seq: %w", err)
	}
	dTS, err := r.uvarint()
	if err != nil {
		return fmt.Errorf("trace: reading ts: %w", err)
	}
	r.lastSeq += dSeq
	r.lastTS += dTS
	ev.Seq, ev.TS = r.lastSeq, r.lastTS
	if ev.Ctx, err = r.u32(); err != nil {
		return fmt.Errorf("trace: reading ctx: %w", err)
	}

	fail := func(field string, err error) error {
		return fmt.Errorf("trace: event %d (%s): reading %s: %w", ev.Seq, ev.Kind, field, err)
	}

	switch ev.Kind {
	case KindDefType:
		if ev.TypeID, err = r.u32(); err != nil {
			return fail("type id", err)
		}
		if ev.TypeName, err = r.string(); err != nil {
			return fail("type name", err)
		}
		n, err := r.uvarint()
		if err != nil {
			return fail("member count", err)
		}
		if n > maxWireMembers {
			return fmt.Errorf("%w: member count %d too large", ErrCorrupt, n)
		}
		ev.Members = make([]MemberDef, n)
		for i := range ev.Members {
			m := &ev.Members[i]
			if m.Name, err = r.string(); err != nil {
				return fail("member name", err)
			}
			if m.Offset, err = r.u32(); err != nil {
				return fail("member offset", err)
			}
			if m.Size, err = r.u32(); err != nil {
				return fail("member size", err)
			}
			if m.Atomic, err = r.bool(); err != nil {
				return fail("member atomic", err)
			}
			if m.IsLock, err = r.bool(); err != nil {
				return fail("member islock", err)
			}
		}
	case KindDefLock:
		if ev.LockID, err = r.uvarint(); err != nil {
			return fail("lock id", err)
		}
		if ev.LockName, err = r.string(); err != nil {
			return fail("lock name", err)
		}
		cls, err := r.byte()
		if err != nil {
			return fail("lock class", err)
		}
		ev.Class = LockClass(cls)
		if ev.LockAddr, err = r.uvarint(); err != nil {
			return fail("lock addr", err)
		}
		if ev.OwnerAddr, err = r.uvarint(); err != nil {
			return fail("owner addr", err)
		}
	case KindDefFunc:
		if ev.FuncID, err = r.u32(); err != nil {
			return fail("func id", err)
		}
		if ev.File, err = r.string(); err != nil {
			return fail("file", err)
		}
		if ev.Line, err = r.u32(); err != nil {
			return fail("line", err)
		}
		if ev.Func, err = r.string(); err != nil {
			return fail("func name", err)
		}
	case KindDefCtx:
		if ev.CtxID, err = r.u32(); err != nil {
			return fail("ctx id", err)
		}
		k, err := r.byte()
		if err != nil {
			return fail("ctx kind", err)
		}
		ev.CtxKind = CtxKind(k)
		if ev.CtxName, err = r.string(); err != nil {
			return fail("ctx name", err)
		}
	case KindAlloc:
		if ev.AllocID, err = r.uvarint(); err != nil {
			return fail("alloc id", err)
		}
		if ev.TypeID, err = r.u32(); err != nil {
			return fail("type id", err)
		}
		if ev.Addr, err = r.uvarint(); err != nil {
			return fail("addr", err)
		}
		if ev.Size, err = r.u32(); err != nil {
			return fail("size", err)
		}
		if ev.Subclass, err = r.string(); err != nil {
			return fail("subclass", err)
		}
	case KindFree:
		if ev.AllocID, err = r.uvarint(); err != nil {
			return fail("alloc id", err)
		}
		if ev.Addr, err = r.uvarint(); err != nil {
			return fail("addr", err)
		}
	case KindRead, KindWrite:
		if ev.Addr, err = r.uvarint(); err != nil {
			return fail("addr", err)
		}
		if ev.AccessSize, err = r.u32(); err != nil {
			return fail("access size", err)
		}
		if ev.FuncID, err = r.u32(); err != nil {
			return fail("func id", err)
		}
		if ev.StackID, err = r.u32(); err != nil {
			return fail("stack id", err)
		}
		if ev.Kind == KindWrite {
			if ev.Value, err = r.uvarint(); err != nil {
				return fail("value", err)
			}
		}
	case KindAcquire, KindRelease:
		if ev.LockID, err = r.uvarint(); err != nil {
			return fail("lock id", err)
		}
		if ev.Reader, err = r.bool(); err != nil {
			return fail("reader flag", err)
		}
		if ev.FuncID, err = r.u32(); err != nil {
			return fail("func id", err)
		}
		if ev.Line, err = r.u32(); err != nil {
			return fail("line", err)
		}
	case KindFuncEnter, KindFuncExit:
		if ev.FuncID, err = r.u32(); err != nil {
			return fail("func id", err)
		}
	case KindCoverage:
		if ev.FuncID, err = r.u32(); err != nil {
			return fail("func id", err)
		}
		if ev.Line, err = r.u32(); err != nil {
			return fail("line", err)
		}
	case KindDefStack:
		if ev.StackID, err = r.u32(); err != nil {
			return fail("stack id", err)
		}
		n, err := r.uvarint()
		if err != nil {
			return fail("stack depth", err)
		}
		if n > maxWireMembers {
			return fmt.Errorf("%w: stack depth %d too large", ErrCorrupt, n)
		}
		if n > 0 {
			ev.StackFuncs = make([]uint32, n)
			for i := range ev.StackFuncs {
				if ev.StackFuncs[i], err = r.u32(); err != nil {
					return fail("stack frame", err)
				}
			}
		}
	}
	return nil
}

// ReadAll decodes the remaining events of r into a slice. Intended for
// tests and small traces; large traces should stream via Read.
func (r *Reader) ReadAll() ([]Event, error) {
	var evs []Event
	for {
		var ev Event
		err := r.Read(&ev)
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return evs, err
		}
		evs = append(evs, ev)
	}
}
