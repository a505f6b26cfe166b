// Package segstore persists a lockdoc pipeline on disk as compressed,
// CRC-checksummed, append-only segment files described by a
// self-checksummed manifest (the torn-write-safe directory discipline
// of internal/manifest).
//
// Two segment kinds live side by side. Trace segments hold the raw v2
// sync-block bytes of the ingested trace — the durable source of truth
// and the commit point, replayable with trace.NewContinuationReader.
// State segments are a cache of that trace: they hold a
// compact encoding of one sealed snapshot: block 0 is the metadata
// (interned keys, counters, and the observation-group directory),
// block i+1 the observations of group i, and the blocks after the
// groups the chunks of the definition log. Reopening a store therefore
// decodes block 0 and the definition chunks and materializes each
// group's observations lazily, on first use, which is what makes
// restart near-instant even for six-figure-event traces. Compaction is
// incremental in the same spirit: a group that did not change since
// the previous compaction, and a definition chunk that was already
// full, have their compressed blocks copied forward instead of
// re-encoded.
//
// Segment files are mmap'd on open (with a read-into-memory fallback
// off unix or when a custom FS is injected). Every block read goes
// through Store.readBlock, which inflates into its reader's one buffer:
// a group block is inflated once, into the group that keeps its
// observations, and no other decompressed copy stays resident.
package segstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lockdoc/internal/db"
	"lockdoc/internal/manifest"
	"lockdoc/internal/trace"
)

// Manifest kind tokens for the two segment flavours.
const (
	KindTrace = "trace"
	KindState = "state"
)

const (
	segPrefix = "seg-"
	segSuffix = ".lkseg"

	// traceChunk is the raw-byte span of one compressed block inside a
	// trace segment. Chunk boundaries are invisible to readers — the
	// trace reader concatenates inflated blocks into one byte stream —
	// so the value only tunes compression granularity against the size
	// of the trace reader's one buffer.
	traceChunk = 256 << 10
)

// ErrClosed reports use of a store after Close.
var ErrClosed = errors.New("segstore: store closed")

// ErrUnstorable rejects trace bytes the store cannot segment: a v1
// trace, a malformed header, or bytes that do not start at a sync
// block. It is a property of the bytes, never of the disk.
var ErrUnstorable = errors.New("segstore: trace bytes cannot be stored")

// Options configures Open.
type Options struct {
	// FS overrides the file-operation surface (fault injection in
	// tests). nil means the real filesystem, which also enables mmap;
	// any other FS reads segments through FS.ReadFile instead.
	FS manifest.FS

	Metrics *Metrics
}

// Store is an on-disk segment store for one trace and its compacted
// state. All methods are safe for concurrent use, except that Close
// must not race in-flight reads or hydrations: the caller quiesces
// readers (and drops store-backed snapshots) first, because Close
// unmaps the segment pages they would touch.
type Store struct {
	dir  string
	fs   manifest.FS
	osfs bool // real filesystem: open segments via mmap
	m    *Metrics

	mu      sync.Mutex
	entries []manifest.Entry
	nextSeq uint64
	segs    map[string]*segment // opened segments by entry name
	retired []*segment          // superseded but possibly still referenced by snapshots
	dirty   bool                // manifest tail may hold a torn line from a failed append

	// closed is set under mu and read without it by readBlock.
	closed atomic.Bool

	// prev is the copy-forward index Compact reuses blocks from; forgets
	// counts its resets, so a Compact that raced one does not reinstall
	// what was just released.
	prev    copyForward
	forgets uint64
}

// copyForward is what the last successful Compact of a sealed view
// leaves for the next one: the state segment it wrote (the in-memory
// bytes, parsed), the block index of every group it held and of every
// definition chunk that view saw full. Sealed groups are copy-on-write
// and a full chunk never changes, so a group or chunk pointer found
// here still has exactly the content its block encodes. The zero value
// matches nothing.
type copyForward struct {
	seg    *segment
	blocks map[*db.ObsGroup]int
	chunks map[*db.DefChunk]int
}

var (
	_ db.Compactor   = (*Store)(nil)
	_ db.GroupSource = (*stateSource)(nil)
)

func segName(seq uint64) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
	return seq, err == nil
}

// Open opens (creating if absent) the segment store in dir. Leftover
// temp files are removed, a torn manifest tail is repaired, and the
// valid manifest prefix up to the first entry that is not a
// well-formed segstore entry becomes the store's content. Segment
// files themselves are opened lazily, on first read.
func Open(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	osfs := false
	if fsys == nil {
		fsys = manifest.OSFS{}
	}
	switch fsys.(type) {
	case manifest.OSFS, *manifest.OSFS:
		osfs = true
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("segstore: creating %s: %w", dir, err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("segstore: listing %s: %w", dir, err)
	}
	manifest.RemoveTemps(fsys, dir, names)
	manifest.Repair(fsys, dir)

	s := &Store{
		dir:     dir,
		fs:      fsys,
		osfs:    osfs,
		m:       opts.Metrics,
		nextSeq: 1,
		segs:    make(map[string]*segment),
	}
	for _, e := range manifest.Load(fsys, dir) {
		if (e.Kind != KindTrace && e.Kind != KindState) || e.Name != segName(e.Seq) {
			break // foreign or corrupt entry: keep the valid prefix only
		}
		s.entries = append(s.entries, e)
		if e.Seq >= s.nextSeq {
			s.nextSeq = e.Seq + 1
		}
	}
	// Orphan segment files (published but never recorded, or abandoned
	// by a crashed rewrite) must not have their names reused.
	for _, name := range names {
		if seq, ok := parseSegName(name); ok && seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
	}
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Manifest returns a copy of the store's current manifest entries.
func (s *Store) Manifest() []manifest.Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]manifest.Entry(nil), s.entries...)
}

// HasState reports whether the store holds a compacted state segment.
func (s *Store) HasState() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.Kind == KindState {
			return true
		}
	}
	return false
}

// StateCurrent reports whether the newest state segment covers the
// whole trace chain: one exists and no trace entry follows it in
// manifest order. A crash (or a failed Compact) between AppendTrace
// and Compact leaves the state one commit behind; a reader that must
// serve every committed byte replays the trace instead.
func (s *Store) StateCurrent() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.entries)
	return n > 0 && s.entries[n-1].Kind == KindState
}

// HasTrace reports whether the store holds any trace segments.
func (s *Store) HasTrace() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.Kind == KindTrace {
			return true
		}
	}
	return false
}

// Close unmaps and releases every opened segment, including retired
// ones still pinned by old snapshots — see the concurrency note on
// Store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil
	}
	s.closed.Store(true)
	var first error
	for _, seg := range s.segs {
		if err := seg.close(); err != nil && first == nil {
			first = err
		}
	}
	for _, seg := range s.retired {
		if err := seg.close(); err != nil && first == nil {
			first = err
		}
	}
	s.segs = nil
	s.retired = nil
	s.forgetLocked()
	return first
}

// stripTraceHeader accepts either headered v2 trace bytes or a bare
// sync-block continuation and returns the bare block bytes. v1 traces
// cannot be stored: their stream has no sync blocks to segment on.
func stripTraceHeader(raw []byte) ([]byte, error) {
	if trace.HasHeader(raw) {
		v, n := binary.Uvarint(raw[4:])
		if n <= 0 {
			return nil, fmt.Errorf("%w: malformed trace header", ErrUnstorable)
		}
		if v != trace.FormatV2 {
			return nil, fmt.Errorf("%w: only v2 traces can be stored (got v%d)", ErrUnstorable, v)
		}
		raw = raw[4+n:]
	}
	// 0xFF opens a v2 sync marker and is reserved as an event kind, so
	// any committed block range must start with it.
	if len(raw) > 0 && raw[0] != 0xFF {
		return nil, fmt.Errorf("%w: not at a sync-block boundary", ErrUnstorable)
	}
	return raw, nil
}

// traceSegment compresses bare sync-block bytes into a trace segment,
// one block per traceChunk of payload.
func traceSegment(payload []byte) (*segWriter, error) {
	w := newSegWriter(kindByteTrace)
	for off := 0; off < len(payload); off += traceChunk {
		if err := w.addBlock(payload[off:min(off+traceChunk, len(payload))]); err != nil {
			return nil, fmt.Errorf("segstore: compressing segment: %w", err)
		}
	}
	return w, nil
}

// repairLocked rewrites the manifest from the in-memory entry list
// after a failed append may have left a torn tail line.
func (s *Store) repairLocked() error {
	if !s.dirty {
		return nil
	}
	if err := manifest.Replace(s.fs, s.dir, s.entries); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// publishLocked writes the finished segment w as a new segment file,
// atomically (temp + fsync + rename). The manifest is NOT touched; the
// caller records the returned entry.
func (s *Store) publishLocked(kind string, w *segWriter) (manifest.Entry, error) {
	data := w.bytes()
	seq := s.nextSeq
	name := segName(seq)
	if err := manifest.WriteFileAtomic(s.fs, s.dir, name, data); err != nil {
		return manifest.Entry{}, fmt.Errorf("segstore: writing %s: %w", name, err)
	}
	s.nextSeq++
	return manifest.Entry{
		Seq:  seq,
		Kind: kind,
		Name: name,
		Size: int64(len(data)),
		CRC:  crc32.ChecksumIEEE(data),
	}, nil
}

// retireLocked removes superseded entries' files. Segments already
// opened stay mapped until Close — an old snapshot may still hydrate
// from them (on unix the unlinked inode lives as long as the mapping).
func (s *Store) retireLocked(old []manifest.Entry) {
	for _, e := range old {
		if seg, ok := s.segs[e.Name]; ok {
			delete(s.segs, e.Name)
			s.retired = append(s.retired, seg)
		}
		_ = s.fs.Remove(filepath.Join(s.dir, e.Name))
	}
}

// ResetTrace replaces the store's content with the given trace — the
// full-load counterpart of AppendTrace. Any previous trace AND state
// segments are dropped: a new trace invalidates state compacted from
// the old one. raw may be a headered v2 trace or bare sync blocks.
func (s *Store) ResetTrace(raw []byte) error {
	payload, err := stripTraceHeader(raw)
	if err != nil {
		return err
	}
	w, err := traceSegment(payload)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if err := s.repairLocked(); err != nil {
		return fmt.Errorf("segstore: repairing manifest: %w", err)
	}
	var entries []manifest.Entry
	if len(payload) > 0 {
		e, err := s.publishLocked(KindTrace, w)
		if err != nil {
			return err
		}
		entries = append(entries, e)
	}
	if err := manifest.Replace(s.fs, s.dir, entries); err != nil {
		for _, e := range entries {
			_ = s.fs.Remove(filepath.Join(s.dir, e.Name))
		}
		return fmt.Errorf("segstore: rewriting manifest: %w", err)
	}
	old := s.entries
	s.entries = entries
	s.retireLocked(old)
	s.forgetLocked()
	if len(entries) > 0 {
		s.m.wrote(int(entries[0].Size))
	}
	return nil
}

// AppendTrace appends one trace segment holding raw (headered or bare;
// the header bytes of a commit starting at offset 0 are stripped). An
// empty payload is a no-op. On failure the store's content is
// unchanged — a torn manifest line is repaired before the next write,
// and at reopen by manifest.Repair.
func (s *Store) AppendTrace(raw []byte) error {
	payload, err := stripTraceHeader(raw)
	if err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	w, err := traceSegment(payload)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if err := s.repairLocked(); err != nil {
		return fmt.Errorf("segstore: repairing manifest: %w", err)
	}
	e, err := s.publishLocked(KindTrace, w)
	if err != nil {
		return err
	}
	if err := manifest.AppendEntry(s.fs, s.dir, e); err != nil {
		// The manifest tail may now hold a torn line; the in-memory
		// entry list stays authoritative and the next write rewrites.
		s.dirty = true
		_ = s.fs.Remove(filepath.Join(s.dir, e.Name))
		return fmt.Errorf("segstore: recording %s: %w", e.Name, err)
	}
	s.entries = append(s.entries, e)
	s.m.wrote(int(e.Size))
	return nil
}

// Compact implements db.Compactor: it encodes the sealed view as one
// state segment (block 0 metadata, block i+1 group i, then the
// definition chunks) and atomically swaps it in for any previous state
// segments. Use db.DB.SealTo(store) to seal-and-compact in one step.
//
// Only groups that changed since the last Compact, and the definition
// chunks that were not yet full then, are encoded: a group the
// previously compacted sealed view shares by pointer, or a chunk it
// already saw full, has its compressed block copied forward verbatim,
// after a CRC re-check, so the segment is byte-identical to a full
// re-encode while the work scales with the change.
func (s *Store) Compact(view *db.DB) error {
	start := time.Now()
	s.mu.Lock()
	prev, forgets := s.prev, s.forgets
	s.mu.Unlock()

	w := newSegWriter(kindByteState)
	buf := view.AppendStateMeta(nil)
	if err := w.addBlock(buf); err != nil {
		return fmt.Errorf("segstore: compressing segment: %w", err)
	}
	groups := view.Groups()
	next := copyForward{
		blocks: make(map[*db.ObsGroup]int, len(groups)),
		chunks: make(map[*db.DefChunk]int, view.DefChunks()),
	}
	reused := 0
	for i, g := range groups {
		next.blocks[g] = i + 1
		if j, ok := prev.blocks[g]; ok && w.copyBlock(prev.seg, j) {
			reused++
			continue
		}
		// A view loaded from this (or another) store may hold stub
		// groups; materialize before encoding.
		if err := view.Hydrate(g); err != nil {
			return fmt.Errorf("segstore: hydrating group for compaction: %w", err)
		}
		buf = db.AppendGroupObs(buf[:0], g)
		if err := w.addBlock(buf); err != nil {
			return fmt.Errorf("segstore: compressing segment: %w", err)
		}
	}
	for j := range view.DefChunks() {
		// The last chunk may still fill up: only a full one is final.
		if c, full := view.DefChunk(j); full {
			next.chunks[c] = 1 + len(groups) + j
			if k, ok := prev.chunks[c]; ok && w.copyBlock(prev.seg, k) {
				continue
			}
		}
		buf = view.AppendDefChunk(buf[:0], j)
		if err := w.addBlock(buf); err != nil {
			return fmt.Errorf("segstore: compressing segment: %w", err)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if err := s.repairLocked(); err != nil {
		return fmt.Errorf("segstore: repairing manifest: %w", err)
	}
	e, err := s.publishLocked(KindState, w)
	if err != nil {
		return err
	}
	var keep []manifest.Entry
	var old []manifest.Entry
	for _, prev := range s.entries {
		if prev.Kind == KindState {
			old = append(old, prev)
		} else {
			keep = append(keep, prev)
		}
	}
	keep = append(keep, e)
	if err := manifest.Replace(s.fs, s.dir, keep); err != nil {
		_ = s.fs.Remove(filepath.Join(s.dir, e.Name))
		return fmt.Errorf("segstore: rewriting manifest: %w", err)
	}
	s.entries = keep
	s.retireLocked(old)
	// Only a sealed view's groups are frozen: a live store still merges
	// in place into the groups no seal has shared.
	if view.Sealed() && s.forgets == forgets {
		if next.seg, err = parseSegment(e.Name, w.bytes()); err == nil {
			s.prev = next
		}
	}
	s.m.compacted(start, int(e.Size), reused)
	return nil
}

// forgetLocked drops the copy-forward index, releasing the groups and
// the segment bytes it pins; the next Compact encodes every group.
func (s *Store) forgetLocked() {
	s.prev = copyForward{}
	s.forgets++
}

// segment returns the opened segment for entry e, opening (and fully
// verifying against the manifest's size and CRC) on first use.
func (s *Store) segment(e manifest.Entry) (*segment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if seg, ok := s.segs[e.Name]; ok {
		return seg, nil
	}
	var seg *segment
	var err error
	if s.osfs {
		seg, err = openSegmentFile(filepath.Join(s.dir, e.Name), e.Name)
	} else {
		var data []byte
		data, err = s.fs.ReadFile(filepath.Join(s.dir, e.Name))
		if err == nil {
			seg, err = parseSegment(e.Name, data)
		}
	}
	if err != nil {
		s.m.invalid()
		return nil, err
	}
	if int64(len(seg.data)) != e.Size || seg.checksum() != e.CRC {
		_ = seg.close()
		s.m.invalid()
		return nil, fmt.Errorf("%w: %s: does not match manifest (size %d crc %08x, want %d %08x)",
			ErrBadSegment, e.Name, len(seg.data), crc32.ChecksumIEEE(seg.data), e.Size, e.CRC)
	}
	if (e.Kind == KindTrace) != (seg.kind == kindByteTrace) {
		_ = seg.close()
		s.m.invalid()
		return nil, fmt.Errorf("%w: %s: segment kind disagrees with manifest kind %s", ErrBadSegment, e.Name, e.Kind)
	}
	s.segs[e.Name] = seg
	s.m.opened()
	return seg, nil
}

// readBlock is the one way a block is read. It inflates block i of
// seg through f into dst's storage, growing it as needed, after
// checking that the store is open and that seg has a block i; each
// reader owns its inflater and its buffer.
func (s *Store) readBlock(f *inflater, seg *segment, i int, dst []byte) ([]byte, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if i < 0 || i >= len(seg.blocks) {
		return nil, fmt.Errorf("%w: %s: no block %d", ErrBadSegment, seg.name, i)
	}
	raw, err := f.inflate(seg, i, dst)
	if err != nil {
		return nil, err
	}
	s.m.inflated()
	return raw, nil
}

// stateSource binds a loaded snapshot to the state segment it came
// from; it implements db.GroupSource for lazy group materialization.
// Its one buffer is safe to reuse: the snapshot never runs two
// HydrateGroup calls at once, and db.DecodeGroupObs copies every value
// it keeps.
type stateSource struct {
	s   *Store
	seg *segment
	f   inflater
	buf []byte
}

func (src *stateSource) HydrateGroup(idx int, g *db.ObsGroup) error {
	raw, err := src.s.readBlock(&src.f, src.seg, idx+1, src.buf)
	if err != nil {
		return err
	}
	src.buf = raw
	return db.DecodeGroupObs(raw, g)
}

// LoadState decodes the newest usable state segment into a sealed
// snapshot whose observation groups hydrate lazily from this store.
// Block 0 and the definition chunks are read once, through one
// inflater. Damaged candidates, and states of another format version,
// are skipped in favour of older ones; (nil, false, nil) means no
// usable state exists and the caller should fall back to replaying the
// trace.
func (s *Store) LoadState() (*db.DB, bool, error) {
	start := time.Now()
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	var candidates []manifest.Entry
	for _, e := range s.entries {
		if e.Kind == KindState {
			candidates = append(candidates, e)
		}
	}
	s.mu.Unlock()

	for i := len(candidates) - 1; i >= 0; i-- {
		seg, err := s.segment(candidates[i])
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return nil, false, err
			}
			continue // damaged or missing: try the previous generation
		}
		var f inflater
		meta, err := s.readBlock(&f, seg, 0, nil)
		if err != nil {
			s.m.invalid()
			continue
		}
		groups, chunks, err := db.StateLayout(meta)
		if err != nil || len(seg.blocks) != 1+groups+chunks {
			s.m.invalid()
			continue
		}
		var raw []byte
		chunk := func(j int) (_ []byte, err error) {
			raw, err = s.readBlock(&f, seg, 1+groups+j, raw)
			return raw, err
		}
		d, err := db.DecodeState(meta, chunk, &stateSource{s: s, seg: seg})
		if err != nil {
			s.m.invalid()
			continue
		}
		s.m.loaded(start)
		return d, true, nil
	}
	return nil, false, nil
}

// DropCache forgets the copy-forward index without closing the store:
// mapped segments stay readable and the next Compact encodes every
// group. lockdocd calls it when a namespace is evicted under memory
// pressure — the mmap itself costs no heap, the groups and the segment
// bytes the index pins do. Safe against concurrent use; a no-op on a
// closed store.
func (s *Store) DropCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forgetLocked()
}

// TraceReader streams the store's trace — bare v2 sync blocks, ready
// for trace.NewContinuationReader — concatenated across trace segments
// in order. A damaged or missing segment truncates the stream at the
// last valid point, mirroring how a torn trace file loads: the valid
// prefix survives. Any other failure to open a segment (ErrClosed, a
// transient read fault, EMFILE, EIO) is not damage, so it does not cut
// the stream: the reader's first Read returns it. Decompression is
// streamed block by block through the reader's one inflater and
// buffer.
func (s *Store) TraceReader() io.Reader {
	s.mu.Lock()
	var entries []manifest.Entry
	for _, e := range s.entries {
		if e.Kind == KindTrace {
			entries = append(entries, e)
		}
	}
	s.mu.Unlock()

	var segs []*segment
	for _, e := range entries {
		seg, err := s.segment(e)
		if errors.Is(err, ErrBadSegment) || errors.Is(err, fs.ErrNotExist) {
			break // truncate the chain at the first damaged segment
		}
		if err != nil {
			return &traceReader{err: err}
		}
		segs = append(segs, seg)
	}
	return &traceReader{s: s, segs: segs}
}

// RepairTrace cuts the store at its first damaged trace segment (one
// that is missing or fails its manifest size/CRC check): that entry
// and every entry after it leave the manifest. Later trace segments
// cannot be replayed past the gap, and a state segment compacted from
// them is ahead of the chain. Run it before replaying a chain that new
// commits will extend, so no acknowledged append lands behind a gap
// that a later replay would stop at. Only real damage cuts: any other
// open error (a transient read fault, EMFILE, EIO, ErrClosed) is
// returned with the manifest untouched, so the caller can retry without
// losing acknowledged segments. Returns the entries dropped (0 for an
// intact chain). The caller serializes it with the store's writers.
func (s *Store) RepairTrace() (int, error) {
	for i, e := range s.Manifest() {
		if e.Kind != KindTrace {
			continue
		}
		_, err := s.segment(e)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrBadSegment) && !errors.Is(err, fs.ErrNotExist) {
			return 0, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed.Load() {
			return 0, ErrClosed
		}
		keep, drop := s.entries[:i:i], s.entries[i:]
		if err := manifest.Replace(s.fs, s.dir, keep); err != nil {
			return 0, fmt.Errorf("segstore: cutting the trace chain at %s: %w", e.Name, err)
		}
		s.entries = keep
		s.dirty = false
		s.retireLocked(drop)
		s.forgetLocked()
		return len(drop), nil
	}
	return 0, nil
}

type traceReader struct {
	s    *Store
	segs []*segment
	segi int
	blki int
	f    inflater
	buf  []byte // the last block inflated
	cur  []byte // its unread tail
	err  error  // a segment that failed to open for a reason other than damage
}

func (r *traceReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	for len(r.cur) == 0 {
		if r.segi >= len(r.segs) {
			return 0, io.EOF
		}
		seg := r.segs[r.segi]
		if r.blki >= len(seg.blocks) {
			r.segi++
			r.blki = 0
			continue
		}
		raw, err := r.s.readBlock(&r.f, seg, r.blki, r.buf)
		if err != nil {
			return 0, err
		}
		r.blki++
		r.buf, r.cur = raw, raw
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	return n, nil
}
