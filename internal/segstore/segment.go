package segstore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
)

// Segment file layout (see DESIGN.md §13):
//
//	magic "LKSG" | version byte (1) | kind byte | block...
//	block := rawLen uvarint | compLen uvarint | crc32(comp) LE 4B | comp
//
// comp is a DEFLATE (compress/flate) stream inflating to exactly rawLen
// bytes: compressed, or a single stored block when rawLen is under
// storedMax. The CRC covers the compressed bytes so corruption is caught
// before the inflater ever sees them. The header walk at open needs
// only the varint prefixes, so opening a segment touches a few pages
// per block and never decompresses anything.
const (
	segMagic   = "LKSG"
	segVersion = 1

	// blockLevel is the DEFLATE level of every block written. A durable
	// append re-encodes about a hundred group blocks of a few dozen raw
	// bytes each, and resetting a writer at the default level clears
	// ~640 KB of match tables per block; BestSpeed skips that work for
	// segments about a tenth to a fifth larger. The reader does not
	// depend on the level, so segments written at another level stay
	// readable.
	blockLevel = flate.BestSpeed

	// storedMax is the raw length under which a block is written as one
	// stored DEFLATE block (BTYPE 00: a five-byte header, then the raw
	// bytes) instead of compressed. Most group blocks hold a few dozen
	// bytes, which a Huffman table only grows, so a dirty group then
	// costs its own bytes and not a compressor's. The reader cannot
	// tell the difference, and the same raw bytes still make the same
	// block, so copy-forward stays byte-identical.
	storedMax = 256

	kindByteTrace = 1
	kindByteState = 2

	// maxSegBlock bounds a single block's raw size; trace blocks are
	// bounded by the chunker and state blocks by the db codec's own
	// limits, so this is a corruption backstop, not a real ceiling.
	maxSegBlock = 1 << 28
)

// ErrBadSegment reports a structurally invalid or corrupt segment file.
var ErrBadSegment = errors.New("segstore: bad segment")

// segWriter accumulates one segment in memory. Segments are bounded by
// what one ingest commit or one sealed snapshot produces, so building
// them in memory before the atomic publish keeps the write path simple.
type segWriter struct {
	buf  bytes.Buffer
	comp bytes.Buffer // scratch for one block's compressed bytes
	fw   *flate.Writer
	tmp  [binary.MaxVarintLen64]byte
}

func newSegWriter(kindByte byte) *segWriter {
	w := &segWriter{}
	w.buf.WriteString(segMagic)
	w.buf.WriteByte(segVersion)
	w.buf.WriteByte(kindByte)
	return w
}

// addBlock compresses raw, or stores it when it is shorter than
// storedMax, and appends it as one block.
func (w *segWriter) addBlock(raw []byte) error {
	w.comp.Reset()
	if len(raw) < storedMax {
		n := uint16(len(raw))
		w.comp.Write([]byte{1, byte(n), byte(n >> 8), byte(^n), byte(^n >> 8)}) // BFINAL, BTYPE 00, LEN, NLEN
		w.comp.Write(raw)
	} else if err := w.deflate(raw); err != nil {
		return err
	}
	comp := w.comp.Bytes()
	w.writeBlock(len(raw), crc32.ChecksumIEEE(comp), comp)
	return nil
}

// deflate compresses raw into w.comp through the writer's one flate
// writer.
func (w *segWriter) deflate(raw []byte) error {
	if w.fw == nil {
		fw, err := flate.NewWriter(&w.comp, blockLevel)
		if err != nil {
			return err
		}
		w.fw = fw
	} else {
		w.fw.Reset(&w.comp)
	}
	if _, err := w.fw.Write(raw); err != nil {
		return err
	}
	return w.fw.Close()
}

// copyBlock appends block i of seg verbatim after re-checking the block
// CRC. These are the bytes addBlock would write for the same raw input:
// DEFLATE is deterministic at one level, and copy-forward only reuses
// blocks this process wrote. It reports false, writing nothing, when the
// compressed bytes no longer match their CRC.
func (w *segWriter) copyBlock(seg *segment, i int) bool {
	b := seg.blocks[i]
	comp := seg.data[b.off : b.off+b.comp]
	if crc32.ChecksumIEEE(comp) != b.crc {
		return false
	}
	w.writeBlock(b.raw, b.crc, comp)
	return true
}

func (w *segWriter) writeBlock(rawLen int, crc uint32, comp []byte) {
	n := binary.PutUvarint(w.tmp[:], uint64(rawLen))
	w.buf.Write(w.tmp[:n])
	n = binary.PutUvarint(w.tmp[:], uint64(len(comp)))
	w.buf.Write(w.tmp[:n])
	var le [4]byte
	binary.LittleEndian.PutUint32(le[:], crc)
	w.buf.Write(le[:])
	w.buf.Write(comp)
}

func (w *segWriter) bytes() []byte { return w.buf.Bytes() }

// blockMeta locates one compressed block inside a mapped segment.
type blockMeta struct {
	off  int // offset of comp bytes in segment.data
	comp int
	raw  int
	crc  uint32
}

// segment is an opened, mapped (or slurped) segment file.
type segment struct {
	name   string
	kind   byte
	data   []byte
	unmap  func() error
	blocks []blockMeta
}

// openSegmentFile maps path and walks its block headers. Any structural
// problem — short header, bad magic, truncated block — fails the whole
// segment; per-block payload corruption is only detectable later, at
// decompression, via the block CRC.
func openSegmentFile(path, name string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, err := mapFile(f, fi.Size())
	if err != nil {
		// No mmap (or mapping failed): fall back to an in-memory copy.
		data, err = io.ReadAll(io.NewSectionReader(f, 0, fi.Size()))
		if err != nil {
			return nil, err
		}
		unmap = func() error { return nil }
	}
	seg, err := parseSegment(name, data)
	if err != nil {
		_ = unmap()
		return nil, err
	}
	seg.unmap = unmap
	return seg, nil
}

func parseSegment(name string, data []byte) (*segment, error) {
	if len(data) < len(segMagic)+2 || string(data[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("%w: %s: missing segment header", ErrBadSegment, name)
	}
	if data[len(segMagic)] != segVersion {
		return nil, fmt.Errorf("%w: %s: unsupported segment version %d", ErrBadSegment, name, data[len(segMagic)])
	}
	kind := data[len(segMagic)+1]
	if kind != kindByteTrace && kind != kindByteState {
		return nil, fmt.Errorf("%w: %s: unknown segment kind %d", ErrBadSegment, name, kind)
	}
	seg := &segment{name: name, kind: kind, data: data}
	off := len(segMagic) + 2
	for off < len(data) {
		rawLen, n := binary.Uvarint(data[off:])
		if n <= 0 || rawLen > maxSegBlock {
			return nil, fmt.Errorf("%w: %s: bad block raw length at offset %d", ErrBadSegment, name, off)
		}
		off += n
		compLen, n := binary.Uvarint(data[off:])
		if n <= 0 || compLen > maxSegBlock {
			return nil, fmt.Errorf("%w: %s: bad block comp length at offset %d", ErrBadSegment, name, off)
		}
		off += n
		if len(data)-off < 4+int(compLen) {
			return nil, fmt.Errorf("%w: %s: truncated block at offset %d", ErrBadSegment, name, off)
		}
		crc := binary.LittleEndian.Uint32(data[off : off+4])
		off += 4
		seg.blocks = append(seg.blocks, blockMeta{off: off, comp: int(compLen), raw: int(rawLen), crc: crc})
		off += int(compLen)
	}
	return seg, nil
}

// inflater decompresses blocks through one DEFLATE reader, reset for
// each block, so a run of blocks pays for one reader's tables and
// window instead of one per block.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
	one [1]byte
}

// inflate verifies the CRC of block i of s and decompresses it into
// dst's storage, growing it as needed. The result never aliases the
// mapping, so it stays valid past the segment's retirement.
func (f *inflater) inflate(s *segment, i int, dst []byte) ([]byte, error) {
	b := s.blocks[i]
	comp := s.data[b.off : b.off+b.comp]
	if crc32.ChecksumIEEE(comp) != b.crc {
		return nil, fmt.Errorf("%w: %s: block %d CRC mismatch", ErrBadSegment, s.name, i)
	}
	f.src.Reset(comp)
	if f.fr == nil {
		f.fr = flate.NewReader(&f.src)
	} else if err := f.fr.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return nil, err
	}
	raw := slices.Grow(dst[:0], b.raw)[:b.raw]
	if _, err := io.ReadFull(f.fr, raw); err != nil {
		return nil, fmt.Errorf("%w: %s: block %d inflated short of %d bytes: %v", ErrBadSegment, s.name, i, b.raw, err)
	}
	if n, _ := f.fr.Read(f.one[:]); n > 0 {
		return nil, fmt.Errorf("%w: %s: block %d inflates past %d bytes", ErrBadSegment, s.name, i, b.raw)
	}
	return raw, nil
}

// checksum computes the CRC32-IEEE of the whole file, the value the
// manifest entry pins.
func (s *segment) checksum() uint32 { return crc32.ChecksumIEEE(s.data) }

func (s *segment) close() error {
	if s.unmap == nil {
		return nil
	}
	err := s.unmap()
	s.unmap = nil
	s.data = nil
	return err
}
