package segstore

import (
	"bytes"
	"testing"
)

// FuzzSegmentRoundTrip throws arbitrary bytes at the segment parser.
// Properties: parseSegment and an inflater never panic on any input,
// and any segment that parses and inflates cleanly survives a rebuild —
// re-compressing the recovered blocks yields a segment with identical
// logical content.
func FuzzSegmentRoundTrip(f *testing.F) {
	seed := func(blocks ...[]byte) []byte {
		w := newSegWriter(kindByteTrace)
		for _, b := range blocks {
			if err := w.addBlock(b); err != nil {
				f.Fatal(err)
			}
		}
		return w.bytes()
	}
	valid := seed([]byte("hello segment"), bytes.Repeat([]byte{0xAB, 0x00, 0xFF}, 400))
	f.Add(valid)
	f.Add(seed()) // header only
	f.Add([]byte{})
	f.Add([]byte("LKSG"))
	f.Add([]byte("LKSG\x01\x01"))
	truncated := valid[:len(valid)-5]
	f.Add(truncated)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-3] ^= 0xFF
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := parseSegment("fuzz", data)
		if err != nil {
			return
		}
		// Bound the inflate work: block headers may claim huge raw
		// sizes (up to maxSegBlock) that the inflater would allocate.
		total := 0
		for _, b := range seg.blocks {
			total += b.raw
		}
		if total > 1<<24 {
			return
		}
		var f inflater
		var blocks [][]byte
		for i := range seg.blocks {
			b, err := f.inflate(seg, i, nil)
			if err != nil {
				return // corrupt payload: detected, not a crash
			}
			blocks = append(blocks, b)
		}
		// Round trip: rebuilding from the recovered blocks must give a
		// parseable segment with the same content.
		w := newSegWriter(seg.kind)
		for _, b := range blocks {
			if err := w.addBlock(b); err != nil {
				t.Fatalf("rebuilding block: %v", err)
			}
		}
		seg2, err := parseSegment("rebuilt", w.bytes())
		if err != nil {
			t.Fatalf("rebuilt segment does not parse: %v", err)
		}
		if len(seg2.blocks) != len(blocks) {
			t.Fatalf("rebuilt segment has %d blocks, want %d", len(seg2.blocks), len(blocks))
		}
		for i := range blocks {
			got, err := f.inflate(seg2, i, nil)
			if err != nil {
				t.Fatalf("rebuilt block %d: %v", i, err)
			}
			if !bytes.Equal(got, blocks[i]) {
				t.Fatalf("rebuilt block %d differs", i)
			}
		}
	})
}
