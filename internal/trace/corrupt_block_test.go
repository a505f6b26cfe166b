package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
)

// wire builds raw event payload bytes by hand, so a test can craft
// encodings the Writer never produces.
type wire []byte

func (w wire) u(vs ...uint64) wire {
	for _, v := range vs {
		w = binary.AppendUvarint(w, v)
	}
	return w
}

func (w wire) b(bs ...byte) wire { return append(w, bs...) }

func (w wire) s(s string) wire { return append(w.u(uint64(len(s))), s...) }

// crcBlock frames payload as one v2 block with a valid CRC.
func crcBlock(baseSeq, baseTS uint64, payload []byte) []byte {
	b := append([]byte(nil), syncMarker[:]...)
	b = binary.AppendUvarint(b, baseSeq)
	b = binary.AppendUvarint(b, baseTS)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// TestCorruptPayloadInValidBlock pins how the decoder handles a block
// whose CRC holds but whose payload does not decode. The trace is three
// blocks: A (two good events), B (one good event, then the damaged
// bytes), C (one good event). Strict decoding stops at the damage with
// ErrCorrupt; lenient decoding drops the rest of B, reports where the
// bad event started and how many payload bytes were left unread, and
// resumes at C. The offsets and byte counts are exact: they pin how
// many bytes each primitive consumes before it fails.
func TestCorruptPayloadInValidBlock(t *testing.T) {
	enter := func(fn uint64) wire { return wire{}.b(byte(KindFuncEnter)).u(1, 1, 0, fn) }
	blockA := wire{}.b(byte(KindFuncEnter)).u(1, 2, 3, 4).
		b(byte(KindRead)).u(1, 1, 3, 4096, 8, 4, 5)
	eventsA := []Event{
		{Kind: KindFuncEnter, Seq: 11, TS: 102, Ctx: 3, FuncID: 4},
		{Kind: KindRead, Seq: 12, TS: 103, Ctx: 3, Addr: 4096, AccessSize: 8, FuncID: 4, StackID: 5},
	}
	eventB := Event{Kind: KindFuncEnter, Seq: 21, TS: 201, FuncID: 7}
	eventC := Event{Kind: KindFuncEnter, Seq: 31, TS: 301, FuncID: 9}
	cont := bytes.Repeat([]byte{0x80}, 10)

	cases := []struct {
		name string
		bad  wire // bytes of block B after its good event
		// The lenient report's offset and skipped bytes, and LastBlockEnd
		// after strict and after lenient decoding.
		offset, skipped, strictEnd, lenientEnd int64
	}{
		{
			name:   "varint cut at block end",
			bad:    wire{}.b(byte(KindRead)).u(1, 1, 0).b(0x80, 0x80),
			offset: 49, skipped: 0, strictEnd: 55, lenientEnd: 73,
		},
		{
			name:   "11-byte varint",
			bad:    wire{}.b(byte(KindRead)).u(1, 1, 0).b(cont...).b(0x01).b(enter(8)...),
			offset: 49, skipped: 6, strictEnd: 69, lenientEnd: 87,
		},
		{
			name:   "string longer than the block",
			bad:    wire{}.b(byte(KindDefFunc)).u(1, 1, 0, 3, 100).b('a', 'b', 'c'),
			offset: 49, skipped: 0, strictEnd: 58, lenientEnd: 76,
		},
		{
			name:   "bool byte of 2",
			bad:    wire{}.b(byte(KindAcquire)).u(1, 1, 0, 5).b(2).u(6, 7),
			offset: 49, skipped: 2, strictEnd: 57, lenientEnd: 75,
		},
		{
			name:   "member count over the limit",
			bad:    wire{}.b(byte(KindDefType)).u(1, 1, 0, 1).s("t").u(maxWireMembers+1).s("m").u(0, 8).b(0, 0),
			offset: 49, skipped: 6, strictEnd: 64, lenientEnd: 82,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := append([]byte(nil), magic[:]...)
			raw = binary.AppendUvarint(raw, FormatV2)
			raw = append(raw, crcBlock(10, 100, blockA)...)
			raw = append(raw, crcBlock(20, 200, append(enter(7), tc.bad...))...)
			raw = append(raw, crcBlock(30, 300, enter(9))...)

			r, err := NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.ReadAll()
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("strict: err = %v, want ErrCorrupt", err)
			}
			if want := append(append([]Event(nil), eventsA...), eventB); !reflect.DeepEqual(got, want) {
				t.Errorf("strict: events = %+v, want %+v", got, want)
			}
			if r.BytesSkipped() != 0 || len(r.Corruptions()) != 0 {
				t.Errorf("strict: skipped %d with %d reports, want none", r.BytesSkipped(), len(r.Corruptions()))
			}
			if r.LastBlockEnd() != tc.strictEnd {
				t.Errorf("strict: LastBlockEnd = %d, want %d", r.LastBlockEnd(), tc.strictEnd)
			}

			r, err = NewReaderOptions(bytes.NewReader(raw), ReaderOptions{Lenient: true, MaxErrors: 4})
			if err != nil {
				t.Fatal(err)
			}
			got, err = r.ReadAll()
			if err != nil {
				t.Fatalf("lenient: %v", err)
			}
			if want := append(append([]Event(nil), eventsA...), eventB, eventC); !reflect.DeepEqual(got, want) {
				t.Errorf("lenient: events = %+v, want %+v", got, want)
			}
			reps := r.Corruptions()
			if len(reps) != 1 {
				t.Fatalf("lenient: %d reports, want 1: %v", len(reps), reps)
			}
			if !errors.Is(reps[0].Cause, ErrCorrupt) {
				t.Errorf("lenient: cause %v is not ErrCorrupt", reps[0].Cause)
			}
			if reps[0].Offset != tc.offset || reps[0].BytesSkipped != tc.skipped {
				t.Errorf("lenient: report {Offset %d, BytesSkipped %d}, want {%d, %d}",
					reps[0].Offset, reps[0].BytesSkipped, tc.offset, tc.skipped)
			}
			if r.BytesSkipped() != tc.skipped {
				t.Errorf("lenient: BytesSkipped = %d, want %d", r.BytesSkipped(), tc.skipped)
			}
			if r.LastBlockEnd() != tc.lenientEnd || tc.lenientEnd != int64(len(raw)) {
				t.Errorf("lenient: LastBlockEnd = %d, want %d (trace is %d bytes)", r.LastBlockEnd(), tc.lenientEnd, len(raw))
			}
		})
	}
}
