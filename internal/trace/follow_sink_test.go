package trace

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// memSink records every committed range and can be armed to fail.
type memSink struct {
	commits [][]byte
	failOn  int // 1-based commit index to fail at; 0 = never
	err     error
}

func (m *memSink) CommitBlocks(raw []byte) error {
	if m.failOn != 0 && len(m.commits)+1 == m.failOn {
		return m.err
	}
	m.commits = append(m.commits, append([]byte(nil), raw...))
	return nil
}

// TestFollowerSinkReceivesCommittedBytes drip-feeds a trace and checks
// the sink sees exactly the committed byte ranges, in order, exactly
// once — their concatenation reproducing the file prefix up to the
// committed offset (header included).
func TestFollowerSinkReceivesCommittedBytes(t *testing.T) {
	raw, _ := v2Fixture(t, 60, 8)
	markers := findMarkers(raw)
	if len(markers) < 3 {
		t.Fatalf("fixture has %d markers, want >= 3", len(markers))
	}

	g := newGrowingTrace(t)
	fw, err := NewFollower(g.path, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	sink := &memSink{}
	fw.SetSink(sink)

	c := &collector{}
	collect := c.consume

	// Nothing committed yet: the sink must not be called.
	mustPoll(t, fw, collect)
	g.append(raw[:markers[1]]) // header + first complete block
	mustPoll(t, fw, collect)
	if len(sink.commits) != 1 {
		t.Fatalf("sink saw %d commits, want 1", len(sink.commits))
	}
	g.append(raw[markers[1]:])
	mustPoll(t, fw, collect)
	mustPoll(t, fw, collect) // idle poll: no empty commit

	joined := bytes.Join(sink.commits, nil)
	if !bytes.Equal(joined, raw[:fw.Offset()]) {
		t.Fatalf("sink bytes (%d) differ from committed prefix (%d)", len(joined), fw.Offset())
	}
	if int(fw.Offset()) != len(raw) {
		t.Fatalf("Offset() = %d, want %d", fw.Offset(), len(raw))
	}

	// The sunk bytes replay: header + blocks through a fresh reader.
	r, err := NewReader(bytes.NewReader(joined))
	if err != nil {
		t.Fatal(err)
	}
	evs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(c.events) {
		t.Fatalf("replaying sunk bytes gave %d events, follower delivered %d", len(evs), len(c.events))
	}
}

// TestFollowerSinkFailurePoisons arms the sink to fail: the poll must
// error, the committed offset must not advance, and the Follower must
// stay poisoned even though the injected error is transient-looking —
// re-polling would otherwise deliver the same events twice.
func TestFollowerSinkFailurePoisons(t *testing.T) {
	raw, _ := v2Fixture(t, 60, 8)
	g := newGrowingTrace(t)
	g.append(raw)

	fw, err := NewFollower(g.path, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	boom := errors.New("disk full")
	fw.SetSink(&memSink{failOn: 1, err: boom})

	if _, err := fw.Poll(context.Background(), discard); !errors.Is(err, boom) {
		t.Fatalf("Poll error = %v, want sink failure", err)
	}
	if fw.Offset() != 0 {
		t.Fatalf("offset advanced to %d past a failed commit", fw.Offset())
	}
	if _, err := fw.Poll(context.Background(), discard); !errors.Is(err, boom) {
		t.Fatalf("follower not poisoned after sink failure: %v", err)
	}
}
