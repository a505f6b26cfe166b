package db

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// memSource serves a state's group blocks from memory.
type memSource [][]byte

func (s memSource) HydrateGroup(idx int, g *ObsGroup) error { return DecodeGroupObs(s[idx], g) }

// roundTrip encodes view as the blocks of a state, checks the layout
// block 0 declares, and decodes the blocks into a new store.
func roundTrip(t *testing.T, view *DB) *DB {
	t.Helper()
	groups := view.Groups()
	src := make(memSource, len(groups))
	for i, g := range groups {
		src[i] = AppendGroupObs(nil, g)
	}
	meta := view.AppendStateMeta(nil)
	if g, k, err := StateLayout(meta); err != nil || g != len(groups) || k != view.DefChunks() {
		t.Fatalf("StateLayout = %d groups, %d chunks, %v; want %d, %d", g, k, err, len(groups), view.DefChunks())
	}
	d, err := DecodeState(meta, func(j int) ([]byte, error) { return view.AppendDefChunk(nil, j), nil }, src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestStateRoundTrip: the sealed state of every import edge case and of
// fifty seeded random streams (types redefined with fewer or more
// members, frees, allocation IDs reused, locks redefined) decodes to a
// store that holds exactly what the view holds, each allocation's
// liveness and the definition each group was made under included, and
// that encodes to the same bytes again.
func TestStateRoundTrip(t *testing.T) {
	check := func(name string, d *DB) {
		t.Helper()
		view := d.Seal()
		got := roundTrip(t, view)
		if want, have := renderState(t, view), renderState(t, got); have != want {
			t.Fatalf("%s: decoded state differs from the view:\n--- view\n%s\n--- decoded\n%s", name, want, have)
		}
		if !bytes.Equal(got.AppendStateMeta(nil), view.AppendStateMeta(nil)) {
			t.Errorf("%s: the decoded store encodes another block 0", name)
		}
		for j := range view.DefChunks() {
			if !bytes.Equal(got.AppendDefChunk(nil, j), view.AppendDefChunk(nil, j)) {
				t.Errorf("%s: the decoded store encodes definition chunk %d differently", name, j)
			}
		}
	}
	for _, c := range edgeCases() {
		f := newFeeder(t, edgeConfig())
		c.run(f)
		check(c.name, f.db)
	}
	for seed := int64(1); seed <= 50; seed++ {
		f := newFeeder(t, edgeConfig())
		edgeStream(rand.New(rand.NewSource(seed)), f)
		check(fmt.Sprintf("random seed %d", seed), f.db)
	}
}
