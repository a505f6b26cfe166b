package core

import (
	"context"
	"sync"
	"sync/atomic"

	"lockdoc/internal/db"
)

// This file implements the mining pass behind DeriveAll and
// DeltaDeriver.DeriveAll. A group's hypotheses depend on that group's
// observations alone, so the workers of a pass share nothing but one
// atomic claim cursor into the pass's work list: each worker takes the
// next index, mines that group with the miner it took from minerPool
// for the pass and writes the result at the group's own index. With
// one worker the same loop runs inline on the caller's goroutine.

// minePass is one pass's state, shared by its workers.
type minePass struct {
	ctx    context.Context
	d      *db.DB
	groups []*db.ObsGroup
	work   []int32 // group indices to mine, in claim order; nil = all of groups
	out    []Result
	opt    Options

	next    atomic.Int64 // claim cursor: the next position in work
	aborted atomic.Bool
	hydErr  atomic.Pointer[error]
}

// size is the number of groups the pass mines.
func (p *minePass) size() int {
	if p.work == nil {
		return len(p.groups)
	}
	return len(p.work)
}

// claim returns the group index at the cursor and advances it, or -1
// once the work list is drained.
func (p *minePass) claim() int32 {
	i := p.next.Add(1) - 1
	if i >= int64(p.size()) {
		return -1
	}
	if p.work == nil {
		return int32(i)
	}
	return p.work[i]
}

// run is one worker's loop: a miner from minerPool, held for the whole
// pass, so its trie arena and projection scratch carry over from
// earlier passes, claiming groups until the work list is drained, the
// context is cancelled or a hydration fails. The context is checked
// after each claim that found a group, so a pass that has claimed its
// last group keeps its complete results whatever the context does.
func (p *minePass) run() {
	m := minerPool.Get().(*miner)
	defer minerPool.Put(m)
	for !p.aborted.Load() {
		gi := p.claim()
		if gi < 0 {
			return
		}
		if ctxCancelled(p.ctx) {
			p.aborted.Store(true)
			return
		}
		g := p.groups[gi]
		if err := p.d.Hydrate(g); err != nil {
			p.fail(err)
			return
		}
		p.out[gi] = mineOne(m, g, p.opt)
	}
}

// fail records the pass's first hydration error and stops the other
// workers at their next claim. It takes err's address only here: taken
// in run's loop, the address would move err to the heap on every
// claimed group.
func (p *minePass) fail(err error) {
	p.hydErr.CompareAndSwap(nil, &err)
	p.aborted.Store(true)
}

// mineAll mines the groups selected by work (nil = all) into out, on
// the caller's goroutine or on up to opt.workers() goroutines. Results
// land at out[i] for each selected index i, so the output is
// element-for-element identical to a one-worker pass whatever the
// worker count or claim interleaving. A hydration error wins over the
// context's error.
func mineAll(ctx context.Context, d *db.DB, groups []*db.ObsGroup, work []int32, out []Result, opt Options) error {
	p := &minePass{ctx: ctx, d: d, groups: groups, work: work, out: out, opt: opt}
	if workers := min(opt.workers(), p.size()); workers <= 1 {
		p.run()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				p.run()
			}()
		}
		wg.Wait()
	}
	if errp := p.hydErr.Load(); errp != nil {
		return *errp
	}
	if p.aborted.Load() {
		return ctx.Err()
	}
	return nil
}
