package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"lockdoc/internal/db"
)

// This file implements the sharded work-stealing engine behind
// DeriveAll and DeltaDeriver.DeriveAll. The previous parallel path
// funneled every worker through one shared atomic claim counter and a
// sync.Pool of miners — both shared state on the per-group hot path.
// The engine instead assigns the work up front to one shard per worker
// (cost-aware greedy balancing, so shards start roughly even) and each
// worker drains its own shard through a private claim cursor. Only
// when a worker's own shard runs dry does it touch another shard: it
// scans the other workers' cursors and steals their unclaimed tail,
// one group at a time. With balanced shards stealing is rare, so in
// the common case a worker's entire pass runs on worker-private state:
// the miner it takes from minerPool once per pass (arena, projection
// scratch), its own interner, its own tally — no shared counter.
//
// Work stealing keeps the assignment honest: group mining cost is only
// estimated (groupWeight), and a shard that turns out heavy is drained
// collaboratively instead of serializing the pass on its owner.

// mineShard is one worker's claimed slice of the group index space.
// The owner and thieves share the claim cursor, so it is atomic; the
// padding keeps the cursors of adjacent shards on distinct cache lines
// (the cursor is the only cross-worker write on the hot path).
type mineShard struct {
	pos   atomic.Int64
	_     [56]byte
	items []int32
}

// workerTally is one worker's private pass accounting, merged into the
// observability counters once at the end of the pass.
type workerTally struct {
	claims uint64 // groups mined (own shard + stolen)
	steals uint64 // groups claimed from another worker's shard
	finish time.Time
}

// mineStats aggregates one engine pass for metrics and tests.
type mineStats struct {
	workers int
	claims  uint64
	steals  uint64
	idle    time.Duration // summed worker idle time at the pass barrier
	merge   time.Duration // interner merge time
}

// trieCost[l] estimates the permutation-trie size for one observed
// sequence of length l: sum over k<=l of l!/(l-k)! nodes. Only the
// ratio between groups matters for shard balancing.
var trieCost = [...]float64{1, 2, 5, 16, 65, 326, 1957, 13700, 109601}

// groupWeight estimates the mining cost of one group for shard
// assignment. Hydrated groups sum the projected trie size of their
// observed sequences; lazy stubs (state-backed stores before Hydrate)
// only know their observation count.
func groupWeight(g *db.ObsGroup) float64 {
	if g.Seqs == nil {
		return 1 + float64(g.Total)
	}
	w := 1.0
	for _, so := range g.Seqs {
		l := len(so.Seq)
		if l < len(trieCost) {
			w += trieCost[l]
		} else {
			// Beyond the table the true cost is astronomic; any huge
			// value keeps such a group alone on its shard.
			w += trieCost[len(trieCost)-1] * float64(l-len(trieCost)+2)
		}
	}
	return w
}

// mineEngine is the per-pass state shared by the workers.
type mineEngine struct {
	ctx    context.Context
	d      *db.DB
	groups []*db.ObsGroup
	out    []Result
	opt    Options
	tab    *seqTable

	shards  []mineShard
	tallies []workerTally
	interns []*seqInterner

	aborted atomic.Bool
	hydErr  atomic.Pointer[error]
	wg      sync.WaitGroup
}

// newMineEngine builds the shards for one pass: work lists the group
// indices to mine (nil = all of groups), distributed over `workers`
// shards by greedy lightest-shard assignment under groupWeight.
func newMineEngine(ctx context.Context, d *db.DB, groups []*db.ObsGroup, work []int32, out []Result, opt Options, tab *seqTable, workers int) *mineEngine {
	e := &mineEngine{
		ctx: ctx, d: d, groups: groups, out: out, opt: opt, tab: tab,
		shards:  make([]mineShard, workers),
		tallies: make([]workerTally, workers),
		interns: make([]*seqInterner, workers),
	}
	n := len(work)
	if work == nil {
		n = len(groups)
	}
	per := n/workers + 1
	loads := make([]float64, workers)
	for s := range e.shards {
		e.shards[s].items = make([]int32, 0, per)
	}
	assign := func(gi int32) {
		best := 0
		for s := 1; s < workers; s++ {
			if loads[s] < loads[best] {
				best = s
			}
		}
		e.shards[best].items = append(e.shards[best].items, gi)
		loads[best] += groupWeight(groups[gi])
	}
	if work == nil {
		for i := range groups {
			assign(int32(i))
		}
	} else {
		for _, gi := range work {
			assign(gi)
		}
	}
	return e
}

// claim returns the next group index for worker w: from its own shard
// while it lasts, then stolen from the other shards' unclaimed tails.
// ownDone is the worker's memo that its shard ran dry (so an exhausted
// cursor is not re-bumped on every later claim). A negative return
// means no work is left anywhere.
func (e *mineEngine) claim(w int, ownDone *bool) (gi int32, stole bool) {
	if !*ownDone {
		s := &e.shards[w]
		if p := s.pos.Add(1) - 1; p < int64(len(s.items)) {
			return s.items[p], false
		}
		*ownDone = true
	}
	for off := 1; off < len(e.shards); off++ {
		v := &e.shards[(w+off)%len(e.shards)]
		if p := v.pos.Add(1) - 1; p < int64(len(v.items)) {
			return v.items[p], true
		}
	}
	return -1, false
}

// run is one worker's pass: a miner from minerPool, held for the whole
// pass, so its trie arena and projection scratch carry over from
// earlier passes as on the one-worker path, and a private interner,
// claiming from its shard until the engine runs dry.
func (e *mineEngine) run(w int) {
	defer e.wg.Done()
	m := minerPool.Get().(*miner)
	defer minerPool.Put(m)
	var si *seqInterner
	if e.tab != nil {
		si = e.tab.interner()
		e.interns[w] = si
	}
	t := &e.tallies[w]
	ownDone := false
	for {
		if ctxCancelled(e.ctx) {
			e.aborted.Store(true)
			break
		}
		gi, stole := e.claim(w, &ownDone)
		if gi < 0 {
			break
		}
		g := e.groups[gi]
		if err := e.d.Hydrate(g); err != nil {
			e.fail(err)
			break
		}
		e.out[gi] = mineOne(m, si, g, e.opt)
		t.claims++
		if stole {
			t.steals++
		}
	}
	t.finish = time.Now()
}

// fail records the pass's first hydration error and stops the other
// workers. It takes err's address only here: taken in run's loop, the
// address would move err to the heap on every claimed group.
func (e *mineEngine) fail(err error) {
	e.hydErr.CompareAndSwap(nil, &err)
	e.aborted.Store(true)
}

// mineAll mines the groups selected by work (nil = all) into out,
// sequentially or through the work-stealing engine depending on
// opt.workers(). Results land at out[i] for each selected index i, so
// the output is element-for-element identical to a sequential pass
// regardless of worker count or steal interleaving. tab, when non-nil,
// receives the kept hypothesis sequences interned by the per-worker
// interners (merged single-threaded at the pass barrier).
func mineAll(ctx context.Context, d *db.DB, groups []*db.ObsGroup, work []int32, out []Result, opt Options, tab *seqTable) (mineStats, error) {
	n := len(work)
	if work == nil {
		n = len(groups)
	}
	workers := opt.workers()
	if workers > n {
		workers = n
	}
	var stats mineStats
	if workers <= 1 {
		stats.workers = 1
		m := minerPool.Get().(*miner)
		defer minerPool.Put(m)
		var si *seqInterner
		if tab != nil {
			si = tab.interner()
		}
		mine := func(gi int32) error {
			if ctxCancelled(ctx) {
				return ctx.Err()
			}
			if err := d.Hydrate(groups[gi]); err != nil {
				return err
			}
			out[gi] = mineOne(m, si, groups[gi], opt)
			stats.claims++
			return nil
		}
		if work == nil {
			for i := range groups {
				if err := mine(int32(i)); err != nil {
					return stats, err
				}
			}
		} else {
			for _, gi := range work {
				if err := mine(gi); err != nil {
					return stats, err
				}
			}
		}
		stats.merge = tab.merge([]*seqInterner{si}, opt.Metrics)
		opt.Metrics.pass(stats)
		return stats, nil
	}

	e := newMineEngine(ctx, d, groups, work, out, opt, tab, workers)
	e.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go e.run(w)
	}
	e.wg.Wait()
	if errp := e.hydErr.Load(); errp != nil {
		return stats, *errp
	}
	if e.aborted.Load() {
		return stats, e.ctx.Err()
	}
	stats.workers = workers
	var last time.Time
	for w := range e.tallies {
		if e.tallies[w].finish.After(last) {
			last = e.tallies[w].finish
		}
	}
	for w := range e.tallies {
		t := &e.tallies[w]
		stats.claims += t.claims
		stats.steals += t.steals
		idle := last.Sub(t.finish)
		stats.idle += idle
		opt.Metrics.workerIdle(idle)
	}
	stats.merge = tab.merge(e.interns, opt.Metrics)
	opt.Metrics.pass(stats)
	return stats, nil
}
