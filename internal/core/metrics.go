package core

import (
	"time"

	"lockdoc/internal/db"
	"lockdoc/internal/obs"
)

// Metrics is the derivation-stage instrument set: per-group mine
// latency, trie arena size, delta-derivation reuse accounting, and the
// work-stealing engine's per-pass worker accounting (claims, steals,
// idle tail, interner merge). Attach one via Options.Metrics; a nil
// *Metrics keeps every hook a no-op, and mineOne skips even the clock
// reads, so an uninstrumented derivation pays a single pointer
// comparison per group.
type Metrics struct {
	GroupsMined  *obs.Counter
	MineSeconds  *obs.Histogram
	TrieNodes    *obs.Histogram
	DeltaReused  *obs.Counter
	DeltaRemined *obs.Counter

	// Work-stealing engine (one sample set per parallel pass).
	WorkerClaims *obs.Counter   // groups claimed across all workers
	WorkerSteals *obs.Counter   // groups claimed from another worker's shard
	WorkerIdle   *obs.Histogram // per-worker idle tail at the pass barrier
	InternMerge  *obs.Histogram // interner merge time at the pass barrier
	StealRatio   *obs.Histogram // steals/claims per pass (imbalance signal)
}

// NewMetrics registers the core instrument set on reg (nil reg, nil
// metrics).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		GroupsMined: reg.Counter("lockdoc_core_groups_mined_total", "observation groups mined"),
		MineSeconds: reg.Histogram("lockdoc_core_mine_seconds", "per-group mine latency", nil),
		TrieNodes: reg.Histogram("lockdoc_core_trie_nodes", "trie arena nodes per mined group",
			[]float64{1, 10, 100, 1000, 10000, 100000}),
		DeltaReused:  reg.Counter("lockdoc_core_delta_reused_total", "groups answered from the delta cache"),
		DeltaRemined: reg.Counter("lockdoc_core_delta_remined_total", "dirty groups the delta deriver re-mined"),

		WorkerClaims: reg.Counter("lockdoc_core_worker_claims_total", "groups claimed by derivation workers"),
		WorkerSteals: reg.Counter("lockdoc_core_worker_steals_total", "groups stolen from another worker's shard"),
		WorkerIdle:   reg.Histogram("lockdoc_core_worker_idle_seconds", "per-worker idle tail at the pass barrier", nil),
		InternMerge:  reg.Histogram("lockdoc_core_intern_merge_seconds", "per-pass interner merge time", nil),
		StealRatio: reg.Histogram("lockdoc_core_steal_ratio", "stolen fraction of claims per parallel pass",
			[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 1}),
	}
}

func (m *Metrics) delta(stats DeltaStats) {
	if m == nil {
		return
	}
	m.DeltaReused.Add(uint64(stats.Reused))
	m.DeltaRemined.Add(uint64(stats.Remined))
}

// pass records one engine pass's aggregate worker accounting.
func (m *Metrics) pass(stats mineStats) {
	if m == nil {
		return
	}
	m.WorkerClaims.Add(stats.claims)
	m.WorkerSteals.Add(stats.steals)
	if stats.claims > 0 && stats.workers > 1 {
		m.StealRatio.Observe(float64(stats.steals) / float64(stats.claims))
	}
}

// workerIdle records one worker's idle tail at the pass barrier.
func (m *Metrics) workerIdle(d time.Duration) {
	if m == nil {
		return
	}
	m.WorkerIdle.Observe(d.Seconds())
}

// internMerge records one pass's interner merge time.
func (m *Metrics) internMerge(d time.Duration) {
	if m == nil {
		return
	}
	m.InternMerge.Observe(d.Seconds())
}

// mineOne runs one group through the given miner, stamping the
// per-group latency and trie-node instruments when Options carries
// Metrics. The arena length is read after derive and before the next
// reset, which is exactly the node count the group's trie needed (0
// for groups that fell back to the reference enumerator, whose cost
// the latency histogram still captures).
//
// si, when non-nil, activates scratch materialization: the candidate
// set lands in the miner's reused buffers and only the hypotheses that
// survive the cut-off are copied out, deduplicated through the
// interner. Value-wise the result is identical either way.
func mineOne(m *miner, si *seqInterner, g *db.ObsGroup, opt Options) Result {
	m.scratch = si != nil
	met := opt.Metrics
	if met == nil {
		return internResult(m, si, m.derive(g, opt))
	}
	start := time.Now()
	res := internResult(m, si, m.derive(g, opt))
	met.GroupsMined.Inc()
	met.MineSeconds.ObserveSince(start)
	met.TrieNodes.Observe(float64(len(m.nodes)))
	return res
}

// internResult copies a scratch-aliasing result out of the miner's
// reused buffers, interning the kept sequences. Results that own their
// memory (no scratch materialization) pass through untouched.
func internResult(m *miner, si *seqInterner, res Result) Result {
	if !m.usedScratch {
		return res
	}
	wi := -1
	if res.Winner != nil {
		for i := range res.Hypotheses {
			if res.Winner == &res.Hypotheses[i] {
				wi = i
				break
			}
		}
	}
	owned := make([]Hypothesis, len(res.Hypotheses))
	copy(owned, res.Hypotheses)
	for i := range owned {
		owned[i].Seq = si.intern(owned[i].Seq)
	}
	res.Hypotheses = owned
	if wi >= 0 {
		res.Winner = &owned[wi]
	}
	return res
}
