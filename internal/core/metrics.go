package core

import (
	"time"

	"lockdoc/internal/db"
	"lockdoc/internal/obs"
)

// Metrics is the derivation-stage instrument set: per-group mine
// latency, trie arena size and delta-derivation reuse accounting.
// Attach one via Options.Metrics; a nil *Metrics keeps every hook a
// no-op, and mineOne skips even the clock reads, so an uninstrumented
// derivation pays a single pointer comparison per group.
type Metrics struct {
	GroupsMined  *obs.Counter
	MineSeconds  *obs.Histogram
	TrieNodes    *obs.Histogram
	DeltaReused  *obs.Counter
	DeltaRemined *obs.Counter
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
	}
}

func (m *Metrics) delta(stats DeltaStats) {
	if m == nil {
		return
	}
	m.DeltaReused.Add(uint64(stats.Reused))
	m.DeltaRemined.Add(uint64(stats.Remined))
}

// mineOne runs one group through the given miner, stamping the
// per-group latency and trie-node instruments when Options carries
// Metrics. The arena length is read after derive and before the next
// reset, which is exactly the node count the group's trie needed (0
// for groups that fell back to the reference enumerator, whose cost
// the latency histogram still captures). The result owns its memory:
// nothing in it aliases the miner, which the next group reuses.
func mineOne(m *miner, g *db.ObsGroup, opt Options) Result {
	met := opt.Metrics
	if met == nil {
		return m.derive(g, opt)
	}
	start := time.Now()
	res := m.derive(g, opt)
	met.GroupsMined.Inc()
	met.MineSeconds.ObserveSince(start)
	met.TrieNodes.Observe(float64(len(m.nodes)))
	return res
}
