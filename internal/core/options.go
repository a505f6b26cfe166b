package core

import (
	"runtime"
	"strconv"
)

// Options configures derivation.
type Options struct {
	// AcceptThreshold is t_ac: hypotheses with Sr >= AcceptThreshold are
	// considered plausible rules. Defaults to DefaultAcceptThreshold.
	AcceptThreshold float64
	// CutoffThreshold is t_co: hypotheses below it are omitted from the
	// report (they still never win). Zero keeps everything.
	CutoffThreshold float64
	// MaxLocks caps the hypothesis length; observed combinations longer
	// than this only contribute their subsets up to the cap. Zero means
	// no cap. The paper's combinations are short (<= 5 locks); the cap
	// guards against factorial blow-up on pathological traces.
	MaxLocks int
	// Naive switches winner selection to the naive highest-support
	// strategy (the strawman discussed in Sec. 4.3); used for the
	// ablation benchmark.
	Naive bool
	// Parallelism is the worker count used by DeriveAll and the delta
	// deriver. Zero means GOMAXPROCS; 1 forces the sequential path. It
	// never affects results, only wall-clock time, and is therefore
	// excluded from Key().
	Parallelism int
	// Metrics, when non-nil, receives per-group mine latency and trie
	// arena instrument updates (see Metrics). Like Parallelism it never
	// affects results and is excluded from Key().
	Metrics *Metrics
}

func (o Options) accept() float64 {
	if o.AcceptThreshold == 0 {
		return DefaultAcceptThreshold
	}
	return o.AcceptThreshold
}

// Floor is the prune floor of a derivation: min(t_ac, t_co) when a
// reporting cut-off is set, else 0. A hypothesis below it can neither
// win nor be reported, and neither can any extension of it, so the
// miner skips those subtrees. A table mined at floor p therefore holds
// every hypothesis that a selection with Floor() >= p can win or keep.
func (o Options) Floor() float64 {
	if o.CutoffThreshold <= 0 {
		return 0
	}
	return min(o.accept(), o.CutoffThreshold)
}

func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Key returns the canonical representation of the options that can
// influence derivation results. Two Options values with equal keys
// produce identical Results on the same store, so the key is safe as a
// cache or comparison handle where ad-hoc struct equality is not:
// the zero AcceptThreshold and the explicit default compare equal, and
// the performance-only Parallelism field is excluded.
func (o Options) Key() string {
	b := make([]byte, 0, 48)
	b = append(b, "tac="...)
	b = strconv.AppendFloat(b, o.accept(), 'g', -1, 64)
	b = append(b, "|tco="...)
	b = strconv.AppendFloat(b, o.CutoffThreshold, 'g', -1, 64)
	b = append(b, "|max="...)
	b = strconv.AppendInt(b, int64(o.MaxLocks), 10)
	b = append(b, "|naive="...)
	b = strconv.AppendBool(b, o.Naive)
	return string(b)
}
