package workload

import (
	"fmt"

	"lockdoc/internal/blk"
	"lockdoc/internal/kernel"
	"lockdoc/internal/trace"
)

// A Genome is the fuzzer's unit of search: one fully deterministic
// workload configuration. Two identical genomes produce byte-identical
// traces — the scheduler seed is the only source of randomness.
type Genome struct {
	// Seed drives the scheduler (and thereby every Rand draw).
	Seed int64
	// Preempt is Options.PreemptEvery.
	Preempt int
	// Scale multiplies the iteration counts of the background threads
	// and macro benchmarks.
	Scale int
	// Threads is the number of micro-op worker tasks to spawn.
	Threads int
	// Budget is the number of weighted micro-op draws per worker.
	Budget int
	// Weights is parallel to FuzzOps(): for a macro op, >0 means the
	// benchmark is spawned with iteration multiplier Scale*weight; for a
	// micro op it is the relative probability of drawing it.
	Weights []int
}

// Genome clamp bounds. They keep mutated genomes inside a runtime
// envelope a test suite can afford. Scale is deliberately unbounded in
// Clamped (Run callers pick their own volume); the mutator stays within
// maxGenomeScale.
const (
	maxGenomeThreads = 6
	minGenomeBudget  = 16
	maxGenomeBudget  = 240
	maxGenomeScale   = 2
	maxGenomeWeight  = 4
)

// fuzzOp is one entry of the op-mix space. Exactly one of spawn/run is
// set: spawn is a macro benchmark (a whole task family), run is a micro
// op executed inline by worker tasks.
type fuzzOp struct {
	name  string
	spawn func(sys *System, n int)
	run   func(c *kernel.Context, sys *System, round int)
}

// fuzzOps enumerates the op-mix dimensions in a fixed, append-only
// order: the 8 macro benchmarks of the paper's mix, the 12 micro
// generators (microops.go), and 9 block-layer micro ops. Corpus files
// reference ops by name, so reordering is safe but renaming invalidates
// persisted genomes.
func fuzzOps() []fuzzOp {
	ops := []fuzzOp{
		{name: "mix-fs-bench", spawn: (*System).spawnFsBench},
		{name: "mix-fsstress", spawn: (*System).spawnFsstress},
		{name: "mix-fs-inod", spawn: (*System).spawnFsInod},
		{name: "mix-pipes", spawn: (*System).spawnPipeTest},
		{name: "mix-symlink", spawn: (*System).spawnSymlinkTest},
		{name: "mix-chmod", spawn: (*System).spawnChmodTest},
		{name: "mix-pseudo", spawn: (*System).spawnPseudoReaders},
		{name: "mix-devices", spawn: (*System).spawnDeviceTest},
	}
	for _, g := range generators() {
		ops = append(ops, fuzzOp{name: "cg-" + g.name, run: g.run})
	}
	ops = append(ops,
		fuzzOp{name: "blk-submit", run: blkSubmitOp},
		fuzzOp{name: "blk-pipeline", run: blkPipelineOp},
		fuzzOp{name: "blk-plug", run: blkPlugOp},
		fuzzOp{name: "blk-timeout", run: blkTimeoutOp},
		fuzzOp{name: "blk-stats", run: blkStatsOp},
		fuzzOp{name: "blk-elevator", run: blkElevatorOp},
		fuzzOp{name: "blk-sysfs", run: blkSysfsOp},
		fuzzOp{name: "blk-elv-switch", run: blkElvSwitchOp},
		fuzzOp{name: "blk-split", run: blkSplitOp},
	)
	return ops
}

// FuzzOpNames returns the op-mix dimension names in table order.
func FuzzOpNames() []string {
	ops := fuzzOps()
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = op.name
	}
	return names
}

// GenomeFromOptions is the baseline genome: the exact benchmark mix of
// Run — every macro benchmark at weight 1, no micro workers.
func GenomeFromOptions(opt Options) Genome {
	if opt.Scale <= 0 {
		opt.Scale = 1
	}
	weights := make([]int, len(fuzzOps()))
	for i, op := range fuzzOps() {
		if op.spawn != nil {
			weights[i] = 1
		}
	}
	return Genome{
		Seed: opt.Seed, Preempt: opt.PreemptEvery, Scale: opt.Scale,
		Threads: 0, Budget: minGenomeBudget, Weights: weights,
	}
}

// BaselineGenome is GenomeFromOptions(DefaultOptions()).
func BaselineGenome() Genome { return GenomeFromOptions(DefaultOptions()) }

// weight returns the clamped weight of op i (missing entries are 0).
func (g Genome) weight(i int) int {
	if i >= len(g.Weights) {
		return 0
	}
	w := g.Weights[i]
	if w < 0 {
		return 0
	}
	if w > maxGenomeWeight {
		return maxGenomeWeight
	}
	return w
}

// Clamped normalizes the genome into the runtime envelope: scale,
// thread count, budget and weights are bounded, and at least one op has
// a nonzero weight (a genome that does nothing scores nothing anyway,
// but it must still run deterministically).
func (g Genome) Clamped() Genome {
	out := g
	if out.Preempt < 0 {
		out.Preempt = 0
	}
	if out.Scale < 1 {
		out.Scale = 1
	}
	if out.Threads < 0 {
		out.Threads = 0
	}
	if out.Threads > maxGenomeThreads {
		out.Threads = maxGenomeThreads
	}
	if out.Budget < minGenomeBudget {
		out.Budget = minGenomeBudget
	}
	if out.Budget > maxGenomeBudget {
		out.Budget = maxGenomeBudget
	}
	n := len(fuzzOps())
	weights := make([]int, n)
	nonzero := false
	for i := range weights {
		weights[i] = g.weight(i)
		if weights[i] > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		weights[0] = 1
	}
	out.Weights = weights
	return out
}

// RunGenome boots a system and executes one genome: background threads,
// the macro benchmarks with nonzero weight, then Threads worker tasks
// each performing Budget weighted micro-op draws. The scheduler's RNG
// is the only randomness, so a genome is a deterministic program.
func RunGenome(w *trace.Writer, g Genome) (*System, error) {
	g = g.Clamped()
	sys := Boot(w, Options{Seed: g.Seed, Scale: g.Scale, PreemptEvery: g.Preempt})
	k := sys.K

	sys.startBackground(g.Scale)

	ops := fuzzOps()
	for i, op := range ops {
		if op.spawn != nil && g.weight(i) > 0 {
			op.spawn(sys, g.Scale*g.weight(i))
		}
	}

	// Micro workers: weighted draws over the micro portion of the mix.
	type weighted struct {
		op fuzzOp
		w  int
	}
	var micro []weighted
	total := 0
	for i, op := range ops {
		if op.run != nil && g.weight(i) > 0 {
			micro = append(micro, weighted{op, g.weight(i)})
			total += g.weight(i)
		}
	}
	if g.Threads > 0 && total > 0 {
		for t := 0; t < g.Threads; t++ {
			// Disjoint round ranges keep generated file names, inode
			// numbers and device numbers unique across workers.
			base := 100000 * (t + 1)
			k.Go(fmt.Sprintf("fuzz/%d", t), func(c *kernel.Context) {
				for i := 0; i < g.Budget; i++ {
					draw := k.Sched.Rand(total)
					for _, m := range micro {
						if draw < m.w {
							m.op.run(c, sys, base+i)
							break
						}
						draw -= m.w
					}
					c.Task().Sleep(uint64(10 + k.Sched.Rand(40)))
				}
			})
		}
	}

	k.Sched.Run()
	return sys.Shutdown()
}

// --- Block-layer micro ops -------------------------------------------

// blkSubmitOp pushes one bio through submit -> dispatch -> completion.
func blkSubmitOp(c *kernel.Context, sys *System, round int) {
	l, d := sys.B, sys.Disk
	l.SubmitBio(c, d, uint64(4096+(round%4)*4096))
	l.PeekRequest(c, d)
	l.CompleteRequest(c, d)
}

// blkPipelineOp keeps several requests in flight before completing.
func blkPipelineOp(c *kernel.Context, sys *System, round int) {
	l, d := sys.B, sys.Disk
	for i := 0; i < 3; i++ {
		l.SubmitBio(c, d, uint64(2048+i*1024))
	}
	for i := 0; i < 3; i++ {
		l.PeekRequest(c, d)
	}
	for l.CompleteRequest(c, d) {
	}
}

// blkPlugOp batches bios on a task-local plug before flushing. The
// SubmitBio between plugging and inspection closes the lock-free
// transaction, so PlugStats yields pure read observations.
func blkPlugOp(c *kernel.Context, sys *System, round int) {
	l, d := sys.B, sys.Disk
	p := l.StartPlug(c)
	for i := 0; i < 2+round%3; i++ {
		l.PlugBio(c, p, 4096)
	}
	l.SubmitBio(c, d, 2048)
	l.PlugStats(c, p)
	l.FinishPlug(c, d, p)
	l.PeekRequest(c, d)
	l.CompleteRequest(c, d)
}

// blkTimeoutOp exercises the timeout scan with a request in flight.
func blkTimeoutOp(c *kernel.Context, sys *System, round int) {
	l, d := sys.B, sys.Disk
	l.SubmitBio(c, d, 1024)
	l.PeekRequest(c, d)
	l.TimeoutScan(c, d)
	l.CompleteRequest(c, d)
}

// blkStatsOp reads the sysfs views and resizes the disk.
func blkStatsOp(c *kernel.Context, sys *System, round int) {
	l, d := sys.B, sys.Disk
	l.ReadStats(c, d)
	if round%4 == 0 {
		l.SetCapacity(c, d, uint64(1<<21+round))
	}
	if round%8 == 0 {
		flag := uint64(blk.QueueFlagSorted)
		if round%16 == 0 {
			flag = blk.QueueFlagPlugged
		}
		l.SetQueueFlag(c, d, flag)
	}
}

// blkElevatorOp submits sequential bios so the elevator back-merges,
// then drains the queue.
func blkElevatorOp(c *kernel.Context, sys *System, round int) {
	l, d := sys.B, sys.Disk
	for i := 0; i < 4; i++ {
		l.SubmitBio(c, d, 4096)
	}
	for l.PeekRequest(c, d) != nil {
	}
	for l.CompleteRequest(c, d) {
	}
}

// blkSysfsOp reads and tunes queue attributes through the sysfs
// handlers (queue_sysfs_lock nesting queue_lock / major_names_lock).
func blkSysfsOp(c *kernel.Context, sys *System, round int) {
	l, d := sys.B, sys.Disk
	l.SubmitBio(c, d, 4096) // keep a queued request for the show path
	l.SysfsShow(c, d)
	if round%3 == 0 {
		l.SysfsStore(c, d, uint64(64+round%128), uint64(round%4096))
	}
	l.PeekRequest(c, d)
	l.CompleteRequest(c, d)
}

// blkElvSwitchOp swaps the I/O scheduler with traffic in the queue.
func blkElvSwitchOp(c *kernel.Context, sys *System, round int) {
	l, d := sys.B, sys.Disk
	l.SubmitBio(c, d, 4096)
	l.ElvSwitch(c, d)
	l.PeekRequest(c, d)
	l.CompleteRequest(c, d)
}

// blkSplitOp submits an oversized bio that bio_split halves before
// queueing, then drains both halves.
func blkSplitOp(c *kernel.Context, sys *System, round int) {
	l, d := sys.B, sys.Disk
	l.SubmitSplit(c, d, uint64(16384+(round%4)*8192))
	for l.PeekRequest(c, d) != nil {
	}
	for l.CompleteRequest(c, d) {
	}
}
