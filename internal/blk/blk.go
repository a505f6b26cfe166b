// Package blk implements the simulated block layer (block/ in Linux):
// the single-queue request path of the pre-blk-mq kernel — request
// queue, elevator merging, plugging and bio completion — in the spirit
// of internal/fs and internal/jbd2. It exists to give the workload
// fuzzer genuinely new (member × lock-combination) territory that the
// fixed benchmark mix never touches.
//
// Ground-truth locking (mirroring block/blk-core.c and blkdev.h of the
// single-queue era):
//
//   - queue_lock (spinlock_t in request_queue) protects the queue's
//     dispatch state: queue_head, nr_sorted, in_flight, last_merge,
//     queue_flags — and, while a request sits on the queue, the
//     request's own fields (rq_state, rq_sector, rq_nr_sectors,
//     rq_deadline, rq_next, ...), the fields of its attached bio
//     (bi_status, bi_flags, bi_next), the elevator's dispatch state
//     (elevator_queue) and the partition I/O accounting fields of
//     hd_struct (stamp, p_in_flight),
//   - major_names_lock (global mutex of block/genhd.c) protects the
//     gendisk registration fields (capacity, gd_flags, ...) and the
//     partition table fields of hd_struct (start_sect, nr_sects, ...),
//   - queue_sysfs_lock (global mutex of block/blk-sysfs.c) serializes
//     sysfs attribute access and elevator switching; attribute
//     handlers nest queue_lock (and major_names_lock) inside it,
//   - blk_plug is strictly task-local: its members need no locks at
//     all, exactly like the real per-task plug list,
//   - a bio being assembled or split (bio_split) is caller-owned
//     staging state: its fields need no locks until the bio is queued.
//
// Like fs and jbd2 the code deviates deliberately; see bugs.go for the
// inventory the analysis pipeline has to rediscover.
package blk

import (
	"fmt"

	"lockdoc/internal/kernel"
	"lockdoc/internal/locks"
)

const (
	u32 = 4
	u64 = 8
)

// Request states (rq_state values).
const (
	RQQueued uint64 = iota
	RQStarted
	RQComplete
)

// Queue flags.
const (
	QueueFlagStopped = 1 << 0
	QueueFlagPlugged = 1 << 1
	QueueFlagSorted  = 1 << 2
)

// registerQueueType defines request_queue with 12 members, 2 filtered
// (the queue lock and the black-listed dispatch wait queue).
func registerQueueType(k *kernel.Kernel) *kernel.TypeInfo {
	return k.Register(kernel.NewType("request_queue").
		Field("queue_head", u64).
		Field("nr_sorted", u32).
		Field("in_flight", u32).
		Field("last_merge", u64).
		Field("queue_flags", u64).
		Field("nr_requests", u32).
		Field("boundary_sector", u64).
		Field("queue_depth", u32).
		Field("nr_congestion_on", u32).
		Lock("queue_lock", u32).   // filtered
		Field("queue_waitq", u64). // black-listed (wait queue)
		Field("disk", u64))
}

// registerRequestType defines request with 9 members, none filtered.
// Its protecting lock is the owning queue's queue_lock, so its rules
// surface as EO locks — like journal_head under the buffer bit lock.
func registerRequestType(k *kernel.Kernel) *kernel.TypeInfo {
	return k.Register(kernel.NewType("request").
		Field("rq_queue", u64).
		Field("rq_state", u32).
		Field("rq_sector", u64).
		Field("rq_nr_sectors", u32).
		Field("rq_flags", u64).
		Field("rq_deadline", u64).
		Field("rq_errors", u32).
		Field("rq_next", u64).
		Field("rq_bio", u64))
}

// registerBioType defines bio with 6 members, none filtered. While a
// bio is attached to a queued request, its fields are protected by the
// owning queue's queue_lock (EO).
func registerBioType(k *kernel.Kernel) *kernel.TypeInfo {
	return k.Register(kernel.NewType("bio").
		Field("bi_next", u64).
		Field("bi_sector", u64).
		Field("bi_size", u32).
		Field("bi_flags", u32).
		Field("bi_status", u32).
		Field("bi_vcnt", u32))
}

// registerGendiskType defines gendisk with 5 members; registration
// fields are protected by the global major_names_lock.
func registerGendiskType(k *kernel.Kernel) *kernel.TypeInfo {
	return k.Register(kernel.NewType("gendisk").
		Field("major", u32).
		Field("first_minor", u32).
		Field("minors", u32).
		Field("capacity", u64).
		Field("gd_flags", u32))
}

// registerPlugType defines blk_plug with 3 members — the task-local
// plug list whose rule is "no locks".
func registerPlugType(k *kernel.Kernel) *kernel.TypeInfo {
	return k.Register(kernel.NewType("blk_plug").
		Field("plug_list", u64).
		Field("plug_count", u32).
		Field("plug_should_sort", u32))
}

// registerElevatorType defines elevator_queue with 5 members. The
// dispatch fields are protected by the owning queue's queue_lock (EO);
// registration state additionally sits under queue_sysfs_lock.
func registerElevatorType(k *kernel.Kernel) *kernel.TypeInfo {
	return k.Register(kernel.NewType("elevator_queue").
		Field("elv_count", u32).
		Field("elv_hash", u64).
		Field("elv_last_sector", u64).
		Field("elv_registered", u32).
		Field("elv_priv", u64))
}

// registerPartType defines hd_struct with 6 members. The partition
// table fields are protected by major_names_lock; the per-partition
// I/O accounting fields by the owning queue's queue_lock.
func registerPartType(k *kernel.Kernel) *kernel.TypeInfo {
	return k.Register(kernel.NewType("hd_struct").
		Field("start_sect", u64).
		Field("nr_sects", u64).
		Field("partno", u32).
		Field("p_flags", u32).
		Field("stamp", u64).
		Field("p_in_flight", u32))
}

// Types bundles the block-layer data types.
type Types struct {
	Queue    *kernel.TypeInfo
	Request  *kernel.TypeInfo
	Bio      *kernel.TypeInfo
	Gendisk  *kernel.TypeInfo
	Plug     *kernel.TypeInfo
	Elevator *kernel.TypeInfo
	Part     *kernel.TypeInfo
}

// RegisterTypes registers request_queue, request, bio, gendisk,
// blk_plug, elevator_queue and hd_struct.
func RegisterTypes(k *kernel.Kernel) *Types {
	return &Types{
		Queue:    registerQueueType(k),
		Request:  registerRequestType(k),
		Bio:      registerBioType(k),
		Gendisk:  registerGendiskType(k),
		Plug:     registerPlugType(k),
		Elevator: registerElevatorType(k),
		Part:     registerPartType(k),
	}
}

// MemberBlacklist returns the blk part of the member black list: the
// dispatch wait queue of request_queue is out of scope (Sec. 5.3).
func MemberBlacklist() map[string][]string {
	return map[string][]string{
		"request_queue": {"queue_waitq"},
	}
}

// FuncBlacklist returns the blk function names whose dynamic extent is
// filtered during import: initialization and teardown.
func FuncBlacklist() []string {
	return []string{
		"blk_alloc_queue", "blk_cleanup_queue", "blk_rq_init",
		"__blk_put_request", "bio_alloc", "bio_free",
		"alloc_disk", "add_disk", "del_gendisk",
		"elevator_init", "elevator_exit",
		"add_partition", "delete_partition",
	}
}

// funcDef is one entry of the simulated block/ source corpus.
type funcDef struct {
	file  string
	line  uint32
	name  string
	lines uint32
}

// registerFuncs registers every simulated block-layer function, hot and
// cold. Cold functions (integrity, freezing, splitting) are registered
// but never called, keeping the coverage report realistic.
func registerFuncs(k *kernel.Kernel) map[string]*kernel.FuncInfo {
	defs := []funcDef{
		// block/blk-core.c — the request path.
		{"block/blk-core.c", 90, "blk_alloc_queue", 40},
		{"block/blk-core.c", 160, "blk_cleanup_queue", 35},
		{"block/blk-core.c", 230, "blk_rq_init", 20},
		{"block/blk-core.c", 280, "blk_queue_flag_set", 10},
		{"block/blk-core.c", 340, "submit_bio", 25},
		{"block/blk-core.c", 400, "generic_make_request", 35},
		{"block/blk-core.c", 470, "blk_queue_bio", 60},
		{"block/blk-core.c", 560, "blk_peek_request", 45},
		{"block/blk-core.c", 630, "blk_start_request", 30},
		{"block/blk-core.c", 690, "blk_update_request", 50},
		{"block/blk-core.c", 770, "__blk_complete_request", 40},
		{"block/blk-core.c", 830, "blk_account_io_done", 25},
		{"block/blk-core.c", 880, "blk_put_request", 15},
		{"block/blk-core.c", 910, "__blk_put_request", 20},
		{"block/blk-core.c", 950, "blk_start_plug", 15},
		{"block/blk-core.c", 980, "blk_flush_plug_list", 45},
		{"block/blk-core.c", 1050, "blk_finish_plug", 10},
		// block/blk-core.c — accounting and plug inspection.
		{"block/blk-core.c", 1080, "part_round_stats", 20},
		{"block/blk-core.c", 1120, "blk_check_plugged", 15},
		// block/elevator.c — the I/O scheduler.
		{"block/elevator.c", 60, "elevator_init", 30},
		{"block/elevator.c", 120, "elv_merge", 40},
		{"block/elevator.c", 190, "__elv_add_request", 35},
		{"block/elevator.c", 250, "elv_completed_request", 20}, // cold
		{"block/elevator.c", 300, "elv_iosched_switch", 50},
		{"block/elevator.c", 370, "elevator_exit", 15},
		// block/blk-merge.c — merging and splitting.
		{"block/blk-merge.c", 80, "blk_attempt_plug_merge", 30},
		{"block/blk-merge.c", 140, "bio_attempt_back_merge", 25},
		{"block/blk-merge.c", 200, "bio_split", 45},
		// block/blk-timeout.c — request timeouts.
		{"block/blk-timeout.c", 40, "blk_rq_timed_out_timer", 35},
		{"block/blk-timeout.c", 100, "blk_add_timer", 15}, // cold
		// block/bio.c — bio lifecycle.
		{"block/bio.c", 60, "bio_alloc", 25},
		{"block/bio.c", 110, "bio_free", 15},
		{"block/bio.c", 150, "bio_endio", 20},
		// block/blk-sysfs.c — sysfs attributes and elevator switching.
		{"block/blk-sysfs.c", 70, "queue_stats_show", 25},
		{"block/blk-sysfs.c", 120, "queue_attr_show", 45},
		{"block/blk-sysfs.c", 190, "queue_attr_store", 30},
		// block/genhd.c — gendisk registration and partitions.
		{"block/genhd.c", 100, "alloc_disk", 25},
		{"block/genhd.c", 160, "add_disk", 30},
		{"block/genhd.c", 220, "del_gendisk", 25},
		{"block/genhd.c", 270, "set_capacity", 10},
		{"block/genhd.c", 300, "disk_stats_show", 20},
		{"block/genhd.c", 340, "add_partition", 25},
		{"block/genhd.c", 390, "delete_partition", 15},
		// Cold paths never exercised by any workload.
		{"block/blk-integrity.c", 50, "blk_integrity_register", 40},
		{"block/blk-mq-sched.c", 80, "blk_freeze_queue", 30},
	}
	funcs := make(map[string]*kernel.FuncInfo, len(defs))
	for _, d := range defs {
		funcs[d.name] = k.Func(d.file, d.line, d.name, d.lines)
	}
	return funcs
}

// Layer is the simulated block layer: global locks, the registered
// function corpus and the live disks.
type Layer struct {
	K *kernel.Kernel
	D *locks.Domain
	T *Types

	// MajorNames is block/genhd.c's global major_names_lock.
	MajorNames *locks.Mutex
	// Sysfs is block/blk-sysfs.c's global queue_sysfs_lock. Attribute
	// handlers nest queue_lock (and major_names_lock) inside it; the
	// reverse nesting never occurs.
	Sysfs *locks.Mutex

	funcs map[string]*kernel.FuncInfo
	disks []*Disk
}

// New wires up the block layer: types, the global locks and the
// function corpus. Disks are added separately with AddDisk.
func New(k *kernel.Kernel, d *locks.Domain) *Layer {
	l := &Layer{K: k, D: d, T: RegisterTypes(k)}
	l.MajorNames = d.Mutex("major_names_lock")
	l.Sysfs = d.Mutex("queue_sysfs_lock")
	l.funcs = registerFuncs(k)
	return l
}

// fn returns a registered function; unknown names are programming
// errors in the simulated kernel.
func (l *Layer) fn(name string) *kernel.FuncInfo {
	fi, ok := l.funcs[name]
	if !ok {
		panic(fmt.Sprintf("blk: unregistered function %q", name))
	}
	return fi
}

// call enters fn and returns the matching exit thunk:
//
//	defer l.call(c, "blk_queue_bio")()
func (l *Layer) call(c *kernel.Context, name string) func() {
	fi := l.fn(name)
	c.Enter(fi)
	return func() { c.Exit(fi) }
}
