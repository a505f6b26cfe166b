// Package workload drives the simulated kernel with the paper's
// benchmark mix (Sec. 7.1): a subset of the Linux Test Project
// (fs-bench-test2, fsstress, fs_inod) plus custom tests using pipes,
// symbolic links and permission changes — "a custom mix of benchmarks
// with the intention of emitting a wide variety of different system
// calls".
package workload

import (
	"fmt"

	"lockdoc/internal/blk"
	"lockdoc/internal/fs"
	"lockdoc/internal/kernel"
	"lockdoc/internal/locks"
	"lockdoc/internal/sched"
	"lockdoc/internal/trace"
)

// Options configures a traced benchmark run.
type Options struct {
	// Seed fully determines the run (scheduling, irq timing, fsstress
	// choices).
	Seed int64
	// Scale multiplies the iteration counts of every benchmark; 1 is a
	// quick run (hundreds of thousands of events), 10 approaches the
	// event volume of the paper's setup.
	Scale int
	// PreemptEvery is the mean tick distance between involuntary
	// preemptions (0 disables preemption).
	PreemptEvery int
}

// DefaultOptions mirror the evaluation setup at small scale.
func DefaultOptions() Options {
	return Options{Seed: 42, Scale: 1, PreemptEvery: 97}
}

// System is a booted simulated kernel with its mounted filesystems and
// the block layer.
type System struct {
	K *kernel.Kernel
	D *locks.Domain
	F *fs.FS
	B *blk.Layer

	// Disk is the block device the blk workload ops target.
	Disk *blk.Disk

	Ext4     *fs.SuperBlock
	Tmpfs    *fs.SuperBlock
	Rootfs   *fs.SuperBlock
	Devtmpfs *fs.SuperBlock
	Proc     *fs.SuperBlock
	Sysfs    *fs.SuperBlock
	Debugfs  *fs.SuperBlock
	Pipefs   *fs.SuperBlock
	Sockfs   *fs.SuperBlock
	Anonfs   *fs.SuperBlock
	Bdevfs   *fs.SuperBlock

	wbTimerLock *locks.SpinLock
	halted      bool // set before unmount; interrupt sources go quiet
}

// Boot creates the kernel, the lock domain and the VFS, and mounts the
// eleven filesystems of the evaluation inside a boot task.
func Boot(w *trace.Writer, opt Options) *System {
	s := sched.New(opt.Seed, opt.PreemptEvery)
	k := kernel.New(s, w)
	d := locks.NewDomain(k)
	s.DeadlockInfo = d.DescribeHeld
	f := fs.New(k, d)
	sys := &System{K: k, D: d, F: f, B: blk.New(k, d)}
	sys.wbTimerLock = d.Spin("wb_timer_lock")

	k.Go("swapper/0", func(c *kernel.Context) {
		sys.Disk = sys.B.AddDisk(c, 128)
		sys.Ext4 = f.Mount(c, "ext4", fs.Behavior{Journaled: true})
		sys.Tmpfs = f.Mount(c, "tmpfs", fs.Behavior{})
		sys.Rootfs = f.Mount(c, "rootfs", fs.Behavior{})
		sys.Devtmpfs = f.Mount(c, "devtmpfs", fs.Behavior{SloppyTimes: true})
		sys.Proc = f.Mount(c, "proc", fs.Behavior{Pseudo: true})
		sys.Sysfs = f.Mount(c, "sysfs", fs.Behavior{Pseudo: true})
		sys.Debugfs = f.Mount(c, "debugfs", fs.Behavior{Pseudo: true})
		sys.Pipefs = f.Mount(c, "pipefs", fs.Behavior{})
		sys.Sockfs = f.Mount(c, "sockfs", fs.Behavior{Pseudo: true})
		sys.Anonfs = f.Mount(c, "anon_inodefs", fs.Behavior{Pseudo: true})
		sys.Bdevfs = f.Mount(c, "bdev", fs.Behavior{})
	})
	s.Run() // complete boot before workloads spawn
	return sys
}

// Run executes the full benchmark mix and shuts the system down.
// It returns the kernel for stats/coverage inspection. It is the
// baseline genome of the workload fuzzer: Run(w, opt) and
// RunGenome(w, GenomeFromOptions(opt)) are the same run.
func Run(w *trace.Writer, opt Options) (*System, error) {
	return RunGenome(w, GenomeFromOptions(opt))
}

// startBackground spawns the always-on kernel threads every run has:
// the timer interrupt, the jbd2 commit thread and the flusher.
func (sys *System) startBackground(n int) {
	k, f := sys.K, sys.F

	// Timer interrupt: fires in hardirq context and pokes the writeback
	// timer under wb_timer_lock (tasks take it with the _irq flavor).
	k.RegisterIRQ(trace.CtxHardIRQ, "timer", 701, func(c *kernel.Context) {
		if sys.halted {
			return
		}
		done := sys.D.EnterIRQ(c)
		defer done()
		sys.wbTimerLock.Lock(c)
		bdi := sys.Ext4.Bdi
		bdi.Obj.Store(c, bdi.Obj.Typ.MemberIndex("laptop_mode_wb_timer"), k.Sched.Now())
		sys.wbTimerLock.Unlock(c)
	})

	// kjournald: the jbd2 commit thread.
	k.Go("jbd2/sda-8", func(c *kernel.Context) {
		for i := 0; i < 40*n; i++ {
			c.Task().Sleep(400)
			j := sys.Ext4.Journal
			if j == nil {
				break
			}
			if j.NeedsCommit(c) || (j.Running != nil && k.Sched.Rand(3) == 0) {
				j.Commit(c)
			}
			if i%8 == 7 {
				j.DoCheckpoint(c)
			}
		}
	})

	// Flusher thread: periodic writeback, journal flushing without any
	// inode rwsem held, and icache pruning.
	k.Go("kworker/u2:0", func(c *kernel.Context) {
		for i := 0; i < 30*n; i++ {
			c.Task().Sleep(500)
			sys.wbTimerLock.LockIRQ(c)
			bdi := sys.Ext4.Bdi
			bdi.Obj.Store(c, bdi.Obj.Typ.MemberIndex("wb.last_old_flush"), k.Sched.Now())
			sys.wbTimerLock.UnlockIRQ(c)
			f.WbOverThresh(c, bdi)
			f.WbWorkFn(c)
			f.JournalFlush(c, sys.Ext4, 2)
			if i%5 == 4 {
				f.PruneIcache(c, sys.Ext4, 8)
				f.PruneIcache(c, sys.Tmpfs, 8)
			}
		}
	})
}

// Shutdown quiesces interrupt sources, unmounts every filesystem,
// drops block devices, tears down the block layer and finalizes the
// trace. Every run path (benchmark mix, clock example, genome) ends
// here.
func (sys *System) Shutdown() (*System, error) {
	k, f := sys.K, sys.F
	sys.halted = true
	k.Go("shutdown", func(c *kernel.Context) {
		for _, sb := range append([]*fs.SuperBlock(nil), f.Supers()...) {
			f.Unmount(c, sb)
		}
		f.DropAllBlockDevices(c)
		sys.B.Teardown(c)
	})
	k.Sched.Run()
	if err := k.Err(); err != nil {
		return sys, fmt.Errorf("workload: trace error: %w", err)
	}
	return sys, k.Finish()
}

// spawnFsBench models LTP fs-bench-test2: create a tree of files,
// change owner/permissions, access them randomly, delete.
func (sys *System) spawnFsBench(n int) {
	k, f := sys.K, sys.F
	for task := 0; task < 2; task++ {
		sb := sys.Ext4
		if task == 1 {
			sb = sys.Tmpfs
		}
		name := fmt.Sprintf("fs-bench-%d", task)
		k.Go(name, func(c *kernel.Context) {
			dir := f.Mkdir(c, sb.Root, "bench-"+name)
			var files []*fs.Dentry
			for i := 0; i < 30*n; i++ {
				fd := f.Create(c, dir, fmt.Sprintf("f%03d", i), 0o644)
				f.Write(c, fd, uint64(512+k.Sched.Rand(4096)))
				files = append(files, fd)
			}
			for pass := 0; pass < 4; pass++ {
				for i, fd := range files {
					switch (i + pass) % 5 {
					case 0:
						f.Chmod(c, fd, 0o600)
					case 1:
						f.Ext4Setattr(c, fd, uint64(1000+i), 1000)
					case 2:
						f.Read(c, fd)
					case 3:
						f.Write(c, fd, uint64(256+k.Sched.Rand(1024)))
					case 4:
						f.Stat(c, fd)
					}
				}
			}
			for _, fd := range files {
				f.Unlink(c, dir, fd)
			}
			f.Rmdir(c, sb.Root, dir)
		})
	}
}

// spawnFsstress models LTP fsstress: random I/O operations on a
// directory tree.
func (sys *System) spawnFsstress(n int) {
	k, f := sys.K, sys.F
	for task := 0; task < 3; task++ {
		name := fmt.Sprintf("fsstress-%d", task)
		sb := sys.Ext4
		k.Go(name, func(c *kernel.Context) {
			root := f.Mkdir(c, sb.Root, "stress-"+name)
			dirs := []*fs.Dentry{root}
			var files []*fs.Dentry
			seq := 0
			for op := 0; op < 150*n; op++ {
				dir := dirs[k.Sched.Rand(len(dirs))]
				switch k.Sched.Rand(12) {
				case 0, 1:
					seq++
					files = append(files, f.Create(c, dir, fmt.Sprintf("s%05d", seq), 0o644))
				case 2:
					if len(files) > 0 {
						f.Write(c, files[k.Sched.Rand(len(files))], uint64(128+k.Sched.Rand(8192)))
					}
				case 3:
					if len(files) > 0 {
						f.Read(c, files[k.Sched.Rand(len(files))])
					}
				case 4:
					if len(files) > 0 {
						f.Truncate(c, files[k.Sched.Rand(len(files))], uint64(k.Sched.Rand(2048)))
					}
				case 5:
					if len(dirs) < 10 {
						seq++
						dirs = append(dirs, f.Mkdir(c, dir, fmt.Sprintf("d%05d", seq)))
					}
				case 6:
					if len(files) > 0 {
						i := k.Sched.Rand(len(files))
						fd := files[i]
						if fd.Parent != nil {
							seq++
							f.Rename(c, fd.Parent, fd, dir, fmt.Sprintf("r%05d", seq))
						}
					}
				case 7:
					f.Readdir(c, dir)
				case 8:
					if len(files) > 0 {
						fd := files[k.Sched.Rand(len(files))]
						f.Stat(c, fd)
						f.Open(c, fd)
					} else {
						f.Statfs(c, sb)
					}
				case 9:
					if len(files) > 1 {
						i := k.Sched.Rand(len(files))
						fd := files[i]
						files = append(files[:i], files[i+1:]...)
						f.Unlink(c, fd.Parent, fd)
					}
				case 10:
					if len(files) > 0 {
						f.Fsync(c, files[k.Sched.Rand(len(files))])
					}
				case 11:
					if len(files) > 0 {
						target := files[k.Sched.Rand(len(files))]
						seq++
						files = append(files, f.Link(c, target, dir, fmt.Sprintf("l%05d", seq)))
					}
				}
			}
			// Cleanup files (directories are shut down at unmount).
			for _, fd := range files {
				if fd.Inode != nil && fd.Parent != nil {
					f.Unlink(c, fd.Parent, fd)
				}
			}
		})
	}
}

// spawnFsInod models LTP fs_inod: rapid inode allocation/deallocation,
// plus icache lookups through iget/iput.
func (sys *System) spawnFsInod(n int) {
	k, f := sys.K, sys.F
	for task := 0; task < 2; task++ {
		name := fmt.Sprintf("fs-inod-%d", task)
		sb := sys.Ext4
		if task == 1 {
			sb = sys.Rootfs
		}
		k.Go(name, func(c *kernel.Context) {
			dir := f.Mkdir(c, sb.Root, "inod-"+name)
			for i := 0; i < 60*n; i++ {
				fd := f.Create(c, dir, fmt.Sprintf("i%04d", i), 0o644)
				if k.Sched.Rand(3) == 0 {
					f.Write(c, fd, 64)
				}
				f.Unlink(c, dir, fd)
				// Exercise the hash: lookups of stable inode numbers.
				in := f.IgetLocked(c, sb, uint64(1000+i%13))
				f.Ext4JournalCommitWork(c, in)
				f.Iput(c, in)
			}
			f.Rmdir(c, sb.Root, dir)
		})
	}
}

// spawnPipeTest wires reader/writer pairs through pipefs.
func (sys *System) spawnPipeTest(n int) {
	k, f := sys.K, sys.F
	for pair := 0; pair < 2; pair++ {
		pair := pair
		k.Go(fmt.Sprintf("pipe-setup-%d", pair), func(c *kernel.Context) {
			in := f.CreatePipe(c, sys.Pipefs)
			p := in.Pipe
			items := 40 * n
			k.Go(fmt.Sprintf("pipe-writer-%d", pair), func(c *kernel.Context) {
				for i := 0; i < items; i++ {
					f.PipeWrite(c, p, 1+k.Sched.Rand(4))
					if k.Sched.Rand(4) == 0 {
						f.PipePoll(c, p)
					}
					c.Tick(3)
				}
				f.PipeReleaseEnd(c, p, true)
			})
			k.Go(fmt.Sprintf("pipe-reader-%d", pair), func(c *kernel.Context) {
				total := 0
				for {
					got := f.PipeRead(c, p, 2)
					total += got
					if got == 0 {
						break
					}
					c.Tick(2)
				}
				f.PipeReleaseEnd(c, p, false)
				f.Iput(c, in)
			})
		})
	}
}

// spawnSymlinkTest creates, reads and removes symbolic links.
func (sys *System) spawnSymlinkTest(n int) {
	k, f := sys.K, sys.F
	k.Go("symlink-test", func(c *kernel.Context) {
		dir := f.Mkdir(c, sys.Rootfs.Root, "symlinks")
		for i := 0; i < 40*n; i++ {
			target := f.Create(c, dir, fmt.Sprintf("t%04d", i), 0o644)
			link := f.Symlink(c, dir, fmt.Sprintf("ln%04d", i), "t"+fmt.Sprint(i))
			f.Readlink(c, link)
			if found := f.Lookup(c, dir, link.Name); found != nil {
				f.Stat(c, found)
				f.DPut(c, found)
			}
			f.Unlink(c, dir, link)
			f.Unlink(c, dir, target)
		}
		f.Rmdir(c, sys.Rootfs.Root, dir)
	})
}

// spawnChmodTest changes permissions and ownership in a loop, half on
// ext4 (full setattr) and half on devtmpfs (the sloppy path).
func (sys *System) spawnChmodTest(n int) {
	k, f := sys.K, sys.F
	k.Go("chmod-test", func(c *kernel.Context) {
		dirE := f.Mkdir(c, sys.Ext4.Root, "chmod-e")
		dirD := f.Mkdir(c, sys.Devtmpfs.Root, "chmod-d")
		var es, ds []*fs.Dentry
		for i := 0; i < 10*n; i++ {
			es = append(es, f.Create(c, dirE, fmt.Sprintf("e%03d", i), 0o644))
			ds = append(ds, f.Create(c, dirD, fmt.Sprintf("d%03d", i), 0o644))
		}
		for pass := 0; pass < 6; pass++ {
			for i := range es {
				f.Chmod(c, es[i], uint64(0o600+pass))
				f.Chown(c, ds[i], uint64(i), uint64(pass))
				f.InodeOwnerOrCapable(c, es[i].Inode, uint64(i))
				if (i+pass)%7 == 0 {
					f.FsstackCopyInodeSize(c, ds[i].Inode, es[i].Inode)
				}
			}
		}
		for i := range es {
			f.Unlink(c, dirE, es[i])
			f.Unlink(c, dirD, ds[i])
		}
		f.Rmdir(c, sys.Ext4.Root, dirE)
		f.Rmdir(c, sys.Devtmpfs.Root, dirD)
	})
}

// spawnPseudoReaders exercises the pseudo filesystems: proc and sysfs
// reads, debugfs file creation, socket and anon inode churn.
func (sys *System) spawnPseudoReaders(n int) {
	k, f := sys.K, sys.F
	k.Go("proc-reader", func(c *kernel.Context) {
		var entries []*fs.Dentry
		for i := 0; i < 10; i++ {
			entries = append(entries, f.Create(c, sys.Proc.Root, fmt.Sprintf("pid%d", 100+i), 0o444))
		}
		for i := 0; i < 60*n; i++ {
			d := entries[k.Sched.Rand(len(entries))]
			f.Read(c, d)
			if k.Sched.Rand(5) == 0 {
				f.Readdir(c, sys.Proc.Root)
			}
			if k.Sched.Rand(6) == 0 && sys.Ext4.Journal != nil {
				// /proc/fs/jbd2 statistics.
				sys.Ext4.Journal.ReadStats(c)
			}
			if k.Sched.Rand(8) == 0 {
				f.Statfs(c, sys.Ext4)
			}
		}
		for _, d := range entries {
			f.Unlink(c, sys.Proc.Root, d)
		}
	})
	k.Go("sysfs-reader", func(c *kernel.Context) {
		var entries []*fs.Dentry
		for i := 0; i < 8; i++ {
			entries = append(entries, f.Create(c, sys.Sysfs.Root, fmt.Sprintf("attr%d", i), 0o444))
		}
		for i := 0; i < 40*n; i++ {
			f.Read(c, entries[k.Sched.Rand(len(entries))])
			if k.Sched.Rand(4) == 0 {
				// /sys/class/bdi attribute reads.
				f.ReadBdiStats(c, sys.Ext4.Bdi)
			}
		}
		for _, d := range entries {
			f.Unlink(c, sys.Sysfs.Root, d)
		}
	})
	k.Go("debugfs-user", func(c *kernel.Context) {
		for i := 0; i < 6*n; i++ {
			d := f.Create(c, sys.Debugfs.Root, fmt.Sprintf("dbg%03d", i), 0o600)
			f.Unlink(c, sys.Debugfs.Root, d)
		}
	})
	k.Go("sock-churn", func(c *kernel.Context) {
		for i := 0; i < 20*n; i++ {
			d := f.Create(c, sys.Sockfs.Root, fmt.Sprintf("sock%04d", i), 0o600)
			f.Read(c, d)
			f.Unlink(c, sys.Sockfs.Root, d)
		}
	})
	k.Go("anon-churn", func(c *kernel.Context) {
		for i := 0; i < 15*n; i++ {
			d := f.Create(c, sys.Anonfs.Root, fmt.Sprintf("anon%04d", i), 0o600)
			f.Stat(c, d)
			f.Unlink(c, sys.Anonfs.Root, d)
		}
	})
}

// spawnDeviceTest exercises block and character devices (the bdev inode
// subclass, block_device, buffer_head outside the journal, and cdev).
func (sys *System) spawnDeviceTest(n int) {
	k, f := sys.K, sys.F
	k.Go("dev-test", func(c *kernel.Context) {
		for i := 0; i < 8*n; i++ {
			d := f.Create(c, sys.Bdevfs.Root, fmt.Sprintf("loop%d", i%4), 0o600)
			bd := f.Bdget(c, uint64(700+i%4))
			f.BdAcquire(c, d.Inode, bd)
			for blk := 0; blk < 6; blk++ {
				b := f.GetBlk(c, bd, uint64(blk))
				f.MarkBufferDirty(c, b, k.Sched.Rand(10) == 0)
				f.SyncDirtyBuffer(c, b)
				f.Brelse(c, b)
			}
			f.SetBlocksize(c, bd, 4096)
			f.BdForget(c, d.Inode)
			f.Bdput(c, bd)
			f.Unlink(c, sys.Bdevfs.Root, d)
		}
	})
	k.Go("cdev-test", func(c *kernel.Context) {
		cd := f.CdevAdd(c, 0x0501)
		for i := 0; i < 10*n; i++ {
			d := f.Create(c, sys.Devtmpfs.Root, fmt.Sprintf("tty%d", i%3), 0o620)
			f.ChrdevOpen(c, d.Inode, cd)
			f.Stat(c, d)
			f.CdForget(c, d.Inode)
			f.Unlink(c, sys.Devtmpfs.Root, d)
		}
		f.CdevDel(c, cd)
	})
}
