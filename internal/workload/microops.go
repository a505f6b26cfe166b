package workload

import (
	"fmt"

	"lockdoc/internal/fs"
	"lockdoc/internal/kernel"
)

// Micro-op generators: small, self-contained filesystem operations the
// workload fuzzer mixes in as its "cg-*" ops (see fuzzOps). Each one
// targets a family of simulated functions the macro benchmarks reach
// rarely or not at all, so mutated genomes can steer context coverage
// toward the lock-usage corners Sec. 7.1 of the paper wants a generated
// coverage suite to reach.

// opGenerator couples a workload operation with the simulated functions
// it is expected to exercise. The target lists pin the generator table
// against typos (a generator whose targets do not exist exercises
// nothing) and against silent breakage (TestGeneratorsHitTargets).
type opGenerator struct {
	name    string
	targets []string // function names this op covers
	run     func(c *kernel.Context, sys *System, round int)
}

// generators enumerates the micro ops in a fixed order. Committed corpus
// genomes name them ("cg-" + name), so renaming one invalidates them.
func generators() []opGenerator {
	return []opGenerator{
		{
			name:    "create-write-read",
			targets: []string{"vfs_create", "vfs_write", "vfs_read", "ext4_create", "ext4_file_write_iter", "ext4_file_read_iter"},
			run: func(c *kernel.Context, sys *System, round int) {
				f := sys.F
				d := f.Create(c, sys.Ext4.Root, fmt.Sprintf("cg-cwr-%d", round), 0o644)
				f.Write(c, d, 2048)
				f.Read(c, d)
				f.Unlink(c, sys.Ext4.Root, d)
			},
		},
		{
			name:    "truncate",
			targets: []string{"do_truncate", "ext4_truncate", "ext4_free_blocks", "notify_change", "setattr_prepare"},
			run: func(c *kernel.Context, sys *System, round int) {
				f := sys.F
				d := f.Create(c, sys.Ext4.Root, fmt.Sprintf("cg-tr-%d", round), 0o644)
				f.Write(c, d, 8192)
				f.Truncate(c, d, 16)
				f.Unlink(c, sys.Ext4.Root, d)
			},
		},
		{
			name:    "attr",
			targets: []string{"chmod_common", "chown_common", "setattr_copy", "ext4_setattr", "inode_owner_or_capable"},
			run: func(c *kernel.Context, sys *System, round int) {
				f := sys.F
				d := f.Create(c, sys.Tmpfs.Root, fmt.Sprintf("cg-at-%d", round), 0o644)
				f.Chmod(c, d, 0o600)
				f.Chown(c, d, 7, 7)
				f.InodeOwnerOrCapable(c, d.Inode, 8)
				f.Unlink(c, sys.Tmpfs.Root, d)
				// The journaled setattr path needs an ext4 inode.
				e := f.Create(c, sys.Ext4.Root, fmt.Sprintf("cg-ae-%d", round), 0o644)
				f.Ext4Setattr(c, e, 8, 8)
				f.Unlink(c, sys.Ext4.Root, e)
			},
		},
		{
			name:    "namei",
			targets: []string{"vfs_mkdir", "vfs_rmdir", "vfs_rename", "vfs_symlink", "vfs_link", "vfs_readlink", "d_move", "ext4_rename", "ext4_mkdir", "ext4_rmdir", "ext4_symlink", "ext4_link"},
			run: func(c *kernel.Context, sys *System, round int) {
				f := sys.F
				a := f.Mkdir(c, sys.Ext4.Root, fmt.Sprintf("cg-na-%d", round))
				b := f.Mkdir(c, sys.Ext4.Root, fmt.Sprintf("cg-nb-%d", round))
				fd := f.Create(c, a, "f", 0o644)
				ln := f.Symlink(c, a, "ln", "f")
				f.Readlink(c, ln)
				hl := f.Link(c, fd, b, "hl")
				f.Rename(c, a, fd, b, "g")
				f.Unlink(c, b, fd)
				f.Unlink(c, b, hl)
				f.Unlink(c, a, ln)
				f.Rmdir(c, sys.Ext4.Root, a)
				f.Rmdir(c, sys.Ext4.Root, b)
			},
		},
		{
			name:    "lookup-stat",
			targets: []string{"path_lookup", "lookup_slow", "d_lookup", "__d_lookup", "__d_lookup_rcu", "simple_getattr", "vfs_open", "dget", "dput", "ext4_lookup"},
			run: func(c *kernel.Context, sys *System, round int) {
				f := sys.F
				d := f.Create(c, sys.Ext4.Root, fmt.Sprintf("cg-ls-%d", round), 0o644)
				for i := 0; i < 4; i++ {
					if got := f.Lookup(c, sys.Ext4.Root, d.Name); got != nil {
						f.Stat(c, got)
						f.Open(c, got)
						f.DPut(c, got)
					}
					f.Lookup(c, sys.Ext4.Root, "cg-missing")
				}
				f.Unlink(c, sys.Ext4.Root, d)
			},
		},
		{
			name:    "readdir",
			targets: []string{"dcache_readdir", "touch_atime", "generic_update_time"},
			run: func(c *kernel.Context, sys *System, round int) {
				f := sys.F
				dir := f.Mkdir(c, sys.Tmpfs.Root, fmt.Sprintf("cg-rd-%d", round))
				for i := 0; i < 3; i++ {
					f.Create(c, dir, fmt.Sprintf("e%d", i), 0o644)
				}
				f.Readdir(c, dir)
			},
		},
		{
			name:    "fsync-journal",
			targets: []string{"vfs_fsync", "ext4_sync_file", "jbd2_journal_commit_transaction", "jbd2_log_wait_commit", "jbd2_log_do_checkpoint", "jbd2_journal_tid_geq"},
			run: func(c *kernel.Context, sys *System, round int) {
				f := sys.F
				d := f.Create(c, sys.Ext4.Root, fmt.Sprintf("cg-fs-%d", round), 0o644)
				f.Write(c, d, 512)
				f.Fsync(c, d)
				if sys.Ext4.Journal != nil {
					sys.Ext4.Journal.DoCheckpoint(c)
				}
				f.Unlink(c, sys.Ext4.Root, d)
			},
		},
		{
			name:    "sync-writeback",
			targets: []string{"sync_filesystem", "sync_inodes_sb", "writeback_sb_inodes", "__writeback_single_inode", "wb_update_bandwidth", "wb_workfn", "wb_over_bg_thresh", "__mark_inode_dirty", "inode_io_list_del"},
			run: func(c *kernel.Context, sys *System, round int) {
				f := sys.F
				d := f.Create(c, sys.Ext4.Root, fmt.Sprintf("cg-sy-%d", round), 0o644)
				f.Write(c, d, 1024)
				f.WbOverThresh(c, sys.Ext4.Bdi)
				f.WbWorkFn(c)
				f.SyncFilesystem(c, sys.Ext4)
				f.Unlink(c, sys.Ext4.Root, d)
			},
		},
		{
			name:    "icache",
			targets: []string{"iget_locked", "find_inode", "__insert_inode_hash", "__remove_inode_hash", "inode_lru_list_add", "inode_lru_list_del", "prune_icache_sb", "iput", "iput_final", "evict", "ext4_iget"},
			run: func(c *kernel.Context, sys *System, round int) {
				f := sys.F
				for i := 0; i < 3; i++ {
					in := f.IgetLocked(c, sys.Ext4, uint64(9000+round*3+i))
					f.Iput(c, in)
				}
				f.PruneIcache(c, sys.Ext4, 4)
			},
		},
		{
			name:    "pipes",
			targets: []string{"alloc_pipe_info", "pipe_read", "pipe_write", "pipe_release", "pipe_fcntl", "pipe_wait"},
			run: func(c *kernel.Context, sys *System, round int) {
				f := sys.F
				in := f.CreatePipe(c, sys.Pipefs)
				p := in.Pipe
				// Overfill the 16-slot ring from a second task so both
				// blocking paths (pipe_wait on full and on empty) run.
				sys.K.Go(fmt.Sprintf("cg-pipe-writer-%d", round), func(c2 *kernel.Context) {
					f.PipeWrite(c2, p, 24)
					f.PipeReleaseEnd(c2, p, true)
				})
				f.PipePoll(c, p)
				for {
					if got := f.PipeRead(c, p, 4); got == 0 {
						break
					}
				}
				f.PipeReleaseEnd(c, p, false)
				f.Iput(c, in)
			},
		},
		{
			name:    "devices",
			targets: []string{"bdget", "bdput", "bd_acquire", "bd_forget", "set_blocksize", "__getblk", "__brelse", "mark_buffer_dirty", "sync_dirty_buffer", "lock_buffer", "unlock_buffer", "__wait_on_buffer", "cdev_alloc", "cdev_add", "chrdev_open", "cd_forget", "cdev_del"},
			run: func(c *kernel.Context, sys *System, round int) {
				f := sys.F
				d := f.Create(c, sys.Bdevfs.Root, fmt.Sprintf("cg-dv-%d", round), 0o600)
				bd := f.Bdget(c, uint64(900+round%3))
				f.BdAcquire(c, d.Inode, bd)
				b := f.GetBlk(c, bd, 3)
				f.MarkBufferDirty(c, b, false)
				f.WaitOnBuffer(c, b)
				f.SyncDirtyBuffer(c, b)
				f.Brelse(c, b)
				f.SetBlocksize(c, bd, 4096)
				f.BdForget(c, d.Inode)
				f.Bdput(c, bd)
				cd := f.CdevAdd(c, uint64(0x600+round))
				f.ChrdevOpen(c, d.Inode, cd)
				f.CdForget(c, d.Inode)
				f.CdevDel(c, cd)
				f.Unlink(c, sys.Bdevfs.Root, d)
			},
		},
		{
			name:    "pseudo",
			targets: []string{"proc_lookup", "proc_pid_readdir", "sysfs_lookup", "sysfs_read_file", "debugfs_create_file", "sock_alloc", "anon_inode_getfile", "simple_statfs", "jbd2_seq_info_show", "fsstack_copy_inode_size"},
			run: func(c *kernel.Context, sys *System, round int) {
				f := sys.F
				p := f.Create(c, sys.Proc.Root, fmt.Sprintf("cg-p%d", round), 0o444)
				f.Read(c, p)
				f.Lookup(c, sys.Proc.Root, "cg-nope")
				s := f.Create(c, sys.Sysfs.Root, fmt.Sprintf("cg-s%d", round), 0o444)
				f.Read(c, s)
				f.Lookup(c, sys.Sysfs.Root, "cg-nope")
				dbg := f.Create(c, sys.Debugfs.Root, fmt.Sprintf("cg-d%d", round), 0o600)
				so := f.Create(c, sys.Sockfs.Root, fmt.Sprintf("cg-so%d", round), 0o600)
				an := f.Create(c, sys.Anonfs.Root, fmt.Sprintf("cg-an%d", round), 0o600)
				f.Statfs(c, sys.Ext4)
				if sys.Ext4.Journal != nil {
					sys.Ext4.Journal.ReadStats(c)
				}
				f.FsstackCopyInodeSize(c, s.Inode, p.Inode)
				for _, pair := range []struct {
					root *fs.Dentry
					d    *fs.Dentry
				}{{sys.Proc.Root, p}, {sys.Sysfs.Root, s}, {sys.Debugfs.Root, dbg}, {sys.Sockfs.Root, so}, {sys.Anonfs.Root, an}} {
					f.Unlink(c, pair.root, pair.d)
				}
			},
		},
	}
}
