package fs

import (
	"lockdoc/internal/kernel"
)

// Lookup resolves name under dir, hitting the dcache first and falling
// back to the slow path (path_lookup → d_lookup → lookup_slow).
// It returns nil when the name does not exist. The returned dentry
// carries a reference.
func (f *FS) Lookup(c *kernel.Context, dir *Dentry, name string) *Dentry {
	defer f.call(c, "path_lookup")()
	c.Cover(3)
	if d := f.DLookup(c, dir, name); d != nil {
		return d
	}
	// Slow path: ask the filesystem under the directory's i_rwsem.
	defer f.call(c, "lookup_slow")()
	dir.Inode.IRwsem.DownRead(c)
	c.Cover(12)
	f.fsLookup(c, dir)
	dir.Inode.IRwsem.UpRead(c)
	return nil
}

// fsLookup is the per-filesystem lookup hook; it only reads directory
// metadata since the dcache map is authoritative in this simulation.
func (f *FS) fsLookup(c *kernel.Context, dir *Dentry) {
	sb := dir.Sb
	switch {
	case sb.Behavior.Journaled:
		defer f.call(c, "ext4_lookup")()
		c.Cover(3)
		_ = dir.Inode.get(c, "i_size")
		_ = dir.Inode.get(c, "i_data.nrpages")
	case sb.FSType == "proc":
		defer f.call(c, "proc_lookup")()
		c.Cover(2)
		_ = dir.Inode.get(c, "i_private")
		_ = dir.Inode.get(c, "i_mode")
	case sb.FSType == "sysfs":
		defer f.call(c, "sysfs_lookup")()
		c.Cover(2)
		_ = dir.Inode.get(c, "i_private")
	default:
		defer f.call(c, "simple_lookup")()
		c.Cover(2)
		_ = dir.Inode.get(c, "i_size")
	}
}

// Create makes a regular file (vfs_create): the parent directory is
// locked with i_rwsem for writing, the filesystem hook allocates the
// inode and publishes the operation vectors on it — while holding the
// parent's rwsem, which is what yields the EO(i_rwsem in inode) rules
// of Fig. 8.
func (f *FS) Create(c *kernel.Context, dir *Dentry, name string, mode uint64) *Dentry {
	defer f.call(c, "vfs_create")()
	c.Cover(3)
	dir.Inode.IRwsem.DownWrite(c)
	d := f.DAlloc(c, dir, name)
	in := dir.Sb.createInode(c, dir, mode|SIFreg)
	f.dInstantiate(c, d, in)
	f.dirSizeBump(c, dir, 1)
	f.GenericUpdateTime(c, dir.Inode, true)
	c.Cover(30)
	dir.Inode.IRwsem.UpWrite(c)
	return d
}

// dirSizeBump maintains the directory size under its held i_rwsem.
func (f *FS) dirSizeBump(c *kernel.Context, dir *Dentry, delta int64) {
	in := dir.Inode
	f.ISizeWrite(c, in, uint64(int64(in.size)+delta))
}

// Mkdir creates a directory (vfs_mkdir).
func (f *FS) Mkdir(c *kernel.Context, dir *Dentry, name string) *Dentry {
	defer f.call(c, "vfs_mkdir")()
	c.Cover(3)
	dir.Inode.IRwsem.DownWrite(c)
	d := f.DAlloc(c, dir, name)
	in := dir.Sb.createInode(c, dir, SIFdir|0o755)
	in.nlink = 2
	in.set(c, "i_nlink", 2)
	f.dInstantiate(c, d, in)
	f.dirSizeBump(c, dir, 1)
	dir.Sb.dirJournal(c, "ext4_mkdir", dir.Inode, 24)
	dir.Inode.IRwsem.UpWrite(c)
	return d
}

// Unlink removes a file name (vfs_unlink): parent and victim i_rwsem
// held; link count and ctime change on the victim.
func (f *FS) Unlink(c *kernel.Context, dir *Dentry, d *Dentry) {
	defer f.call(c, "vfs_unlink")()
	c.Cover(4)
	dir.Inode.IRwsem.DownWrite(c)
	in := d.Inode
	in.IRwsem.DownWrite(c)
	dir.Sb.removeName(c, dir, d)
	in.nlink--
	in.set(c, "i_nlink", in.nlink)
	in.set(c, "i_ctime", f.K.Sched.Now())
	in.IRwsem.UpWrite(c)
	f.DDelete(c, d)
	f.dirSizeBump(c, dir, -1)
	dir.Inode.IRwsem.UpWrite(c)
	f.DPut(c, d)
	f.dFree(c, d)
	c.Cover(34)
	f.Iput(c, in)
}

// Rmdir removes an empty directory (vfs_rmdir).
func (f *FS) Rmdir(c *kernel.Context, dir *Dentry, d *Dentry) bool {
	defer f.call(c, "vfs_rmdir")()
	c.Cover(3)
	d.DLock.Lock(c)
	empty := d.get(c, "d_subdirs") == 0
	d.DLock.Unlock(c)
	if !empty || len(d.children) > 0 {
		return false
	}
	dir.Inode.IRwsem.DownWrite(c)
	in := d.Inode
	in.IRwsem.DownWrite(c)
	dir.Sb.removeName(c, dir, d)
	in.nlink = 0
	in.set(c, "i_nlink", 0)
	in.IRwsem.UpWrite(c)
	f.DDelete(c, d)
	f.dirSizeBump(c, dir, -1)
	dir.Sb.dirJournal(c, "ext4_rmdir", dir.Inode, 24)
	dir.Inode.IRwsem.UpWrite(c)
	f.DPut(c, d)
	f.dFree(c, d)
	f.Iput(c, in)
	return true
}

// Link creates a hard link (vfs_link): i_nlink of the target is bumped
// holding only the parent's rwsem — together with unlink's different
// lock set this keeps i_nlink's mined rule at "no locks" (Fig. 8).
func (f *FS) Link(c *kernel.Context, target *Dentry, dir *Dentry, name string) *Dentry {
	defer f.call(c, "vfs_link")()
	c.Cover(3)
	dir.Inode.IRwsem.DownWrite(c)
	d := f.DAlloc(c, dir, name)
	in := target.Inode
	in.refcount++
	in.nlink++
	in.set(c, "i_nlink", in.nlink)
	in.set(c, "i_ctime", f.K.Sched.Now())
	f.dInstantiate(c, d, in)
	f.dirSizeBump(c, dir, 1)
	dir.Sb.dirJournal(c, "ext4_link", dir.Inode, 20)
	dir.Inode.IRwsem.UpWrite(c)
	return d
}

// Symlink creates a symbolic link (vfs_symlink): i_link is published
// under the parent's rwsem.
func (f *FS) Symlink(c *kernel.Context, dir *Dentry, name, targetPath string) *Dentry {
	defer f.call(c, "vfs_symlink")()
	c.Cover(3)
	dir.Inode.IRwsem.DownWrite(c)
	d := f.DAlloc(c, dir, name)
	in := dir.Sb.createInode(c, dir, SIFlnk|0o777)
	in.Symlink = targetPath
	in.set(c, "i_link", nameHash(targetPath))
	f.ISizeWrite(c, in, uint64(len(targetPath)))
	f.dInstantiate(c, d, in)
	f.dirSizeBump(c, dir, 1)
	dir.Sb.dirJournal(c, "ext4_symlink", dir.Inode, 24)
	dir.Inode.IRwsem.UpWrite(c)
	return d
}

// Readlink reads a symlink target (vfs_readlink) — lock-free reads.
func (f *FS) Readlink(c *kernel.Context, d *Dentry) string {
	defer f.call(c, "vfs_readlink")()
	c.Cover(2)
	_ = d.Inode.get(c, "i_link")
	_ = d.Inode.get(c, "i_size")
	return d.Inode.Symlink
}

// Rename moves a dentry (vfs_rename): both directories' i_rwsem in
// address order, then d_move under the rename seqlock.
func (f *FS) Rename(c *kernel.Context, oldDir *Dentry, d *Dentry, newDir *Dentry, newName string) {
	defer f.call(c, "vfs_rename")()
	c.Cover(5)
	first, second := oldDir.Inode, newDir.Inode
	if first.Obj.Addr > second.Obj.Addr {
		first, second = second, first
	}
	first.IRwsem.DownWrite(c)
	if second != first {
		second.IRwsem.DownWrite(c)
	}
	oldDir.Sb.removeName(c, oldDir, d)
	f.DMove(c, d, newDir, newName)
	d.Inode.set(c, "i_ctime", f.K.Sched.Now())
	f.dirSizeBump(c, oldDir, -1)
	if newDir != oldDir {
		f.dirSizeBump(c, newDir, 1)
	}
	oldDir.Sb.dirJournal(c, "ext4_rename", oldDir.Inode, 38)
	if second != first {
		second.IRwsem.UpWrite(c)
	}
	first.IRwsem.UpWrite(c)
}

// Readdir lists a directory (dir i_rwsem read side + dcache_readdir,
// including the paper's d_subdirs deviation).
func (f *FS) Readdir(c *kernel.Context, dir *Dentry) []string {
	dir.Inode.IRwsem.DownRead(c)
	_ = dir.Inode.get(c, "i_dir_seq")
	_ = dir.Inode.get(c, "i_fop")
	names := f.DcacheReaddir(c, dir)
	f.TouchAtime(c, dir.Inode)
	dir.Inode.IRwsem.UpRead(c)
	return names
}

// Write appends n bytes to a regular file (vfs_write + the fs hooks).
func (f *FS) Write(c *kernel.Context, d *Dentry, n uint64) {
	defer f.call(c, "vfs_write")()
	c.Cover(3)
	d.Sb.writeFile(c, d.Inode, n)
	f.MarkInodeDirty(c, d.Inode)
	c.Cover(35)
}

// Read reads a file (vfs_read): the generic read path takes no inode
// locks — i_size via the seqcount, timestamps lazily.
func (f *FS) Read(c *kernel.Context, d *Dentry) uint64 {
	defer f.call(c, "vfs_read")()
	c.Cover(3)
	in := d.Inode
	size := d.Sb.readFile(c, in)
	f.TouchAtime(c, in)
	c.Cover(30)
	return size
}

// Fsync flushes a file (vfs_fsync).
func (f *FS) Fsync(c *kernel.Context, d *Dentry) {
	defer f.call(c, "vfs_fsync")()
	c.Cover(2)
	d.Sb.fsyncFile(c, d.Inode)
}

// Truncate resizes a file (do_truncate): size changes under the
// exclusive i_rwsem; block accounting is filesystem-specific.
func (f *FS) Truncate(c *kernel.Context, d *Dentry, size uint64) {
	defer f.call(c, "do_truncate")()
	c.Cover(3)
	in := d.Inode
	in.IRwsem.DownWrite(c)
	func() {
		defer f.call(c, "notify_change")()
		c.Cover(3)
		f.setattrPrepare(c, in)
		f.ISizeWrite(c, in, size)
		in.set(c, "i_ctime", f.K.Sched.Now())
	}()
	d.Sb.truncateBlocks(c, in, size)
	in.IRwsem.UpWrite(c)
	f.MarkInodeDirty(c, in)
	c.Cover(25)
}

// setattrPrepare validates attribute changes (setattr_prepare): reads
// run under the held i_rwsem.
func (f *FS) setattrPrepare(c *kernel.Context, in *Inode) {
	defer f.call(c, "setattr_prepare")()
	c.Cover(2)
	_ = in.get(c, "i_mode")
	_ = in.get(c, "i_uid")
	_ = in.get(c, "i_flags")
}

// Chmod changes the file mode (chmod_common → notify_change →
// setattr_copy): mode, ctime and the version stamp change under the
// exclusive i_rwsem — the ES(i_rwsem) rule family of Fig. 8.
func (f *FS) Chmod(c *kernel.Context, d *Dentry, mode uint64) {
	defer f.call(c, "chmod_common")()
	c.Cover(3)
	in := d.Inode
	in.IRwsem.DownWrite(c)
	func() {
		defer f.call(c, "notify_change")()
		c.Cover(8)
		f.setattrPrepare(c, in)
		func() {
			defer f.call(c, "setattr_copy")()
			c.Cover(3)
			in.set(c, "i_mode", mode|in.Mode&SIFdir)
			in.set(c, "i_ctime", f.K.Sched.Now())
			in.set(c, "i_version", in.get(c, "i_version")+1)
		}()
	}()
	d.Sb.markInodeDirtyFS(c, in)
	c.Cover(21)
	in.IRwsem.UpWrite(c)
}

// Chown changes ownership (chown_common): uid/gid under i_rwsem unless
// the filesystem's simplified attribute path skips it (SloppyTimes).
func (f *FS) Chown(c *kernel.Context, d *Dentry, uid, gid uint64) {
	defer f.call(c, "chown_common")()
	c.Cover(3)
	in := d.Inode
	if in.Sb.Behavior.SloppyTimes {
		// devtmpfs-style shortcut: no i_rwsem.
		c.Cover(10)
		defer f.call(c, "simple_setattr")()
		in.set(c, "i_uid", uid)
		in.set(c, "i_gid", gid)
		in.set(c, "i_ctime", f.K.Sched.Now())
		return
	}
	in.IRwsem.DownWrite(c)
	func() {
		defer f.call(c, "notify_change")()
		c.Cover(18)
		func() {
			defer f.call(c, "setattr_copy")()
			c.Cover(8)
			in.set(c, "i_uid", uid)
			in.set(c, "i_gid", gid)
			in.set(c, "i_ctime", f.K.Sched.Now())
		}()
	}()
	d.Sb.markInodeDirtyFS(c, in)
	c.Cover(26)
	in.IRwsem.UpWrite(c)
}

// Stat reads attributes (simple_getattr): entirely lock-free reads, as
// stat(2) is in practice — getattr copies a dozen inode fields without
// taking any inode lock.
func (f *FS) Stat(c *kernel.Context, d *Dentry) (mode, size, nlink uint64) {
	defer f.call(c, "simple_getattr")()
	c.Cover(2)
	in := d.Inode
	mode = in.get(c, "i_mode")
	size = f.ISizeRead(c, in)
	nlink = in.get(c, "i_nlink")
	_ = in.get(c, "i_ino")
	_ = in.get(c, "i_uid")
	_ = in.get(c, "i_gid")
	_ = in.get(c, "i_atime")
	_ = in.get(c, "i_mtime")
	_ = in.get(c, "i_ctime")
	_ = in.get(c, "i_generation")
	_ = in.get(c, "i_rdev")
	_ = in.get(c, "i_blkbits")
	_ = in.get(c, "i_version")
	_ = in.get(c, "i_opflags")
	_ = in.get(c, "i_sb")
	c.Cover(11)
	// The dentry side of stat peeks at reference state lock-free.
	_ = d.get(c, "d_count")
	_ = d.get(c, "d_inode")
	return mode, size, nlink
}

// Open models vfs_open's operation-vector loads: the file_operations
// and permission fields are read with no inode locks (RCU-protected in
// the real kernel).
func (f *FS) Open(c *kernel.Context, d *Dentry) {
	defer f.call(c, "vfs_open")()
	c.Cover(3)
	f.DGet(c, d) // open pins the dentry
	in := d.Inode
	_ = in.get(c, "i_fop")
	_ = in.get(c, "i_op")
	_ = in.get(c, "i_mode")
	_ = in.get(c, "i_flags")
	_ = in.get(c, "i_acl")
	_ = in.get(c, "i_security")
	_ = in.get(c, "i_mapping")
	c.Cover(14)
	in.set(c, "i_readcount", in.get(c, "i_readcount")+1)
	f.DPut(c, d) // the simulated open/close pair collapses here
}

// Statfs reads filesystem statistics (simple_statfs): superblock fields
// are read without s_umount or sb_lock, as statfs(2) does.
func (f *FS) Statfs(c *kernel.Context, sb *SuperBlock) {
	defer f.call(c, "simple_statfs")()
	c.Cover(2)
	for _, m := range []string{
		"s_blocksize", "s_blocksize_bits", "s_maxbytes", "s_flags",
		"s_iflags", "s_magic", "s_type", "s_op", "s_id", "s_uuid",
		"s_fs_info", "s_time_gran", "s_max_links", "s_count", "s_root",
		"s_bdev", "s_bdi", "s_dev", "s_inode_lru_nr", "s_dentry_lru_nr",
	} {
		_ = sb.sbGet(c, m)
	}
	c.Cover(8)
}

// CreatePipe makes a pipe inode on the pipefs superblock.
func (f *FS) CreatePipe(c *kernel.Context, pipefs *SuperBlock) *Inode {
	in := f.allocInode(c, pipefs, SIFifo|0o600)
	f.allocPipe(c, in)
	return in
}
