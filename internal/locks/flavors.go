package locks

import (
	"fmt"

	"lockdoc/internal/kernel"
	"lockdoc/internal/trace"
)

// --- spinlock_t ---

// SpinLock models spinlock_t. Plain Lock disables preemption for the
// critical section (as spin_lock does on a preemptible kernel); the IRQ
// flavor additionally disables interrupt injection and records the
// synthetic hardirq pseudo-lock; the BH flavor records the softirq
// pseudo-lock.
type SpinLock struct{ b *base }

// Spin creates a global spinlock.
func (d *Domain) Spin(name string) *SpinLock {
	return &SpinLock{d.newBase(name, trace.LockSpin, 0, 0)}
}

// SpinIn creates a spinlock embedded in member `member` of owner.
func (d *Domain) SpinIn(owner *kernel.Object, member string) *SpinLock {
	return &SpinLock{d.embeddedBase(owner, member, trace.LockSpin)}
}

// SpinAt creates a bit spinlock living inside a plain data member of
// owner (the kernel's bit_spin_lock on buffer_head b_state, for
// example). Unlike SpinIn, the member need not be declared as a lock —
// the data bits remain observable.
func (d *Domain) SpinAt(owner *kernel.Object, member string) *SpinLock {
	mi := owner.Typ.MemberIndex(member)
	return &SpinLock{d.newBaseAt(member, trace.LockSpin, owner.MemberAddr(mi), owner.Addr)}
}

// Lock acquires the spinlock (spin_lock).
func (l *SpinLock) Lock(c *kernel.Context) {
	l.b.acquireExcl(c)
	if t := c.Task(); t != nil {
		t.NoPreempt++
	}
}

// Unlock releases the spinlock (spin_unlock).
func (l *SpinLock) Unlock(c *kernel.Context) {
	if t := c.Task(); t != nil {
		t.NoPreempt--
	}
	l.b.releaseExcl(c)
}

// LockIRQ acquires with interrupts disabled (spin_lock_irq).
func (l *SpinLock) LockIRQ(c *kernel.Context) {
	l.b.d.IRQDisable(c)
	l.Lock(c)
}

// UnlockIRQ releases and re-enables interrupts (spin_unlock_irq).
func (l *SpinLock) UnlockIRQ(c *kernel.Context) {
	l.Unlock(c)
	l.b.d.IRQEnable(c)
}

// TryLock attempts the acquisition without blocking and reports success.
func (l *SpinLock) TryLock(c *kernel.Context) bool {
	if l.b.writer != nil || l.b.readers > 0 {
		return false
	}
	l.Lock(c)
	return true
}

// Held reports whether c holds the lock (assertion helper).
func (l *SpinLock) Held(c *kernel.Context) bool { return l.b.heldBy(c) }

// Name returns the lock's diagnostic name.
func (l *SpinLock) Name() string { return l.b.name }

// --- mutex ---

// Mutex models the kernel mutex (sleeping, exclusive).
type Mutex struct{ b *base }

// Mutex creates a global mutex.
func (d *Domain) Mutex(name string) *Mutex {
	return &Mutex{d.newBase(name, trace.LockMutex, 0, 0)}
}

// MutexIn creates a mutex embedded in member `member` of owner.
func (d *Domain) MutexIn(owner *kernel.Object, member string) *Mutex {
	return &Mutex{d.embeddedBase(owner, member, trace.LockMutex)}
}

// Lock acquires the mutex, sleeping if contended (mutex_lock).
func (l *Mutex) Lock(c *kernel.Context) { l.b.acquireExcl(c) }

// Unlock releases the mutex (mutex_unlock).
func (l *Mutex) Unlock(c *kernel.Context) { l.b.releaseExcl(c) }

// Held reports whether c holds the mutex.
func (l *Mutex) Held(c *kernel.Context) bool { return l.b.heldBy(c) }

// Name returns the lock's diagnostic name.
func (l *Mutex) Name() string { return l.b.name }

// --- rwlock_t ---

// RWLock models rwlock_t (spinning reader/writer lock).
type RWLock struct{ b *base }

// RW creates a global rwlock.
func (d *Domain) RW(name string) *RWLock {
	return &RWLock{d.newBase(name, trace.LockRW, 0, 0)}
}

// RWIn creates an rwlock embedded in member `member` of owner.
func (d *Domain) RWIn(owner *kernel.Object, member string) *RWLock {
	return &RWLock{d.embeddedBase(owner, member, trace.LockRW)}
}

// ReadLock acquires the shared side (read_lock).
func (l *RWLock) ReadLock(c *kernel.Context) {
	l.b.acquireShared(c)
	if t := c.Task(); t != nil {
		t.NoPreempt++
	}
}

// ReadUnlock releases the shared side (read_unlock).
func (l *RWLock) ReadUnlock(c *kernel.Context) {
	if t := c.Task(); t != nil {
		t.NoPreempt--
	}
	l.b.releaseShared(c)
}

// WriteLock acquires the exclusive side (write_lock). It waits for all
// readers to drain.
func (l *RWLock) WriteLock(c *kernel.Context) {
	for l.b.readers > 0 {
		t := c.Task()
		if t == nil {
			panic("locks: interrupt context blocks on rwlock writer side of " + l.b.name)
		}
		t.Block(l.b.waitq)
	}
	l.b.acquireExcl(c)
	if t := c.Task(); t != nil {
		t.NoPreempt++
	}
}

// WriteUnlock releases the exclusive side (write_unlock).
func (l *RWLock) WriteUnlock(c *kernel.Context) {
	if t := c.Task(); t != nil {
		t.NoPreempt--
	}
	l.b.releaseExcl(c)
}

// Held reports whether c holds the lock in any mode.
func (l *RWLock) Held(c *kernel.Context) bool { return l.b.heldBy(c) }

// Name returns the lock's diagnostic name.
func (l *RWLock) Name() string { return l.b.name }

// --- semaphore ---

// Semaphore models the counting semaphore (down/up).
type Semaphore struct {
	b     *base
	count int
}

// Sem creates a global semaphore with the given initial count.
func (d *Domain) Sem(name string, count int) *Semaphore {
	return &Semaphore{b: d.newBase(name, trace.LockSem, 0, 0), count: count}
}

// SemIn creates a semaphore embedded in member `member` of owner.
func (d *Domain) SemIn(owner *kernel.Object, member string, count int) *Semaphore {
	return &Semaphore{b: d.embeddedBase(owner, member, trace.LockSem), count: count}
}

// Down decrements the semaphore, sleeping while it is zero.
func (l *Semaphore) Down(c *kernel.Context) {
	for l.count == 0 {
		t := c.Task()
		if t == nil {
			panic("locks: interrupt context blocks on semaphore " + l.b.name)
		}
		t.Block(l.b.waitq)
	}
	l.count--
	l.b.emit(c, trace.KindAcquire, false)
	l.b.pushHeld(c)
}

// Up increments the semaphore and wakes a waiter.
func (l *Semaphore) Up(c *kernel.Context) {
	l.count++
	l.b.emit(c, trace.KindRelease, false)
	l.b.popHeld(c)
	l.b.d.k.Sched.WakeOne(l.b.waitq)
}

// Name returns the lock's diagnostic name.
func (l *Semaphore) Name() string { return l.b.name }

// --- rw_semaphore ---

// RWSem models rw_semaphore (sleeping reader/writer semaphore), the
// primitive behind i_rwsem and s_umount.
type RWSem struct{ b *base }

// RWSem creates a global rw_semaphore.
func (d *Domain) RWSem(name string) *RWSem {
	return &RWSem{d.newBase(name, trace.LockRWSem, 0, 0)}
}

// RWSemIn creates an rw_semaphore embedded in member `member` of owner.
func (d *Domain) RWSemIn(owner *kernel.Object, member string) *RWSem {
	return &RWSem{d.embeddedBase(owner, member, trace.LockRWSem)}
}

// DownRead acquires the shared side (down_read).
func (l *RWSem) DownRead(c *kernel.Context) { l.b.acquireShared(c) }

// UpRead releases the shared side (up_read).
func (l *RWSem) UpRead(c *kernel.Context) { l.b.releaseShared(c) }

// DownWrite acquires the exclusive side (down_write).
func (l *RWSem) DownWrite(c *kernel.Context) {
	for l.b.readers > 0 {
		t := c.Task()
		if t == nil {
			panic("locks: interrupt context blocks on rwsem " + l.b.name)
		}
		t.Block(l.b.waitq)
	}
	l.b.acquireExcl(c)
}

// UpWrite releases the exclusive side (up_write).
func (l *RWSem) UpWrite(c *kernel.Context) { l.b.releaseExcl(c) }

// Held reports whether c holds the rwsem in any mode.
func (l *RWSem) Held(c *kernel.Context) bool { return l.b.heldBy(c) }

// Name returns the lock's diagnostic name.
func (l *RWSem) Name() string { return l.b.name }

// --- seqlock_t ---

// SeqLock models seqlock_t: writers take an internal spinlock and bump a
// sequence counter; readers run optimistically and retry on a torn
// sequence. The read section is traced as a shared acquisition so the
// mining pipeline sees the protection.
type SeqLock struct {
	b   *base
	seq uint64
}

// Seq creates a global seqlock.
func (d *Domain) Seq(name string) *SeqLock {
	return &SeqLock{b: d.newBase(name, trace.LockSeq, 0, 0)}
}

// SeqIn creates a seqlock embedded in member `member` of owner.
func (d *Domain) SeqIn(owner *kernel.Object, member string) *SeqLock {
	return &SeqLock{b: d.embeddedBase(owner, member, trace.LockSeq)}
}

// WriteLock enters the write side (write_seqlock).
func (l *SeqLock) WriteLock(c *kernel.Context) {
	l.b.acquireExcl(c)
	l.seq++
	if t := c.Task(); t != nil {
		t.NoPreempt++
	}
}

// WriteUnlock leaves the write side (write_sequnlock).
func (l *SeqLock) WriteUnlock(c *kernel.Context) {
	l.seq++
	if t := c.Task(); t != nil {
		t.NoPreempt--
	}
	l.b.releaseExcl(c)
}

// ReadBegin opens an optimistic read section (read_seqbegin) and returns
// the sequence cookie for ReadRetry.
func (l *SeqLock) ReadBegin(c *kernel.Context) uint64 {
	for l.seq%2 == 1 { // writer active
		t := c.Task()
		if t == nil {
			panic("locks: interrupt context spins on seqlock " + l.b.name)
		}
		t.Block(l.b.waitq)
	}
	l.b.readers++
	l.b.emit(c, trace.KindAcquire, true)
	l.b.pushHeld(c)
	return l.seq
}

// ReadRetry closes the read section and reports whether it must be
// retried because a writer interleaved (read_seqretry).
func (l *SeqLock) ReadRetry(c *kernel.Context, cookie uint64) bool {
	l.b.readers--
	l.b.emit(c, trace.KindRelease, true)
	l.b.popHeld(c)
	if l.b.readers == 0 {
		l.b.d.k.Sched.WakeAll(l.b.waitq)
	}
	return l.seq != cookie
}

// Name returns the lock's diagnostic name.
func (l *SeqLock) Name() string { return l.b.name }

// --- RCU ---

// RCUReadLock enters an RCU read-side critical section.
func (d *Domain) RCUReadLock(c *kernel.Context) {
	d.rcuReaders++
	d.rcu.emit(c, trace.KindAcquire, true)
	d.rcu.pushHeld(c)
}

// RCUReadUnlock leaves the RCU read-side critical section.
func (d *Domain) RCUReadUnlock(c *kernel.Context) {
	if d.rcuReaders <= 0 {
		panic("locks: rcu_read_unlock without matching rcu_read_lock")
	}
	d.rcuReaders--
	d.rcu.emit(c, trace.KindRelease, true)
	d.rcu.popHeld(c)
	if d.rcuReaders == 0 {
		d.k.Sched.WakeAll(d.rcuWaitq)
	}
}

// SynchronizeRCU blocks until every RCU read-side section that was
// active at the call has finished (coarse emulation: waits for the
// global reader count to reach zero).
func (d *Domain) SynchronizeRCU(c *kernel.Context) {
	for d.rcuReaders > 0 {
		t := c.Task()
		if t == nil {
			panic("locks: synchronize_rcu from interrupt context")
		}
		t.Block(d.rcuWaitq)
	}
}

// --- interrupt-state pseudo-locks ---

// IRQDisable models local_irq_disable: no interrupts are injected until
// the matching IRQEnable; the synthetic hardirq lock is recorded held.
func (d *Domain) IRQDisable(c *kernel.Context) {
	if t := c.Task(); t != nil {
		t.IRQOff++
	}
	d.hardirq.depth++
	if d.hardirq.depth == 1 {
		d.hardirq.emit(c, trace.KindAcquire, false)
		d.hardirq.pushHeld(c)
	}
}

// IRQEnable models local_irq_enable.
func (d *Domain) IRQEnable(c *kernel.Context) {
	if d.hardirq.depth <= 0 {
		panic("locks: irq enable without disable")
	}
	d.hardirq.depth--
	if d.hardirq.depth == 0 {
		d.hardirq.emit(c, trace.KindRelease, false)
		d.hardirq.popHeld(c)
	}
	if t := c.Task(); t != nil {
		t.IRQOff--
	}
}

// BHDisable models local_bh_disable: the synthetic softirq lock is
// recorded held (softirq injection is suppressed via preemption state).
func (d *Domain) BHDisable(c *kernel.Context) {
	if t := c.Task(); t != nil {
		t.IRQOff++ // bottom halves are delivered via the irq machinery
	}
	d.softirq.depth++
	if d.softirq.depth == 1 {
		d.softirq.emit(c, trace.KindAcquire, false)
		d.softirq.pushHeld(c)
	}
}

// BHEnable models local_bh_enable.
func (d *Domain) BHEnable(c *kernel.Context) {
	if d.softirq.depth <= 0 {
		panic("locks: bh enable without disable")
	}
	d.softirq.depth--
	if d.softirq.depth == 0 {
		d.softirq.emit(c, trace.KindRelease, false)
		d.softirq.popHeld(c)
	}
	if t := c.Task(); t != nil {
		t.IRQOff--
	}
}

// EnterIRQ marks entry into an interrupt handler context: the matching
// synthetic pseudo-lock is recorded held for the handler's duration.
// Handlers call the returned function on exit.
func (d *Domain) EnterIRQ(c *kernel.Context) func() {
	var pl *base
	switch c.Kind() {
	case trace.CtxSoftIRQ:
		pl = d.softirq
	case trace.CtxHardIRQ:
		pl = d.hardirq
	default:
		panic(fmt.Sprintf("locks: EnterIRQ from non-interrupt context %d", c.ID()))
	}
	pl.emit(c, trace.KindAcquire, false)
	pl.pushHeld(c)
	return func() {
		pl.emit(c, trace.KindRelease, false)
		pl.popHeld(c)
	}
}
