package faultinject

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"
)

// This file extends the package from damaging trace *bytes* to
// damaging the *filesystem operations* a segment store performs:
// torn writes (a crash mid-write persists only a prefix), partial
// renames (a crash before the rename leaves the temp file and no final
// name), and fail-N-then-succeed faults (a flaky disk that recovers).
// Like the byte corruptors, every injector is deterministic: faults
// are armed explicitly, by operation count, so a failing chaos run
// replays exactly.
//
// FS mirrors lockdoc/internal/manifest.FS method-for-method but is
// restated here instead of imported, keeping this package
// dependency-free (the same reason `marker` is restated above); Go's
// structural typing lets a *FaultFS wrap any manifest FS and be passed
// back as one.

// FS is the file-operation surface FaultFS interposes on.
type FS interface {
	MkdirAll(dir string) error
	WriteFile(name string, data []byte) error
	AppendFile(name string, data []byte) error
	Rename(oldpath, newpath string) error
	ReadFile(name string) ([]byte, error)
	ReadDir(dir string) ([]string, error)
	Remove(name string) error
}

// Op names one FS operation class for fault arming.
type Op string

const (
	OpMkdir   Op = "mkdir"
	OpWrite   Op = "write"
	OpAppend  Op = "append"
	OpRename  Op = "rename"
	OpRead    Op = "read"
	OpReadDir Op = "readdir"
	OpRemove  Op = "remove"
)

// InjectedError is the error every filesystem fault surfaces as. Its
// Transient field feeds resilience.IsTransient structurally (via the
// Transient() bool method), so retry loops distinguish a flaky fault
// from a hard one without this package importing resilience.
type InjectedError struct {
	Op        Op
	Name      string
	Mode      string // "fail", "torn-write", "partial-rename"
	transient bool
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected %s fault on %s %s", e.Mode, e.Op, e.Name)
}

// Transient reports whether retry loops should treat the fault as
// recoverable.
func (e *InjectedError) Transient() bool { return e.transient }

// IsInjected reports whether err originated from a FaultFS or flaky
// wrapper in this package.
func IsInjected(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie)
}

// fault is one armed fault: it fires on operations [after, after+n) of
// its class.
type fault struct {
	op        Op
	after     int // operations of this class to let through first
	n         int // how many consecutive operations then fail
	mode      string
	frac      float64 // torn-write: fraction of the payload persisted
	transient bool
}

// FaultFS wraps an inner FS and injects armed faults by operation
// count. It is safe for concurrent use. The zero set of faults makes
// it a transparent proxy.
type FaultFS struct {
	inner FS

	mu     sync.Mutex
	counts map[Op]int
	faults []fault
}

// NewFaultFS wraps inner (typically manifest.OSFS) for fault
// injection.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{inner: inner, counts: make(map[Op]int)}
}

// FailN arms a hard fault: operations [after, after+n) of class op
// fail without side effects. transient selects whether retry loops may
// retry it.
func (f *FaultFS) FailN(op Op, after, n int, transient bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = append(f.faults, fault{op: op, after: after, n: n, mode: "fail", transient: transient})
}

// TornWrite arms a torn write: the (after+1)-th WriteFile persists
// only frac of its payload, then fails — the on-disk effect of a crash
// or power cut mid-write.
func (f *FaultFS) TornWrite(after int, frac float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = append(f.faults, fault{op: OpWrite, after: after, n: 1, mode: "torn-write", frac: frac})
}

// TornAppend is TornWrite for AppendFile: the victim append persists
// only frac of its payload — a manifest line cut mid-write.
func (f *FaultFS) TornAppend(after int, frac float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = append(f.faults, fault{op: OpAppend, after: after, n: 1, mode: "torn-write", frac: frac})
}

// PartialRename arms a failed rename: the victim Rename fails leaving
// the source in place and the destination absent — the on-disk effect
// of a crash between a temp write and its publication.
func (f *FaultFS) PartialRename(after int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = append(f.faults, fault{op: OpRename, after: after, n: 1, mode: "partial-rename"})
}

// Clear disarms every fault and resets the operation counters —
// "the machine rebooted".
func (f *FaultFS) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = nil
	f.counts = make(map[Op]int)
}

// Counts returns how many operations of each class have been issued.
func (f *FaultFS) Counts() map[Op]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[Op]int, len(f.counts))
	for k, v := range f.counts {
		out[k] = v
	}
	return out
}

// hit advances op's counter and returns the armed fault that covers
// this operation, if any.
func (f *FaultFS) hit(op Op) *fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.counts[op]
	f.counts[op] = i + 1
	for k := range f.faults {
		ft := &f.faults[k]
		if ft.op == op && i >= ft.after && i < ft.after+ft.n {
			return ft
		}
	}
	return nil
}

func (f *FaultFS) MkdirAll(dir string) error {
	if ft := f.hit(OpMkdir); ft != nil {
		return &InjectedError{Op: OpMkdir, Name: dir, Mode: ft.mode, transient: ft.transient}
	}
	return f.inner.MkdirAll(dir)
}

func (f *FaultFS) WriteFile(name string, data []byte) error {
	if ft := f.hit(OpWrite); ft != nil {
		if ft.mode == "torn-write" {
			// Persist the prefix a dying machine would have flushed,
			// then report the crash.
			k := int(float64(len(data)) * ft.frac)
			_ = f.inner.WriteFile(name, data[:k])
		}
		return &InjectedError{Op: OpWrite, Name: name, Mode: ft.mode, transient: ft.transient}
	}
	return f.inner.WriteFile(name, data)
}

func (f *FaultFS) AppendFile(name string, data []byte) error {
	if ft := f.hit(OpAppend); ft != nil {
		if ft.mode == "torn-write" {
			k := int(float64(len(data)) * ft.frac)
			_ = f.inner.AppendFile(name, data[:k])
		}
		return &InjectedError{Op: OpAppend, Name: name, Mode: ft.mode, transient: ft.transient}
	}
	return f.inner.AppendFile(name, data)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if ft := f.hit(OpRename); ft != nil {
		return &InjectedError{Op: OpRename, Name: newpath, Mode: ft.mode, transient: ft.transient}
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if ft := f.hit(OpRead); ft != nil {
		return nil, &InjectedError{Op: OpRead, Name: name, Mode: ft.mode, transient: ft.transient}
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	if ft := f.hit(OpReadDir); ft != nil {
		return nil, &InjectedError{Op: OpReadDir, Name: dir, Mode: ft.mode, transient: ft.transient}
	}
	return f.inner.ReadDir(dir)
}

func (f *FaultFS) Remove(name string) error {
	if ft := f.hit(OpRemove); ft != nil {
		return &InjectedError{Op: OpRemove, Name: name, Mode: ft.mode, transient: ft.transient}
	}
	return f.inner.Remove(name)
}

// FlakyFile wraps a followable trace file (structurally matching
// lockdoc/internal/trace.File) so its first FailReads ReadAt calls and
// first FailStats Stat calls fail with a transient InjectedError, then
// succeed — the fail-N-then-succeed injector the Follower's retry path
// is tested against.
type FlakyFile struct {
	Inner interface {
		ReadAt(p []byte, off int64) (int, error)
		Stat() (fs.FileInfo, error)
		Close() error
	}
	FailReads int
	FailStats int

	mu    sync.Mutex
	reads int
	stats int
}

// ReadCalls reports how many ReadAt calls were issued (including
// failed ones).
func (f *FlakyFile) ReadCalls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads
}

func (f *FlakyFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	f.reads++
	fail := f.reads <= f.FailReads
	f.mu.Unlock()
	if fail {
		return 0, &InjectedError{Op: OpRead, Name: "flaky-file", Mode: "fail", transient: true}
	}
	return f.Inner.ReadAt(p, off)
}

func (f *FlakyFile) Stat() (fs.FileInfo, error) {
	f.mu.Lock()
	f.stats++
	fail := f.stats <= f.FailStats
	f.mu.Unlock()
	if fail {
		return nil, &InjectedError{Op: OpRead, Name: "flaky-file", Mode: "fail", transient: true}
	}
	return f.Inner.Stat()
}

func (f *FlakyFile) Close() error { return f.Inner.Close() }
