// Package kernel implements the instrumented-target runtime of LockDoc's
// monitoring phase: an object/type registry with member layouts, a bump
// allocator handing out synthetic addresses, instrumented member
// accessors that emit read/write trace events, simulated call stacks
// with source locations, and line-coverage accounting.
//
// The package plays the role of the source-code instrumentation plus the
// Fail*/Bochs memory-access listeners of the paper: every allocation,
// deallocation, member access and (via the locks package) lock operation
// of the simulated kernel flows through here and into a trace.Writer.
package kernel

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"lockdoc/internal/sched"
	"lockdoc/internal/trace"
)

// Address-space layout of the simulated kernel. Static (global) data
// lives below dynBase; dynamic allocations are handed out above it.
const (
	staticBase = 0x0000_1000
	dynBase    = 0x0100_0000
)

// Kernel ties together the scheduler, the trace writer and the
// instrumentation registries. All methods must be called from simulated
// control flows (which the scheduler serializes), never from multiple
// goroutines at once.
type Kernel struct {
	Sched *sched.Scheduler

	tw  *trace.Writer
	seq uint64

	types      []*TypeInfo
	typeByName map[string]*TypeInfo

	funcs     []*FuncInfo
	funcByKey map[string]*FuncInfo

	stacks    map[string]uint32
	nextStack uint32

	ctxs    []*Context
	nextCtx uint32

	nextAllocID uint64
	nextLockID  uint64
	dynBrk      uint64
	staticBrk   uint64
	freeLists   map[*TypeInfo][]uint64 // recycled addresses, slab-style
	liveAllocs  map[uint64]*Object     // by allocation ID

	// MemTicks is the pseudo-time cost charged per member access
	// (drives preemption realism). Defaults to 1.
	MemTicks int

	err error // first trace-write error; checked at Finish
}

// New creates a kernel writing its trace to w, scheduled by s.
func New(s *sched.Scheduler, w *trace.Writer) *Kernel {
	return &Kernel{
		Sched:      s,
		tw:         w,
		typeByName: make(map[string]*TypeInfo),
		funcByKey:  make(map[string]*FuncInfo),
		stacks:     make(map[string]uint32),
		dynBrk:     dynBase,
		staticBrk:  staticBase,
		freeLists:  make(map[*TypeInfo][]uint64),
		liveAllocs: make(map[uint64]*Object),
		MemTicks:   1,
	}
}

// Err returns the first error encountered while emitting trace events.
func (k *Kernel) Err() error {
	if k.err != nil {
		return k.err
	}
	if k.tw != nil {
		return k.tw.Err()
	}
	return nil
}

// Finish flushes the trace.
func (k *Kernel) Finish() error {
	if k.err != nil {
		return k.err
	}
	if k.tw == nil {
		return nil
	}
	return k.tw.Flush()
}

// EventCount reports the number of trace events emitted so far.
func (k *Kernel) EventCount() uint64 { return k.seq }

func (k *Kernel) emit(ev *trace.Event) {
	k.seq++
	ev.Seq = k.seq
	ev.TS = k.Sched.Now()
	if k.tw == nil || k.err != nil {
		return
	}
	if err := k.tw.Write(ev); err != nil && k.err == nil {
		k.err = err
	}
}

// StaticAddr reserves size bytes of static (global) address space; used
// for globally defined locks.
func (k *Kernel) StaticAddr(size uint32) uint64 {
	a := k.staticBrk
	k.staticBrk += uint64(size+7) &^ 7
	return a
}

// DefineLock assigns a fresh lock ID and emits its definition event.
// ownerAddr is zero for global locks. The locks package is the only
// intended caller.
func (k *Kernel) DefineLock(name string, class trace.LockClass, lockAddr, ownerAddr uint64) uint64 {
	k.nextLockID++
	k.emit(&trace.Event{
		Kind: trace.KindDefLock, LockID: k.nextLockID, LockName: name,
		Class: class, LockAddr: lockAddr, OwnerAddr: ownerAddr,
	})
	return k.nextLockID
}

// EmitLockOp records an acquire or release of the given lock in context
// c. The locks package is the only intended caller.
func (k *Kernel) EmitLockOp(c *Context, kind trace.Kind, lockID uint64, reader bool, fnID, line uint32) {
	k.emit(&trace.Event{
		Kind: kind, Ctx: c.id, LockID: lockID, Reader: reader,
		FuncID: fnID, Line: line,
	})
}

// Context is one simulated execution context: a task, a softirq or a
// hardirq. It carries the simulated call stack used for source
// attribution of events.
type Context struct {
	k    *Kernel
	id   uint32
	kind trace.CtxKind
	task *sched.Task // nil for interrupt contexts

	stack   []*FuncInfo
	stackID uint32 // interned ID of the current stack, 0 = dirty
}

// NewContext registers an execution context of the given kind. For task
// contexts, t is the backing scheduler task; interrupt contexts pass nil.
func (k *Kernel) NewContext(kind trace.CtxKind, name string, t *sched.Task) *Context {
	k.nextCtx++
	c := &Context{k: k, id: k.nextCtx, kind: kind, task: t}
	k.ctxs = append(k.ctxs, c)
	k.emit(&trace.Event{Kind: trace.KindDefCtx, CtxID: c.id, CtxKind: kind, CtxName: name})
	return c
}

// Go spawns a simulated kernel thread and returns its context. The body
// receives the context; the underlying scheduler task is reachable via
// Task().
func (k *Kernel) Go(name string, body func(*Context)) *Context {
	var c *Context
	t := k.Sched.Go(name, func(task *sched.Task) {
		body(c)
	})
	c = k.NewContext(trace.CtxTask, name, t)
	return c
}

// Kernel returns the owning kernel.
func (c *Context) Kernel() *Kernel { return c.k }

// ID returns the trace context ID.
func (c *Context) ID() uint32 { return c.id }

// Kind returns the context kind.
func (c *Context) Kind() trace.CtxKind { return c.kind }

// Task returns the scheduler task backing a task context, or nil for
// interrupt contexts.
func (c *Context) Task() *sched.Task { return c.task }

// Tick charges n pseudo-time units; in task contexts this is a
// preemption point.
func (c *Context) Tick(n int) {
	if c.task != nil {
		c.task.Tick(n)
	}
}

// RegisterIRQ installs an interrupt source firing on average every
// `every` ticks. The handler runs in a dedicated interrupt context.
func (k *Kernel) RegisterIRQ(kind trace.CtxKind, name string, every int, handler func(*Context)) *Context {
	c := k.NewContext(kind, name, nil)
	k.Sched.RegisterIRQ(name, every, func() { handler(c) })
	return c
}

// FuncInfo describes a simulated source-level function.
type FuncInfo struct {
	ID    uint32
	File  string
	Line  uint32 // line of the function definition
	Name  string
	Lines uint32 // total source lines attributed to this function

	covered map[uint32]bool
	hit     bool
}

// Hit reports whether the function has ever executed.
func (f *FuncInfo) Hit() bool { return f.hit }

// Dir returns the source directory of the function's file, e.g.
// "fs/ext4" for "fs/ext4/inode.c".
func (f *FuncInfo) Dir() string {
	if i := strings.LastIndexByte(f.File, '/'); i >= 0 {
		return f.File[:i]
	}
	return "."
}

// Func registers (or returns the already-registered) function at
// file:line. lines is the number of source lines the function spans and
// feeds the coverage report.
func (k *Kernel) Func(file string, line uint32, name string, lines uint32) *FuncInfo {
	key := fmt.Sprintf("%s:%d:%s", file, line, name)
	if f, ok := k.funcByKey[key]; ok {
		return f
	}
	f := &FuncInfo{
		ID: uint32(len(k.funcs) + 1), File: file, Line: line, Name: name,
		Lines: lines, covered: make(map[uint32]bool),
	}
	k.funcs = append(k.funcs, f)
	k.funcByKey[key] = f
	k.emit(&trace.Event{Kind: trace.KindDefFunc, FuncID: f.ID, File: file, Line: line, Func: name})
	return f
}

// Funcs returns all registered functions.
func (k *Kernel) Funcs() []*FuncInfo { return k.funcs }

// Enter pushes fn onto the context's simulated call stack and emits a
// function-entry event. It returns fn so the idiomatic call is
//
//	defer c.Exit(c.Enter(fn))
func (c *Context) Enter(fn *FuncInfo) *FuncInfo {
	c.stack = append(c.stack, fn)
	c.stackID = 0
	fn.hit = true
	fn.covered[0] = true
	c.k.emit(&trace.Event{Kind: trace.KindFuncEnter, Ctx: c.id, FuncID: fn.ID})
	return fn
}

// Exit pops fn from the call stack. Popping out of order panics: that is
// a bug in the simulated kernel code.
func (c *Context) Exit(fn *FuncInfo) {
	if len(c.stack) == 0 || c.stack[len(c.stack)-1] != fn {
		panic(fmt.Sprintf("kernel: unbalanced Exit(%s) in ctx %d", fn.Name, c.id))
	}
	c.stack = c.stack[:len(c.stack)-1]
	c.stackID = 0
	c.k.emit(&trace.Event{Kind: trace.KindFuncExit, Ctx: c.id, FuncID: fn.ID})
}

// Top returns the innermost function, or nil at top level.
func (c *Context) Top() *FuncInfo {
	if len(c.stack) == 0 {
		return nil
	}
	return c.stack[len(c.stack)-1]
}

// Cover marks the basic block ending at source line (fn.Line + off) of
// the innermost function as executed: all lines between the closest
// previously covered line and off are recorded, the way a GCOV basic
// block covers its whole extent. Simulated function bodies call it at
// branch points.
func (c *Context) Cover(off uint32) {
	fn := c.Top()
	if fn == nil {
		return
	}
	if fn.covered[off] {
		return
	}
	// Find the closest covered line below off; the block spans from
	// there (exclusive) to off (inclusive).
	start := uint32(0)
	for l := range fn.covered {
		if l < off && l >= start {
			start = l + 1
		}
	}
	if off >= fn.Lines {
		off = fn.Lines - 1
	}
	for l := start; l <= off; l++ {
		fn.covered[l] = true
	}
	c.k.emit(&trace.Event{Kind: trace.KindCoverage, Ctx: c.id, FuncID: fn.ID, Line: fn.Line + off})
}

// internStack builds (and caches) the interned ID for the current call
// stack. This runs on every traced memory access, so key construction
// avoids fmt.
func (c *Context) internStack() uint32 {
	if c.stackID != 0 {
		return c.stackID
	}
	buf := make([]byte, 0, len(c.stack)*4)
	funcs := make([]uint32, len(c.stack))
	for i, f := range c.stack {
		buf = strconv.AppendUint(buf, uint64(f.ID), 10)
		buf = append(buf, ',')
		funcs[i] = f.ID
	}
	key := string(buf)
	id, ok := c.k.stacks[key]
	if !ok {
		c.k.nextStack++
		id = c.k.nextStack
		c.k.stacks[key] = id
		c.k.emit(&trace.Event{Kind: trace.KindDefStack, Ctx: c.id, StackID: id, StackFuncs: funcs})
	}
	c.stackID = id
	return id
}

// CoverageLine summarizes line/function coverage for one directory.
type CoverageLine struct {
	Dir          string
	LinesCovered int
	LinesTotal   int
	FuncsCovered int
	FuncsTotal   int
}

// LinePct returns the covered-line percentage.
func (c CoverageLine) LinePct() float64 {
	if c.LinesTotal == 0 {
		return 0
	}
	return 100 * float64(c.LinesCovered) / float64(c.LinesTotal)
}

// FuncPct returns the covered-function percentage.
func (c CoverageLine) FuncPct() float64 {
	if c.FuncsTotal == 0 {
		return 0
	}
	return 100 * float64(c.FuncsCovered) / float64(c.FuncsTotal)
}

// Coverage aggregates per-directory line and function coverage over all
// registered functions, in the style of the paper's Tab. 3 (GCOV).
func (k *Kernel) Coverage() []CoverageLine {
	byDir := make(map[string]*CoverageLine)
	for _, f := range k.funcs {
		cl := byDir[f.Dir()]
		if cl == nil {
			cl = &CoverageLine{Dir: f.Dir()}
			byDir[f.Dir()] = cl
		}
		cl.LinesTotal += int(f.Lines)
		cl.FuncsTotal++
		if f.hit {
			cl.FuncsCovered++
			n := len(f.covered)
			if n > int(f.Lines) {
				n = int(f.Lines)
			}
			cl.LinesCovered += n
		}
	}
	out := make([]CoverageLine, 0, len(byDir))
	for _, cl := range byDir {
		out = append(out, *cl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dir < out[j].Dir })
	return out
}
