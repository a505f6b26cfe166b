// Package sched implements a deterministic cooperative scheduler that
// stands in for the paper's single-core Bochs emulation environment.
//
// All simulated kernel control flows (tasks, and injected softirq /
// hardirq handlers) execute one at a time: a single "CPU token" is handed
// from the scheduler to exactly one task goroutine, and handed back when
// the task yields, blocks, sleeps or exits. Preemption points are
// explicit (Tick), as they are in an instruction-level emulator, and the
// choice of the next runnable task is drawn from a seeded PRNG — so a
// given (workload, seed) pair always produces bit-identical traces.
//
// Interrupt handlers are injected *synchronously* at preemption points of
// the current task, which models a hardware interrupt preempting the
// running CPU context exactly: the handler runs to completion on the
// interrupted task's goroutine, and events it emits are attributed to a
// separate execution context.
package sched

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// State enumerates the life cycle of a task.
type State uint8

// Task states.
const (
	StateNew State = iota
	StateRunnable
	StateRunning
	StateBlocked
	StateSleeping
	StateDone
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateSleeping:
		return "sleeping"
	case StateDone:
		return "done"
	default:
		return "invalid"
	}
}

// Task is one simulated kernel thread.
type Task struct {
	ID    uint32
	Name  string
	sched *Scheduler

	state   State
	resume  chan struct{}
	body    func(*Task)
	blocked *WaitQueue // wait queue the task is blocked on, if any
	wakeAt  uint64     // tick deadline while sleeping

	// NoPreempt, while positive, suppresses involuntary preemption at
	// Tick points; IRQOff additionally suppresses interrupt injection.
	// The lock layer uses them to model preempt_disable and
	// local_irq_disable critical sections.
	NoPreempt int
	IRQOff    int
}

// State reports the task's current scheduling state.
func (t *Task) State() State { return t.state }

// Scheduler runs tasks deterministically. It must be driven from a
// single goroutine via Run; task bodies run on their own goroutines but
// never concurrently with each other or with the scheduler loop.
type Scheduler struct {
	rng    *rand.Rand
	tasks  []*Task
	nextID uint32

	runnable []*Task
	current  *Task
	back     chan struct{} // CPU token returned to the scheduler loop

	ticks  uint64
	timers timerHeap

	// preemptEvery is the mean number of ticks between forced
	// preemptions (0 disables preemption).
	preemptEvery int
	// irqs holds registered interrupt sources.
	irqs []*irqSource

	// Panic diagnostics hook: called to describe extra state (e.g. held
	// locks) when the system deadlocks.
	DeadlockInfo func() string

	taskPanic string // first task panic message, re-raised by Run
	running   bool
}

type irqSource struct {
	name    string
	every   int // mean ticks between firings
	handler func()
	pending bool
}

// New returns a scheduler seeded with seed. preemptEvery is the mean
// number of ticks between involuntary preemptions of the running task;
// zero disables involuntary preemption (tasks then run until they yield
// or block).
func New(seed int64, preemptEvery int) *Scheduler {
	return &Scheduler{
		rng:          rand.New(rand.NewSource(seed)),
		back:         make(chan struct{}),
		preemptEvery: preemptEvery,
	}
}

// Now returns the current tick count (the pseudo time stamp used in
// traces).
func (s *Scheduler) Now() uint64 { return s.ticks }

// Go creates a new task executing body. Tasks may be created before Run
// or from inside other tasks.
func (s *Scheduler) Go(name string, body func(*Task)) *Task {
	s.nextID++
	t := &Task{
		ID:     s.nextID,
		Name:   name,
		sched:  s,
		state:  StateRunnable,
		resume: make(chan struct{}),
		body:   body,
	}
	s.tasks = append(s.tasks, t)
	s.runnable = append(s.runnable, t)
	go func() {
		<-t.resume // wait for first dispatch
		defer func() {
			if r := recover(); r != nil {
				// Surface task panics in the scheduler loop instead of
				// hanging the handshake.
				s.taskPanic = fmt.Sprintf("task %q panicked: %v", t.Name, r)
			}
			t.state = StateDone
			s.back <- struct{}{}
		}()
		t.body(t)
	}()
	return t
}

// RegisterIRQ registers an interrupt source that fires on average every
// `every` ticks at preemption points of the running task. The handler
// runs synchronously in interrupt context (the caller is responsible for
// switching trace contexts).
func (s *Scheduler) RegisterIRQ(name string, every int, handler func()) {
	if every <= 0 {
		panic("sched: irq rate must be positive")
	}
	s.irqs = append(s.irqs, &irqSource{name: name, every: every, handler: handler})
}

// Run dispatches tasks until all of them have finished. It panics with a
// diagnostic if all remaining tasks are blocked with no timer pending —
// a genuine deadlock in the simulated system.
func (s *Scheduler) Run() {
	if s.running {
		panic("sched: Run called reentrantly")
	}
	s.running = true
	defer func() { s.running = false }()

	for {
		if len(s.runnable) == 0 {
			if s.timers.Len() == 0 {
				if s.liveTasks() == 0 {
					return // all work done
				}
				panic("sched: deadlock: " + s.describeBlocked())
			}
			// Idle: advance time to the earliest timer.
			s.fireTimers(s.timers[0].at)
			continue
		}
		// Deterministic choice among runnable tasks.
		idx := 0
		if len(s.runnable) > 1 {
			idx = s.rng.Intn(len(s.runnable))
		}
		t := s.runnable[idx]
		s.runnable = append(s.runnable[:idx], s.runnable[idx+1:]...)
		t.state = StateRunning
		s.current = t
		t.resume <- struct{}{}
		<-s.back
		s.current = nil
		if s.taskPanic != "" {
			panic("sched: " + s.taskPanic)
		}
		if t.state == StateRunning { // voluntary yield path re-queues
			t.state = StateRunnable
			s.runnable = append(s.runnable, t)
		}
	}
}

func (s *Scheduler) liveTasks() int {
	n := 0
	for _, t := range s.tasks {
		if t.state != StateDone {
			n++
		}
	}
	return n
}

func (s *Scheduler) describeBlocked() string {
	var b strings.Builder
	for _, t := range s.tasks {
		if t.state == StateBlocked || t.state == StateSleeping {
			fmt.Fprintf(&b, "task %q (%s)", t.Name, t.state)
			if t.blocked != nil {
				fmt.Fprintf(&b, " on %q", t.blocked.Name)
			}
			b.WriteString("; ")
		}
	}
	if s.DeadlockInfo != nil {
		b.WriteString(s.DeadlockInfo())
	}
	return b.String()
}

// fireTimers advances the clock to `to` and wakes every sleeper due by
// then.
func (s *Scheduler) fireTimers(to uint64) {
	if to > s.ticks {
		s.ticks = to
	}
	for s.timers.Len() > 0 && s.timers[0].at <= s.ticks {
		tm := heap.Pop(&s.timers).(*timer)
		if tm.task.state == StateSleeping {
			tm.task.state = StateRunnable
			s.runnable = append(s.runnable, tm.task)
		}
	}
}

// Tick advances pseudo time by n from the running task and gives the
// scheduler a chance to inject interrupts or preempt. It must be called
// from the current task's goroutine.
func (t *Task) Tick(n int) {
	s := t.sched
	s.ticks += uint64(n)
	s.fireTimers(s.ticks)
	if t.IRQOff == 0 {
		for _, irq := range s.irqs {
			if s.rng.Intn(irq.every) == 0 {
				irq.handler()
			}
		}
	}
	if t.NoPreempt == 0 && s.preemptEvery > 0 && len(s.runnable) > 0 && s.rng.Intn(s.preemptEvery) == 0 {
		t.Yield()
	}
}

// Yield hands the CPU back to the scheduler; the task remains runnable.
func (t *Task) Yield() {
	s := t.sched
	// state stays StateRunning; Run re-queues it.
	s.back <- struct{}{}
	<-t.resume
}

// Sleep blocks the task for the given number of ticks.
func (t *Task) Sleep(ticks uint64) {
	s := t.sched
	t.state = StateSleeping
	t.wakeAt = s.ticks + ticks
	heap.Push(&s.timers, &timer{at: t.wakeAt, task: t})
	s.back <- struct{}{}
	<-t.resume
}

// WaitQueue is a FIFO queue of blocked tasks, the moral equivalent of a
// kernel wait_queue_head_t.
type WaitQueue struct {
	Name    string
	waiters []*Task
}

// NewWaitQueue returns an empty wait queue with a diagnostic name.
func NewWaitQueue(name string) *WaitQueue { return &WaitQueue{Name: name} }

// Len reports the number of blocked tasks.
func (wq *WaitQueue) Len() int { return len(wq.waiters) }

// Block suspends the current task on wq until another control flow calls
// WakeOne/WakeAll.
func (t *Task) Block(wq *WaitQueue) {
	s := t.sched
	t.state = StateBlocked
	t.blocked = wq
	wq.waiters = append(wq.waiters, t)
	s.back <- struct{}{}
	<-t.resume
	t.blocked = nil
}

// WakeOne makes the longest-waiting task on wq runnable again. It
// reports whether a task was woken.
func (s *Scheduler) WakeOne(wq *WaitQueue) bool {
	if len(wq.waiters) == 0 {
		return false
	}
	t := wq.waiters[0]
	wq.waiters = wq.waiters[1:]
	t.state = StateRunnable
	s.runnable = append(s.runnable, t)
	return true
}

// WakeAll wakes every task blocked on wq and returns how many were woken.
func (s *Scheduler) WakeAll(wq *WaitQueue) int {
	n := len(wq.waiters)
	for _, t := range wq.waiters {
		t.state = StateRunnable
		s.runnable = append(s.runnable, t)
	}
	wq.waiters = nil
	return n
}

// Rand returns a deterministic pseudo-random int in [0, n). Workloads use
// this instead of math/rand so that a seed fully determines a run.
func (s *Scheduler) Rand(n int) int { return s.rng.Intn(n) }

// Snapshot returns a human-readable dump of task states, sorted by ID,
// for tests and deadlock diagnostics.
func (s *Scheduler) Snapshot() string {
	ts := append([]*Task(nil), s.tasks...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].ID < ts[j].ID })
	var b strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&b, "%d:%s=%s ", t.ID, t.Name, t.state)
	}
	return strings.TrimSpace(b.String())
}

// timer entries order sleeping tasks by deadline.
type timer struct {
	at   uint64
	task *Task
}

type timerHeap []*timer

func (h timerHeap) Len() int            { return len(h) }
func (h timerHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}
