package sim

// event is one scheduled Task invocation. Every event comes from the
// scheduler's free list and goes back to it the moment it leaves the heap
// (fired, cancelled or dropped by Reset), so steady-state scheduling costs
// no allocation. That matters most on the PHY broadcast hot path: two
// batched arrival events per frame (first-bit and last-bit, each iterating
// the whole receiver batch), or two events per receiver per frame in the
// unbatched reference mode. Either way one executed event may deliver to
// many radios — Executed counts scheduler dispatches, not per-receiver
// deliveries.
type event struct {
	at    Time
	seq   uint64 // creation order; breaks ties deterministically (FIFO)
	task  Task
	arg   int
	index int // heap index, -1 once popped
}

// Task is what an event runs: a long-lived object whose Run method is
// invoked when the event fires. The integer argument lets one object serve
// several event kinds (e.g. frame-arrival start and end) or several peers
// (e.g. a router's per-destination timers) without per-event state.
type Task interface {
	Run(arg int)
}

// heapEntry is one slot of the event queue. The ordering key (at, seq) is
// stored inline so that sift comparisons stay within the backing array
// instead of chasing *event pointers — the queue is the simulator's hottest
// data structure.
type heapEntry struct {
	at  Time
	seq uint64
	ev  *event
}

// eventHeap is a hand-rolled 4-ary min-heap ordered by (at, seq). A wider
// node halves the tree depth of the binary heap and the sift loops move a
// hole instead of swapping (one entry write + one index write per level),
// which together remove the container/heap interface dispatch and most of
// the memory traffic from the hot path.
type eventHeap []heapEntry

func entryLess(a, b heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (h eventHeap) siftUp(i int) {
	entry := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(entry, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = i
		i = p
	}
	h[i] = entry
	entry.ev.index = i
}

func (h eventHeap) siftDown(i int) {
	entry := h[i]
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if entryLess(h[j], h[m]) {
				m = j
			}
		}
		if !entryLess(h[m], entry) {
			break
		}
		h[i] = h[m]
		h[i].ev.index = i
		i = m
	}
	h[i] = entry
	entry.ev.index = i
}

func (h *eventHeap) push(e *event) {
	*h = append(*h, heapEntry{at: e.at, seq: e.seq, ev: e})
	h.siftUp(len(*h) - 1)
}

// popMin removes and returns the earliest event. (Floyd's bottom-up
// deletion was tried here and measured slower: short-lived arrival events
// keep the tail entries young, so the classic sift-down's early exit beats
// the unconditional hole-to-leaf walk.)
func (h *eventHeap) popMin() *event {
	old := *h
	e := old[0].ev
	n := len(old) - 1
	last := old[n]
	old[n] = heapEntry{}
	*h = old[:n]
	if n > 0 {
		old[0] = last
		h.siftDown(0)
	}
	e.index = -1
	return e
}

// remove deletes the entry at index i.
func (h *eventHeap) remove(i int) {
	old := *h
	e := old[i].ev
	n := len(old) - 1
	last := old[n]
	old[n] = heapEntry{}
	*h = old[:n]
	if i < n {
		old[i] = last
		h.siftDown(i)
		h.siftUp(i)
	}
	e.index = -1
}

// Scheduler is a discrete-event scheduler: a priority queue of timestamped
// Task invocations executed in (time, insertion-order) order while a
// virtual clock advances. It is not safe for concurrent use; a simulation
// owns exactly one scheduler and runs on one goroutine.
type Scheduler struct {
	heap    eventHeap
	free    []*event // recycled events
	now     Time
	seq     uint64
	stopped bool
	// Executed counts events that have been dispatched; useful for
	// progress accounting and performance reporting.
	Executed uint64
}

// NewScheduler returns an empty scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{heap: make(eventHeap, 0, 1024)}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Len returns the number of pending events (tests and stats). Cancel
// removes an event from the queue at once, so every counted event will
// fire unless it is cancelled later.
func (s *Scheduler) Len() int { return len(s.heap) }

// Scheduled returns how many events have been scheduled on s so far, which
// is the tie-break sequence number the next one takes (tests and stats).
func (s *Scheduler) Scheduled() uint64 { return s.seq }

// FreeListLen reports the size of the event free list (tests/stats).
func (s *Scheduler) FreeListLen() int { return len(s.free) }

// TaskHandle is a revocation token for a scheduled event. It pairs the
// event with the globally unique sequence number it was created with, so a
// handle kept past the event's firing (and the event struct's recycling
// into another event) is detected and ignored rather than cancelling an
// unrelated event. The zero TaskHandle refers to nothing; Pending reports
// false for it.
type TaskHandle struct {
	ev  *event
	seq uint64
}

// Pending reports whether the handle refers to an event at all. It does not
// track firing — callers that need "still scheduled" semantics must clear
// their handle when the task runs (the task's Run is the notification).
func (h TaskHandle) Pending() bool { return h.ev != nil }

// At schedules task.Run(arg) at virtual time t and returns a handle for
// Cancel, which callers that never cancel may ignore. Scheduling in the
// past panics: it indicates a logic error in the calling model, and
// silently reordering events would destroy causality.
func (s *Scheduler) At(t Time, task Task, arg int) TaskHandle {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &event{}
	}
	*e = event{at: t, seq: s.seq, task: task, arg: arg}
	s.seq++
	s.heap.push(e)
	return TaskHandle{ev: e, seq: e.seq}
}

// After schedules task.Run(arg) to run d after the current time; see At.
func (s *Scheduler) After(d Duration, task Task, arg int) TaskHandle {
	if d < 0 {
		panic("sim: negative delay")
	}
	return s.At(s.now.Add(d), task, arg)
}

// Cancel revokes a scheduled event, removing it from the queue at once.
// Stale handles — the event already fired, was cancelled, or its struct was
// recycled for a newer event — are detected by the sequence check and
// ignored, as is the zero handle, so Cancel can never corrupt the free
// list or cancel the wrong event.
func (s *Scheduler) Cancel(h TaskHandle) {
	e := h.ev
	if e == nil || e.seq != h.seq || e.index < 0 {
		return
	}
	s.heap.remove(e.index)
	s.recycle(e)
}

// recycle returns an event that has left the heap to the free list.
func (s *Scheduler) recycle(e *event) {
	// The sentinel seq makes any retained TaskHandle to this event provably
	// stale while it sits in the free list (the seq counter never reaches it).
	*e = event{index: -1, seq: ^uint64(0)}
	s.free = append(s.free, e)
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It returns false when the queue is empty. Cancelled events
// never appear here: Cancel removes them from the heap eagerly.
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	s.fire(s.heap.popMin())
	return true
}

// fire advances the clock to a popped event, runs it and recycles it.
func (s *Scheduler) fire(e *event) {
	s.now = e.at
	s.Executed++
	e.task.Run(e.arg)
	s.recycle(e)
}

// RunUntil executes events in order until the queue is empty or the next
// event lies strictly beyond the horizon; the clock is then advanced to the
// horizon. Stop aborts the loop early.
func (s *Scheduler) RunUntil(horizon Time) {
	s.stopped = false
	for len(s.heap) > 0 && !s.stopped {
		if s.heap[0].at > horizon {
			break
		}
		s.fire(s.heap.popMin())
	}
	if s.now < horizon {
		s.now = horizon
	}
}

// RunUntilBudget executes at most budget events in order up to the
// horizon and reports whether the run is complete (no pending event at or
// before the horizon remains). It is RunUntil sliced into resumable
// chunks: calling it repeatedly until it returns true pops exactly the
// same events in exactly the same order as one RunUntil call — the clock
// is only advanced to the horizon on completion — which is what lets a
// watchdog (scenario.Scenario.RunWatched) interleave wall-clock and
// event-budget checks between chunks without perturbing a single bit of
// the simulation. Stop aborts the current chunk early (reported as not
// complete unless the queue happens to be drained).
func (s *Scheduler) RunUntilBudget(horizon Time, budget uint64) bool {
	s.stopped = false
	for budget > 0 && len(s.heap) > 0 && !s.stopped {
		if s.heap[0].at > horizon {
			break
		}
		s.fire(s.heap.popMin())
		budget--
	}
	done := len(s.heap) == 0 || s.heap[0].at > horizon
	if done && s.now < horizon {
		s.now = horizon
	}
	return done
}

// Run executes every pending event (including ones scheduled while running)
// until the queue empties or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// Stop makes the innermost Run/RunUntil return after the current event.
func (s *Scheduler) Stop() { s.stopped = true }

// Reset returns the scheduler to its freshly-constructed state — clock at
// zero, no pending events — while keeping the heap's backing array and
// the event free list. Pending events are recycled into the free list
// (their Task references cleared so nothing from the previous simulation
// is pinned).
//
// The sequence counter deliberately keeps counting across Reset: only the
// relative order of seq values is observable (FIFO tie-breaking among
// same-time events), so continuing the count changes no behaviour, while
// restarting it would let a TaskHandle retained across Reset alias a
// recycled event re-issued under the same seq — voiding Cancel's
// stale-handle guarantee. A Reset scheduler is therefore observationally
// indistinguishable from NewScheduler's, which is what lets a worker
// reuse one scheduler across runs without perturbing a single bit of the
// results (scenario.Context relies on this).
func (s *Scheduler) Reset() {
	for i := range s.heap {
		s.recycle(s.heap[i].ev)
		s.heap[i] = heapEntry{}
	}
	s.heap = s.heap[:0]
	s.now = 0
	s.stopped = false
	s.Executed = 0
}
