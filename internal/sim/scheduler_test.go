package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if got := Time(2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds() = %v", got)
	}
	if got := Micros(50); got != 50*Microsecond {
		t.Fatalf("Micros(50) = %v", got)
	}
	tm := Time(0).Add(3 * Second)
	if tm.Sub(Time(Second)) != 2*Second {
		t.Fatalf("Sub wrong")
	}
	if tm.String() != "3.000000s" {
		t.Fatalf("String = %q", tm.String())
	}
	if Duration(1500*Microsecond).String() != "0.001500s" {
		t.Fatalf("Duration.String = %q", Duration(1500*Microsecond).String())
	}
}

// do adapts a closure to Task for ad-hoc test events.
type do func()

func (f do) Run(int) { f() }

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(3*Time(Second), do(func() { got = append(got, 3) }), 0)
	s.At(1*Time(Second), do(func() { got = append(got, 1) }), 0)
	s.At(2*Time(Second), do(func() { got = append(got, 2) }), 0)
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 3*Time(Second) {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	s := NewScheduler()
	tr := &taskRec{}
	for i := 0; i < 10; i++ {
		s.At(Time(Second), tr, i)
	}
	s.Run()
	got := tr.got
	if len(got) != 10 {
		t.Fatalf("ran %d of 10 events", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered: %v", got)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	h := s.At(Time(Second), do(func() { fired = true }), 0)
	if !h.Pending() {
		t.Fatal("At returned a zero handle")
	}
	s.Cancel(h)
	s.Cancel(h)            // double-cancel is a no-op
	s.Cancel(TaskHandle{}) // so is the zero handle
	if s.Len() != 0 {
		t.Fatalf("cancelled event still queued: Len = %d", s.Len())
	}
	if s.FreeListLen() != 1 {
		t.Fatalf("cancelled event not recycled: free list %d", s.FreeListLen())
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSchedulerCancelDuringRun(t *testing.T) {
	s := NewScheduler()
	fired := false
	var h2 TaskHandle
	s.At(Time(Second), do(func() { s.Cancel(h2) }), 0)
	h2 = s.At(2*Time(Second), do(func() { fired = true }), 0)
	s.Run()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestSchedulerRunUntilHorizon(t *testing.T) {
	s := NewScheduler()
	var got []Time
	for i := 1; i <= 5; i++ {
		i := i
		s.At(Time(i)*Time(Second), do(func() { got = append(got, s.Now()) }), 0)
	}
	s.RunUntil(3 * Time(Second))
	if len(got) != 3 {
		t.Fatalf("executed %d events, want 3", len(got))
	}
	if s.Now() != 3*Time(Second) {
		t.Fatalf("clock = %v, want horizon", s.Now())
	}
	// Remaining events still run afterwards.
	s.RunUntil(10 * Time(Second))
	if len(got) != 5 {
		t.Fatalf("executed %d events total, want 5", len(got))
	}
	if s.Now() != 10*Time(Second) {
		t.Fatalf("clock = %v, want 10s", s.Now())
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 0; i < 10; i++ {
		s.At(Time(i)*Time(Second), do(func() {
			count++
			if count == 4 {
				s.Stop()
			}
		}), 0)
	}
	s.Run()
	if count != 4 {
		t.Fatalf("ran %d events after Stop, want 4", count)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(Time(Second), &taskRec{}, 0)
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(0, &taskRec{}, 0)
}

func TestSchedulerNegativeDelayPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.After(-1, &taskRec{}, 0)
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var got []Time
	s.At(Time(Second), do(func() {
		s.After(Duration(Second), do(func() { got = append(got, s.Now()) }), 0)
	}), 0)
	s.Run()
	if len(got) != 1 || got[0] != 2*Time(Second) {
		t.Fatalf("nested event: %v", got)
	}
}

// Property: for any multiset of event times, execution order is the sorted
// order, with FIFO among equal timestamps.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		s := NewScheduler()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, v := range raw {
			at := Time(v) * Time(Microsecond)
			s.At(at, do(func() { fired = append(fired, rec{at, i}) }), 0)
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		ok := sort.SliceIsSorted(fired, func(a, b int) bool {
			if fired[a].at != fired[b].at {
				return fired[a].at < fired[b].at
			}
			return fired[a].seq < fired[b].seq
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset fires exactly the complement.
func TestSchedulerCancelProperty(t *testing.T) {
	f := func(times []uint16, mask []bool) bool {
		s := NewScheduler()
		fired := map[int]bool{}
		events := make([]TaskHandle, len(times))
		for i, v := range times {
			events[i] = s.At(Time(v), do(func() { fired[i] = true }), 0)
		}
		cancelled := map[int]bool{}
		for i := range events {
			if i < len(mask) && mask[i] {
				s.Cancel(events[i])
				cancelled[i] = true
			}
		}
		s.Run()
		for i := range events {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestDeriveSeedSeparation(t *testing.T) {
	s1 := DeriveSeed(7, "mobility")
	s2 := DeriveSeed(7, "traffic")
	s3 := DeriveSeed(8, "mobility")
	if s1 == s2 || s1 == s3 {
		t.Fatalf("derived seeds collide: %d %d %d", s1, s2, s3)
	}
	if s1 != DeriveSeed(7, "mobility") {
		t.Fatal("DeriveSeed not deterministic")
	}
}

func TestRNGUniformRange(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestRNGJitterRange(t *testing.T) {
	g := NewRNG(1)
	if g.Jitter(0) != 0 {
		t.Fatal("Jitter(0) != 0")
	}
	for i := 0; i < 1000; i++ {
		j := g.Jitter(Second)
		if j < 0 || j >= Second {
			t.Fatalf("jitter out of range: %v", j)
		}
	}
}

func TestRNGDeriveIndependence(t *testing.T) {
	// Consuming extra draws from one derived stream must not change
	// another derived stream (paired-comparison property).
	g1 := NewRNG(99)
	a := g1.Derive("a")
	b1 := g1.Derive("b")
	firstB1 := b1.Float64()

	g2 := NewRNG(99)
	a2 := g2.Derive("a")
	for i := 0; i < 50; i++ {
		a2.Float64() // extra draws
	}
	b2 := g2.Derive("b")
	if firstB1 != b2.Float64() {
		t.Fatal("derived stream perturbed by sibling draws")
	}
	_ = a
}

func TestRNGExpPositive(t *testing.T) {
	g := NewRNG(5)
	sum := 0.0
	for i := 0; i < 5000; i++ {
		v := g.Exp(2.0)
		if v < 0 {
			t.Fatalf("negative exponential sample %v", v)
		}
		sum += v
	}
	mean := sum / 5000
	if mean < 1.6 || mean > 2.4 {
		t.Fatalf("exp mean = %v, want ~2.0", mean)
	}
}

func TestRNGPerm(t *testing.T) {
	g := NewRNG(3)
	p := g.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}

// taskRec is a Task recording the args it was dispatched with.
type taskRec struct{ got []int }

func (t *taskRec) Run(arg int) { t.got = append(t.got, arg) }

func TestSchedulerTaskEventsDispatchInOrder(t *testing.T) {
	s := NewScheduler()
	tr := &taskRec{}
	seen := -1 // len(tr.got) when the adapter ran
	s.At(2*Time(Second), tr, 2)
	s.At(Time(Second), do(func() { seen = len(tr.got) }), 0)
	s.At(Time(Second), tr, 1) // same time as the adapter, scheduled later
	s.After(Duration(3*Second), tr, 3)
	s.Run()
	if len(tr.got) != 3 || tr.got[0] != 1 || tr.got[1] != 2 || tr.got[2] != 3 {
		t.Fatalf("task args = %v", tr.got)
	}
	if seen != 0 {
		t.Fatalf("same-time events out of FIFO order: adapter saw %d task runs, want 0", seen)
	}
	if s.Executed != 4 {
		t.Fatalf("Executed = %d, want 4", s.Executed)
	}
}

func TestSchedulerTaskEventPoolReuse(t *testing.T) {
	s := NewScheduler()
	tr := &taskRec{}
	for i := 0; i < 100; i++ {
		s.After(Duration(Millisecond), tr, i)
		s.Step()
	}
	if len(tr.got) != 100 {
		t.Fatalf("dispatched %d, want 100", len(tr.got))
	}
	// Sequential schedule/fire needs exactly one pooled Event.
	if s.FreeListLen() != 1 {
		t.Fatalf("free list holds %d events, want 1", s.FreeListLen())
	}
}

func TestSchedulerTaskEventZeroAllocSteadyState(t *testing.T) {
	s := NewScheduler()
	tr := &taskRec{got: make([]int, 0, 4096)}
	// Warm up the pool.
	s.After(0, tr, 0)
	s.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(Duration(Millisecond), tr, 0)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("task scheduling allocates %.1f objects/op, want 0", allocs)
	}
}

// A handle kept past its event's firing is stale: cancelling it must not
// touch the free list, nor the newer event that reuses its struct.
func TestSchedulerCancelAfterFired(t *testing.T) {
	s := NewScheduler()
	tr := &taskRec{}
	h := s.At(Time(Second), tr, 1)
	s.Run()
	s.Cancel(h) // must be a harmless no-op
	if s.FreeListLen() != 1 {
		t.Fatalf("free list holds %d events after a stale Cancel, want 1", s.FreeListLen())
	}
	h2 := s.After(Duration(Second), tr, 2)
	if h2.ev != h.ev {
		t.Fatal("precondition: the second event should reuse the fired one's struct")
	}
	s.Cancel(h)
	s.Run()
	if len(tr.got) != 2 || tr.got[0] != 1 || tr.got[1] != 2 {
		t.Fatalf("runs = %v, want [1 2]", tr.got)
	}
}

// A handle kept across Reset refers to a dead simulation: it must not
// cancel an event scheduled after the Reset, even one that reuses its
// event struct.
func TestSchedulerHandleAcrossResetIsStale(t *testing.T) {
	s := NewScheduler()
	tr := &taskRec{}
	h := s.At(Time(Second), tr, 1)
	s.Reset()
	h2 := s.At(Time(Second), tr, 2)
	if h2.ev != h.ev {
		t.Fatal("precondition: the post-Reset event should reuse the dropped one's struct")
	}
	s.Cancel(h)
	if s.Len() != 1 {
		t.Fatalf("stale handle cancelled a post-Reset event: Len = %d", s.Len())
	}
	s.Run()
	if len(tr.got) != 1 || tr.got[0] != 2 {
		t.Fatalf("runs = %v, want [2]", tr.got)
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	g := rand.New(rand.NewSource(1))
	// Keep a standing population of events, replacing each as it fires.
	var fire do
	fire = func() {
		s.After(Duration(g.Int63n(int64(Second))), fire, 0)
	}
	for i := 0; i < 1024; i++ {
		s.After(Duration(g.Int63n(int64(Second))), fire, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func TestSchedulerResetMatchesFresh(t *testing.T) {
	// Run an arbitrary workload, Reset, and verify the scheduler replays a
	// second workload exactly like a brand-new scheduler would: same
	// dispatch order, same sequence numbering, same clock.
	type rec struct{ order []int }
	load := func(s *Scheduler, r *rec) {
		tr := &taskRec{}
		s.At(5, do(func() { r.order = append(r.order, 1) }), 0)
		s.At(5, do(func() { r.order = append(r.order, 2) }), 0) // FIFO tie
		s.At(3, tr, 3)
		s.After(10, do(func() { r.order = append(r.order, 4); r.order = append(r.order, tr.got...) }), 0)
		s.RunUntil(20)
	}

	reused := NewScheduler()
	// First life: leave pending events in the heap so Reset has something
	// nontrivial to clear.
	reused.At(1, &taskRec{}, 0)
	reused.At(100, &taskRec{}, 0)
	reused.At(200, &taskRec{}, 0)
	reused.RunUntil(50)
	if reused.Len() == 0 {
		t.Fatal("test wants pending events at Reset")
	}
	reused.Reset()

	if reused.Now() != 0 || reused.Len() != 0 || reused.Executed != 0 {
		t.Fatalf("reset state: now=%v len=%d executed=%d", reused.Now(), reused.Len(), reused.Executed)
	}
	if reused.FreeListLen() == 0 {
		t.Fatal("reset dropped the pending events instead of recycling them")
	}

	var a, b rec
	fresh := NewScheduler()
	load(fresh, &a)
	load(reused, &b)
	if len(a.order) != len(b.order) {
		t.Fatalf("dispatch counts differ: %v vs %v", a.order, b.order)
	}
	for i := range a.order {
		if a.order[i] != b.order[i] {
			t.Fatalf("dispatch order differs: %v vs %v", a.order, b.order)
		}
	}
	if fresh.Now() != reused.Now() || fresh.Executed != reused.Executed {
		t.Fatalf("clock/executed differ: %v/%d vs %v/%d",
			fresh.Now(), fresh.Executed, reused.Now(), reused.Executed)
	}
}

func TestRNGRecyclerBitIdentical(t *testing.T) {
	var p RNGRecycler
	draw := func(g *RNG) [4]int64 {
		d := g.Derive("sub")
		return [4]int64{g.Int63(), d.Int63(), g.Int63(), int64(g.Intn(1000))}
	}
	fresh := draw(NewRNG(42))
	first := draw(p.New(42))
	if fresh != first {
		t.Fatalf("recycler first life differs: %v vs %v", fresh, first)
	}
	p.Recycle()
	if p.Len() == 0 {
		t.Fatal("recycler reclaimed nothing")
	}
	second := draw(p.New(42))
	if fresh != second {
		t.Fatalf("re-seeded source differs from fresh: %v vs %v", fresh, second)
	}
	// A different seed on a recycled source is that seed's stream.
	p.Recycle()
	other := draw(p.New(7))
	if other != draw(NewRNG(7)) {
		t.Fatal("recycled source not equivalent under new seed")
	}
	if other == fresh {
		t.Fatal("seed ignored on recycled source")
	}
}

// TestRunUntilBudgetChunksMatchRunUntil: slicing a run into arbitrary
// budget chunks pops the same events in the same order with the same
// final clock and Executed count as one RunUntil — the invariant the
// watchdog's chunked run loop rests on.
func TestRunUntilBudgetChunksMatchRunUntil(t *testing.T) {
	build := func() (*Scheduler, *[]int) {
		s := NewScheduler()
		var order []int
		// A cascading workload: events schedule follow-ups, including
		// some beyond the horizon.
		for i := 0; i < 10; i++ {
			s.At(Time(i)*Time(Millisecond), do(func() {
				order = append(order, i)
				s.After(3*Millisecond, do(func() { order = append(order, 100+i) }), 0)
			}), 0)
		}
		return s, &order
	}
	ref, refOrder := build()
	ref.RunUntil(8 * Time(Millisecond))

	chunked, chOrder := build()
	horizon := 8 * Time(Millisecond)
	steps := 0
	for !chunked.RunUntilBudget(horizon, 3) {
		if steps++; steps > 100 {
			t.Fatal("RunUntilBudget never completed")
		}
	}
	if len(*refOrder) == 0 {
		t.Fatal("reference run executed nothing")
	}
	if got, want := *chOrder, *refOrder; len(got) != len(want) {
		t.Fatalf("chunked run executed %d events, reference %d", len(got), len(want))
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d: chunked ran %d, reference %d", i, got[i], want[i])
			}
		}
	}
	if chunked.Now() != ref.Now() {
		t.Fatalf("clock differs: chunked %v, reference %v", chunked.Now(), ref.Now())
	}
	if chunked.Executed != ref.Executed {
		t.Fatalf("Executed differs: chunked %d, reference %d", chunked.Executed, ref.Executed)
	}
	if chunked.Len() != ref.Len() {
		t.Fatalf("pending differs: chunked %d, reference %d", chunked.Len(), ref.Len())
	}
}

// TestRunUntilBudgetStopsMidRun: an exhausted budget leaves the clock at
// the last executed event (not the horizon) and the queue intact, and a
// later unbounded run finishes the remainder.
func TestRunUntilBudgetStopsMidRun(t *testing.T) {
	s := NewScheduler()
	var ran int
	for i := 0; i < 6; i++ {
		s.At(Time(i)*Time(Second), do(func() { ran++ }), 0)
	}
	horizon := 10 * Time(Second)
	if done := s.RunUntilBudget(horizon, 2); done {
		t.Fatal("budget of 2 over 6 events reported completion")
	}
	if ran != 2 {
		t.Fatalf("ran %d events under a budget of 2", ran)
	}
	if s.Now() == horizon {
		t.Fatal("clock jumped to the horizon on an incomplete run")
	}
	if !s.RunUntilBudget(horizon, 1<<30) {
		t.Fatal("unbounded continuation did not complete")
	}
	if ran != 6 || s.Now() != horizon {
		t.Fatalf("continuation: ran=%d now=%v, want 6 events and the horizon", ran, s.Now())
	}
}
