package simclock

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Sim is a deterministic discrete-event clock. Time advances only through
// Run, RunFor, or Step; callbacks execute synchronously on the caller's
// goroutine in (time, registration-order) order. Sim is safe for concurrent
// registration, but Run/RunFor/Step must not be called concurrently with
// each other.
type Sim struct {
	mu    sync.Mutex
	start time.Time // what event keys count from
	now   time.Time
	seq   uint64
	pq    eventQueue
	runs  bool
}

// NewSim returns a Sim whose current time is start.
func NewSim(start time.Time) *Sim {
	return &Sim{start: start, now: start}
}

type event struct {
	at     time.Time
	key    int64  // at as nanoseconds since the Sim's start: what the queue orders by
	seq    uint64 // FIFO tie-break for equal timestamps
	fn     func()
	period time.Duration // > 0 for tickers
	halted bool
	index  int
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].key != q[j].key {
		return q[i].key < q[j].key
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Now returns the simulated current time.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Since returns the simulated time elapsed since t.
func (s *Sim) Since(t time.Time) time.Duration {
	return s.Now().Sub(t)
}

// AfterFunc schedules f to run once, d after the current simulated time.
// A non-positive d fires at the current time on the next Run/Step.
func (s *Sim) AfterFunc(d time.Duration, f func()) Timer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &simTimer{sim: s, ev: s.scheduleLocked(s.now.Add(d), f, 0)}
}

// TickEvery schedules f to run every d of simulated time.
func (s *Sim) TickEvery(d time.Duration, f func()) Ticker {
	if d <= 0 {
		panic(fmt.Sprintf("simclock: non-positive tick interval %v", d))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return &simTicker{sim: s, ev: s.scheduleLocked(s.now.Add(d), f, d)}
}

func (s *Sim) scheduleLocked(at time.Time, f func(), period time.Duration) *event {
	ev := &event{at: at, key: int64(at.Sub(s.start)), seq: s.seq, fn: f, period: period}
	s.seq++
	heap.Push(&s.pq, ev)
	return ev
}

type simTimer struct {
	sim *Sim
	ev  *event
}

func (t *simTimer) Stop() bool {
	t.sim.mu.Lock()
	defer t.sim.mu.Unlock()
	if t.ev.halted {
		return false
	}
	t.ev.halted = true
	return true
}

type simTicker struct {
	sim *Sim
	ev  *event
}

func (t *simTicker) Stop() {
	t.sim.mu.Lock()
	defer t.sim.mu.Unlock()
	if t.ev != nil {
		t.ev.halted = true
		t.ev = nil
	}
}

// Step executes the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (s *Sim) Step() bool {
	s.mu.Lock()
	ev := s.popRunnableLocked(time.Time{}, false)
	if ev == nil {
		s.mu.Unlock()
		return false
	}
	s.now = ev.at
	s.rescheduleLocked(ev)
	fn := ev.fn
	s.mu.Unlock()
	fn()
	return true
}

// popRunnableLocked returns the earliest non-halted event. A one-shot
// event is removed from the queue; a periodic one stays at the root, for
// rescheduleLocked to move. If bounded, events after limit are left in
// place and nil is returned.
func (s *Sim) popRunnableLocked(limit time.Time, bounded bool) *event {
	for s.pq.Len() > 0 {
		ev := s.pq[0]
		if ev.halted {
			heap.Pop(&s.pq)
			continue
		}
		if bounded && ev.at.After(limit) {
			return nil
		}
		if ev.period == 0 {
			heap.Pop(&s.pq)
		}
		return ev
	}
	return nil
}

// rescheduleLocked gives the periodic event popRunnableLocked just
// returned its next time and a fresh seq — where a new registration made
// now would stand among equal timestamps — and sifts it down from the
// root in place. The same *event is reused so ticker handles can still
// cancel it.
func (s *Sim) rescheduleLocked(ev *event) {
	if ev.period > 0 {
		ev.at = ev.at.Add(ev.period)
		ev.key += int64(ev.period)
		ev.seq = s.seq
		s.seq++
		heap.Fix(&s.pq, ev.index)
	}
}

// Run executes all events with timestamps <= until, in order, then advances
// the clock to until. It returns the number of events executed.
func (s *Sim) Run(until time.Time) int {
	n := 0
	for {
		s.mu.Lock()
		ev := s.popRunnableLocked(until, true)
		if ev == nil {
			if s.now.Before(until) {
				s.now = until
			}
			s.mu.Unlock()
			return n
		}
		s.now = ev.at
		s.rescheduleLocked(ev)
		fn := ev.fn
		s.mu.Unlock()
		fn()
		n++
	}
}

// RunFor advances the simulation by d. It returns the number of events
// executed.
func (s *Sim) RunFor(d time.Duration) int {
	return s.Run(s.Now().Add(d))
}

// Pending reports the number of scheduled, non-halted events.
func (s *Sim) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ev := range s.pq {
		if !ev.halted {
			n++
		}
	}
	return n
}
