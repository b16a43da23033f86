package simclock

import (
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
	fn     func()
	period time.Duration // > 0 for tickers
	halted bool
}

// slot is one entry of the event queue. It holds the event's ordering key
// by value, so sifting compares slots without dereferencing an event.
type slot struct {
	key int64  // the event's time as nanoseconds since the Sim's start
	seq uint64 // FIFO tie-break for equal timestamps
	ev  *event
}

func (a slot) less(b slot) bool {
	return a.key < b.key || a.key == b.key && a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of slots ordered by (key, seq). Every
// (key, seq) is distinct, so the firing order is the sort order, whatever
// the heap's shape.
type eventQueue []slot

func (q *eventQueue) push(x slot) {
	*q = append(*q, x)
	q.up(len(*q) - 1)
}

// pop removes the root.
func (q *eventQueue) pop() {
	n := len(*q) - 1
	(*q)[0] = (*q)[n]
	(*q)[n] = slot{}
	*q = (*q)[:n]
	if n > 0 {
		q.down(0)
	}
}

func (q eventQueue) up(i int) {
	x := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.less(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
}

func (q eventQueue) down(i int) {
	x := q[i]
	for {
		c := 4*i + 1
		if c >= len(q) {
			break
		}
		best := c
		for k := c + 1; k < min(c+4, len(q)); k++ {
			if q[k].less(q[best]) {
				best = k
			}
		}
		if !q[best].less(x) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = x
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
	ev := &event{at: at, fn: f, period: period}
	s.pq.push(slot{key: int64(at.Sub(s.start)), seq: s.seq, ev: ev})
	s.seq++
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
	for len(s.pq) > 0 {
		ev := s.pq[0].ev
		if ev.halted {
			s.pq.pop()
			continue
		}
		if bounded && ev.at.After(limit) {
			return nil
		}
		if ev.period == 0 {
			s.pq.pop()
		}
		return ev
	}
	return nil
}

// rescheduleLocked gives the periodic event popRunnableLocked just left at
// the root its next time and a fresh seq — where a new registration made
// now would stand among equal timestamps — and sifts it down from the root
// in place. The same *event is reused so ticker handles can still cancel
// it.
func (s *Sim) rescheduleLocked(ev *event) {
	if ev.period > 0 {
		ev.at = ev.at.Add(ev.period)
		root := &s.pq[0]
		root.key += int64(ev.period)
		root.seq = s.seq
		s.seq++
		s.pq.down(0)
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
	for _, sl := range s.pq {
		if !sl.ev.halted {
			n++
		}
	}
	return n
}
