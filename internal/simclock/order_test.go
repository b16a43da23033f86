package simclock

import (
	"math/rand"
	"testing"
	"time"
)

// modelEvent is one registration in the reference model of Sim's order:
// a plain list, the next event found by scanning it for the smallest
// (time, seq).
type modelEvent struct {
	id     int
	at     time.Time
	seq    uint64
	period time.Duration
	halted bool
}

// orderModel mirrors what Sim promises: events fire in (time, seq) order,
// seq being handed out at registration, and again to a ticker each time it
// fires — before its callback runs — so that among equal timestamps a
// rescheduled ticker stands where a registration made at that moment would.
type orderModel struct {
	now    time.Time
	seq    uint64
	events []*modelEvent
}

func (m *orderModel) schedule(id int, d, period time.Duration) *modelEvent {
	ev := &modelEvent{id: id, at: m.now.Add(d), seq: m.seq, period: period}
	m.seq++
	m.events = append(m.events, ev)
	return ev
}

// next returns the index of the event that must fire next, or -1.
func (m *orderModel) next() int {
	best := -1
	for i, ev := range m.events {
		if ev.halted {
			continue
		}
		if best < 0 {
			best = i
		} else if b := m.events[best]; ev.at.Before(b.at) || ev.at.Equal(b.at) && ev.seq < b.seq {
			best = i
		}
	}
	return best
}

// fire advances the model past event i.
func (m *orderModel) fire(i int) {
	ev := m.events[i]
	m.now = ev.at
	if ev.period > 0 {
		ev.at = ev.at.Add(ev.period)
		ev.seq = m.seq
		m.seq++
		return
	}
	m.events = append(m.events[:i], m.events[i+1:]...)
}

// TestFiringOrderMatchesReferenceSort drives a Sim and the list model with
// the same random program — timers and tickers registered and stopped from
// the test and from inside callbacks, on a coarse grid of delays so that
// equal timestamps are the rule — alternating Step and bounded Run, and
// checks at every firing that the event the Sim fires is the one a sort by
// (time, seq) puts first.
func TestFiringOrderMatchesReferenceSort(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim(epoch)
		m := &orderModel{now: epoch}
		type handle struct {
			ev     *modelEvent
			timer  Timer
			ticker Ticker
		}
		var handles []*handle
		nextID, fired := 0, 0

		var register func()
		act := func(n int) { // n random actions, applied to the Sim and the model alike
			for ; n > 0; n-- {
				if len(handles) > 0 && rng.Intn(4) == 0 {
					h := handles[rng.Intn(len(handles))]
					if h.timer != nil {
						h.timer.Stop()
					} else {
						h.ticker.Stop()
					}
					h.ev.halted = true
					continue
				}
				register()
			}
		}
		register = func() {
			id := nextID
			nextID++
			h := &handle{}
			fn := func() {
				fired++
				i := m.next()
				if i < 0 || m.events[i].id != id {
					want := -1
					if i >= 0 {
						want = m.events[i].id
					}
					t.Fatalf("seed %d, firing %d at %v: the Sim fired event %d, the (time, seq) order says %d",
						seed, fired, s.Now().Sub(epoch), id, want)
				}
				m.fire(i)
				if !s.Now().Equal(m.now) {
					t.Fatalf("seed %d, firing %d: Sim.Now %v, model %v", seed, fired, s.Now(), m.now)
				}
				if nextID < 400 {
					act(rng.Intn(3))
				}
			}
			d := time.Duration(rng.Intn(6)) * 10 * time.Millisecond
			if rng.Intn(2) == 0 {
				h.ev = m.schedule(id, d, 0)
				h.timer = s.AfterFunc(d, fn)
			} else {
				d += 10 * time.Millisecond // a ticker's period is positive
				h.ev = m.schedule(id, d, d)
				h.ticker = s.TickEvery(d, fn)
			}
			handles = append(handles, h)
		}

		act(10)
		for round := 0; round < 60; round++ {
			if rng.Intn(2) == 0 {
				s.Step()
				continue
			}
			until := s.Now().Add(time.Duration(rng.Intn(8)) * 10 * time.Millisecond)
			s.Run(until)
			if !s.Now().Equal(until) {
				t.Fatalf("seed %d: Run(%v) left the clock at %v", seed, until, s.Now())
			}
			if i := m.next(); i >= 0 && !m.events[i].at.After(until) {
				t.Fatalf("seed %d: Run(%v) returned with event %d due at %v", seed, until.Sub(epoch), m.events[i].id, m.events[i].at.Sub(epoch))
			}
			m.now = until
			if round%10 == 0 {
				act(3) // registrations from outside a callback, at the new time
			}
		}
		if fired < 100 {
			t.Fatalf("seed %d: only %d firings", seed, fired)
		}
	}
}
