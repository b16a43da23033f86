package simclock

import (
	"sync"
	"time"
)

// Real is a Clock backed by the time package, for live deployments.
// Each TickEvery callback runs on a goroutine of its own.
type Real struct{}

// NewReal returns the wall-clock Clock.
func NewReal() Real { return Real{} }

// Now returns the current wall-clock time.
func (Real) Now() time.Time { return time.Now() }

// Since returns the wall-clock time elapsed since t.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// TickEvery runs f every d on a dedicated goroutine until Stop is called.
func (Real) TickEvery(d time.Duration, f func()) Ticker {
	if d <= 0 {
		panic("simclock: non-positive tick interval")
	}
	rt := &realTicker{done: make(chan struct{})}
	go func() {
		tk := time.NewTicker(d)
		defer tk.Stop()
		for {
			select {
			case <-tk.C:
				f()
			case <-rt.done:
				return
			}
		}
	}()
	return rt
}

type realTicker struct {
	once sync.Once
	done chan struct{}
}

func (t *realTicker) Stop() { t.once.Do(func() { close(t.done) }) }
