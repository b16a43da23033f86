// Package simclock provides the time source used by every Turbine component.
//
// Turbine is a control plane built from periodic loops: the State Syncer
// runs every 30 seconds, Task Managers refresh task snapshots every 60
// seconds, load is reported every 10 minutes, and the Shard Manager
// rebalances every 30 minutes. To make multi-day experiments reproducible
// in milliseconds, components never call the time package directly; they
// schedule against a Clock. Two implementations are provided:
//
//   - Sim: a deterministic discrete-event clock. Events fire in timestamp
//     order (FIFO among equal timestamps) on the goroutine that calls Run,
//     so an entire cluster simulation is single-threaded and reproducible.
//   - Real: a thin veneer over the time package for live deployments.
package simclock

import "time"

// Clock is the time source and scheduler shared by all Turbine components.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// TickEvery schedules f to run every d, first firing after d.
	// Panics if d <= 0.
	TickEvery(d time.Duration, f func()) Ticker
	// Since returns the time elapsed since t.
	Since(t time.Time) time.Duration
}

// Timer is a handle to a pending Sim.AfterFunc invocation.
type Timer interface {
	// Stop cancels the timer. It reports whether the call prevented the
	// function from firing.
	Stop() bool
}

// Ticker is a handle to a periodic TickEvery registration.
type Ticker interface {
	// Stop cancels all future firings. Stop is idempotent.
	Stop()
}
