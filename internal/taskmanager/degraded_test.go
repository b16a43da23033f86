package taskmanager

// The stale-but-serving degraded gate: a Task Manager whose spec source
// is a network mirror (taskservice.FeedClient) must stop starting new
// work once the mirror's staleness bound crosses ConnectionTimeout —
// the specs it serves may predate a teardown the control plane already
// committed — while everything already running keeps running.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/jobservice"
	"repro/internal/taskservice"
)

// The FeedClient is the StalenessSource this gate exists for.
var _ StalenessSource = (*taskservice.FeedClient)(nil)
var _ TaskSource = (*taskservice.FeedClient)(nil)

// staleSource wraps a live TaskSource with a settable staleness bound.
type staleSource struct {
	TaskSource
	stale time.Duration
}

func (s *staleSource) StaleFor() time.Duration { return s.stale }

func TestDegradedSourceGatesNewWorkOnly(t *testing.T) {
	w := newWorld(t, 0)
	src := &staleSource{TaskSource: w.ts}
	host := "h-degraded"
	if err := w.tw.AddHost(host, config.Resources{CPUCores: 48, MemoryBytes: 256 << 30}); err != nil {
		t.Fatal(err)
	}
	ct, err := w.tw.AllocateOn(host, "tc-degraded", config.Resources{CPUCores: 40, MemoryBytes: 200 << 30})
	if err != nil {
		t.Fatal(err)
	}
	profile := func(spec engine.TaskSpec) *engine.Profile {
		return engine.DefaultProfile(spec.Operator)
	}
	tm := New(ct, w.clk, src, w.sm, w.bus, w.ckpt, profile, Options{})
	tm.Start()
	w.tms = append(w.tms, tm)
	w.sm.AssignUnassigned()

	// Fresh mirror: tasks start normally.
	w.addJob(t, "jobs/first", 4, 8)
	tm.Refresh()
	if got := tm.TaskCount(); got != 4 {
		t.Fatalf("%d tasks running with a fresh mirror, want 4", got)
	}

	// Mirror goes stale past the gate: a new job must NOT start, the
	// running job must keep running, and the skip is counted.
	src.stale = DefaultConnectionTimeout
	w.addJob(t, "jobs/second", 3, 8)
	tm.Refresh()
	if got := tm.TaskCount(); got != 4 {
		t.Fatalf("%d tasks running under a stale mirror, want the original 4", got)
	}
	if got := tm.Stats().DegradedSkips; got != 1 {
		t.Fatalf("%d degraded skips counted, want 1", got)
	}

	// Staleness just under the gate is fine: the feed merely lags.
	src.stale = DefaultConnectionTimeout - time.Millisecond
	tm.Refresh()
	if got := tm.TaskCount(); got != 7 {
		t.Fatalf("%d tasks running after the mirror resumed, want 7", got)
	}
	if got := tm.Stats().DegradedSkips; got != 1 {
		t.Fatalf("%d degraded skips after resume, want still 1", got)
	}
}

// TestDegradedGateOverSocketFeed closes the loop end-to-end: a Task
// Manager fed by a real FeedClient (the production StalenessSource)
// gates on the same clock the client stamps its polls with.
func TestDegradedGateOverSocketFeed(t *testing.T) {
	w := newWorld(t, 0)
	feed := jobservice.NewSpecFeed(w.store)
	remote := taskservice.NewFeedClient(feed, "tm-mirror", w.clk, 90*time.Second, 64)
	host := "h-mirror"
	if err := w.tw.AddHost(host, config.Resources{CPUCores: 48, MemoryBytes: 256 << 30}); err != nil {
		t.Fatal(err)
	}
	ct, err := w.tw.AllocateOn(host, "tc-mirror", config.Resources{CPUCores: 40, MemoryBytes: 200 << 30})
	if err != nil {
		t.Fatal(err)
	}
	profile := func(spec engine.TaskSpec) *engine.Profile {
		return engine.DefaultProfile(spec.Operator)
	}
	tm := New(ct, w.clk, remote, w.sm, w.bus, w.ckpt, profile, Options{})
	tm.Start()
	w.tms = append(w.tms, tm)
	w.sm.AssignUnassigned()

	w.addJob(t, "jobs/mirrored", 4, 8)
	if err := remote.Sync(0); err != nil {
		t.Fatal(err)
	}
	tm.Refresh()
	if got := tm.TaskCount(); got != 4 {
		t.Fatalf("%d tasks running off the mirror, want 4", got)
	}

	// No pumps for longer than the gate: sim time passes, StaleFor grows
	// past ConnectionTimeout, and a new job stays parked.
	w.clk.RunFor(DefaultConnectionTimeout + time.Second)
	w.addJob(t, "jobs/parked", 2, 8)
	if err := remote.Sync(0); err == nil {
		// An in-process poll never fails, so Sync succeeds and resets staleness
		// — advance again WITHOUT syncing to re-stale the mirror, then
		// verify the gate. (The socket suite covers real failures.)
		tm.Refresh()
		if got := tm.TaskCount(); got != 6 {
			t.Fatalf("%d tasks after a fresh sync, want 6", got)
		}
		w.clk.RunFor(DefaultConnectionTimeout + time.Second)
		w.addJob(t, "jobs/parked2", 2, 8)
		tm.Refresh()
		if got := tm.TaskCount(); got != 6 {
			t.Fatalf("%d tasks under a stale mirror, want still 6", got)
		}
		if got := tm.Stats().DegradedSkips; got < 1 {
			t.Fatal("no degraded skip counted")
		}
		return
	}
	t.Fatal(fmt.Errorf("in-process sync failed unexpectedly"))
}
