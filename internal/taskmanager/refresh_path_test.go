package taskmanager

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/taskservice"
)

// TestRefreshComputesNoHashes verifies the read-path contract: spec
// hashes are computed at snapshot-generation time only, so a Task
// Manager's reconciliation — even a full one — performs zero hash
// computations of its own.
func TestRefreshComputesNoHashes(t *testing.T) {
	w := newWorld(t, 4)
	w.addJob(t, "j1", 8, 16)
	w.addJob(t, "j2", 4, 8)
	w.refreshAll()
	if got := w.totalRunning(); got != 12 {
		t.Fatalf("running = %d, want 12", got)
	}

	before := engine.HashComputations()
	// Put every manager through a full reconciliation, snapshot unchanged:
	// a proactive reboot stops everything, the refresh restarts it all.
	for _, tm := range w.tms {
		tm.reboot()
		tm.Refresh()
	}
	if got := w.totalRunning(); got != 12 {
		t.Fatalf("running = %d after reboot + refresh, want 12", got)
	}
	if got := engine.HashComputations() - before; got != 0 {
		t.Fatalf("fleet refresh computed %d hashes, want 0", got)
	}
}

// TestRefreshShardSpaceMismatchStartsNothing wires the managers to a Task
// Service bucketed for a different shard space than the Shard Manager's —
// a misconfiguration under which no bucket says what a container should
// run. Refresh must treat it like its other gates: keep what runs, start
// nothing, count a DegradedSkip. Once the wiring is corrected, the first
// Refresh starts every task exactly once.
func TestRefreshShardSpaceMismatchStartsNothing(t *testing.T) {
	w := newWorld(t, 3)
	w.addJob(t, "j0", 4, 8)
	w.refreshAll()
	if got := w.totalRunning(); got != 4 {
		t.Fatalf("running = %d before the mis-wiring, want 4", got)
	}
	attempts := func() (n int) {
		for _, tm := range w.tms {
			st := tm.Stats()
			n += st.Started + st.StartErrors + st.Stopped + st.Restarted
		}
		return n
	}
	base := attempts()

	// The world's Shard Manager uses 64 shards; this Task Service, 128.
	good := w.ts
	w.ts = taskservice.New(w.store, w.clk, 90*time.Second, 128)
	setSource := func(src TaskSource) {
		for _, tm := range w.tms {
			tm.mu.Lock()
			tm.source = src
			tm.mu.Unlock()
		}
	}
	setSource(w.ts)
	w.addJob(t, "j1", 8, 16)
	w.refreshAll()
	if got := attempts(); got != base {
		t.Fatalf("mismatched refresh started or stopped tasks: %d -> %d", base, got)
	}
	if got := w.totalRunning(); got != 4 {
		t.Fatalf("running = %d under the mismatch, want the original 4 kept", got)
	}
	for _, tm := range w.tms {
		if got := tm.Stats().DegradedSkips; got != 1 {
			t.Fatalf("%s counted %d degraded skips, want 1", tm.ID(), got)
		}
	}

	// Wiring corrected: everything starts, once.
	w.ts = good
	setSource(good)
	w.ts.Invalidate()
	w.refreshAll()
	seen := map[string]int{}
	for _, tm := range w.tms {
		for _, id := range tm.RunningTaskIDs() {
			seen[id]++
		}
	}
	if len(seen) != 12 {
		t.Fatalf("%d distinct tasks after the wiring was corrected, want 12", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("task %s has %d instances", id, n)
		}
	}
	if got := attempts() - base; got != 8 {
		t.Fatalf("corrected refresh made %d start/stop moves, want exactly the 8 new starts", got)
	}
	if w.ckpt.Violations() != 0 {
		t.Fatalf("violations: %d", w.ckpt.Violations())
	}
}

// TestRefreshFastPathSkipsUnchangedSnapshot pins the version fast path:
// a second refresh against an unchanged snapshot must not stop, start, or
// restart anything.
func TestRefreshFastPathSkipsUnchangedSnapshot(t *testing.T) {
	w := newWorld(t, 2)
	w.addJob(t, "j1", 4, 8)
	w.refreshAll()
	stats := func() (n int) {
		for _, tm := range w.tms {
			s := tm.Stats()
			n += s.Started + s.Stopped + s.Restarted
		}
		return
	}
	before := stats()
	w.clk.RunFor(10 * time.Minute) // many fetch intervals, no changes
	if got := stats(); got != before {
		t.Fatalf("churn on unchanged snapshot: %d -> %d", before, got)
	}
}

// TestRefreshStopsBeforeItStarts pins the two-phase reconcile: a job that
// is re-partitioned between two refreshes without the State Syncer's
// StopJob fan-out (dropped and re-created at another parallelism, say)
// moves partitions between tasks of different shards. Every task whose
// spec changed must have released its leases before any new spec is
// started, whichever shard comes first — an interleaved stop/start finds
// a partition still held by a task it has not reached yet.
func TestRefreshStopsBeforeItStarts(t *testing.T) {
	w := newWorld(t, 1)
	tm := w.tms[0]
	recommit := func(tasks int, version int64) {
		t.Helper()
		r, _ := w.store.GetRunning("j1")
		cfg, err := config.JobConfigFromDoc(r.Config)
		if err != nil {
			t.Fatal(err)
		}
		cfg.TaskCount = tasks
		doc, err := cfg.ToDoc()
		if err != nil {
			t.Fatal(err)
		}
		w.store.CommitRunning("j1", doc, version)
		w.ts.Invalidate()
	}
	w.addJob(t, "j1", 3, 12)
	tm.Refresh()
	for i, tasks := range []int{2, 5, 3, 1, 4} {
		recommit(tasks, int64(i+2))
		tm.Refresh()
		if got := tm.TaskCount(); got != tasks {
			t.Fatalf("%d tasks running after the change to %d", got, tasks)
		}
		if got := w.ckpt.LiveOwners("j1"); got != 12 {
			t.Fatalf("%d of 12 partitions owned at parallelism %d", got, tasks)
		}
	}
	if st := tm.Stats(); st.StartErrors != 0 || w.ckpt.Violations() != 0 {
		t.Fatalf("%d start errors, %d lease violations: a start ran ahead of a stop", st.StartErrors, w.ckpt.Violations())
	}
}
