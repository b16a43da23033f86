package taskmanager

import (
	"maps"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/shardmanager"
	"repro/internal/taskservice"
)

// instances maps every running task of the world to its instance identity:
// a task that was restarted, or moved, has a new one.
func (w *world) instances() map[string]string {
	out := make(map[string]string)
	for _, tm := range w.tms {
		tm.mu.Lock()
		for _, sh := range tm.shards {
			for i, task := range sh.tasks {
				if task != nil {
					out[sh.bucket[i].ID] = task.Instance()
				}
			}
		}
		tm.mu.Unlock()
	}
	return out
}

// moves sums the start/stop/restart counters of every manager.
func (w *world) moves() (n int) {
	for _, tm := range w.tms {
		st := tm.Stats()
		n += st.Started + st.Stopped + st.Restarted + st.StartErrors
	}
	return n
}

// recommit re-commits job's running config under version after mutate has
// had its way with it, and invalidates the snapshot cache.
func (w *world) recommit(t *testing.T, job string, version int64, mutate func(*config.JobConfig)) {
	t.Helper()
	r, _ := w.store.GetRunning(job)
	cfg, err := config.JobConfigFromDoc(r.Config)
	if err != nil {
		t.Fatal(err)
	}
	mutate(cfg)
	doc, err := cfg.ToDoc()
	if err != nil {
		t.Fatal(err)
	}
	w.store.CommitRunning(job, doc, version)
	w.ts.Invalidate()
}

// TestRefreshKeepsInstanceAcrossIdenticalRecommit: a task keeps running —
// same instance, no counter moves — while the spec it is handed stays
// equal, whether the index never republished it (the same config
// committed under a new version) or hands out equal content in new
// objects throughout (a restarted Task Service: new buckets, new specs,
// so the comparison is field by field, not by pointer).
func TestRefreshKeepsInstanceAcrossIdenticalRecommit(t *testing.T) {
	w := newWorld(t, 3)
	w.addJob(t, "j1", 8, 16)
	w.addJob(t, "j2", 4, 8)
	w.refreshAll()
	want, base := w.instances(), w.moves()
	if len(want) != 12 {
		t.Fatalf("%d tasks run, want 12", len(want))
	}
	check := func(when string) {
		t.Helper()
		w.refreshAll()
		if got := w.instances(); !maps.Equal(got, want) {
			t.Fatalf("%s: instances moved:\n got  %v\n want %v", when, got, want)
		}
		if got := w.moves(); got != base {
			t.Fatalf("%s: %d start/stop/restart moves, want none", when, got-base)
		}
	}
	w.recommit(t, "j1", 2, func(*config.JobConfig) {})
	check("identical re-commit")

	restarted := taskservice.New(w.store, w.clk, 90*time.Second, 64)
	for s := shardmanager.ShardID(0); s < 64; s++ {
		if old, fresh := w.ts.Index().ShardSpecs(s), restarted.Index().ShardSpecs(s); len(old) > 0 &&
			(taskservice.SameBucket(old, fresh) || old[0].Spec == fresh[0].Spec) {
			t.Fatalf("shard %d: the restarted Task Service shares objects with the old one; the scenario needs new ones", s)
		}
	}
	w.ts = restarted
	for _, tm := range w.tms {
		tm.mu.Lock()
		tm.source = restarted
		tm.mu.Unlock()
	}
	check("Task Service restart")
}

// TestRefreshRestartsOnAnyFieldChange: whichever single field of a job's
// specs a re-commit changes, every task of that job restarts (new
// instance, Restarted counted) and no task of another job is touched.
func TestRefreshRestartsOnAnyFieldChange(t *testing.T) {
	w := newWorld(t, 3)
	w.addJob(t, "j1", 4, 8)
	w.addJob(t, "j2", 4, 8)
	w.refreshAll()
	changes := []struct {
		field  string
		mutate func(*config.JobConfig)
	}{
		{"PackageName", func(c *config.JobConfig) { c.Package.Name = "tailer2" }},
		{"PackageVersion", func(c *config.JobConfig) { c.Package.Version = "v2" }},
		{"Threads", func(c *config.JobConfig) { c.ThreadsPerTask++ }},
		{"Operator", func(c *config.JobConfig) { c.Operator = config.OpFilter }},
		{"OutputCategory", func(c *config.JobConfig) { c.Output.Category = "j1_out" }},
		{"Resources.CPUCores", func(c *config.JobConfig) { c.TaskResources.CPUCores += 0.5 }},
		{"Resources.MemoryBytes", func(c *config.JobConfig) { c.TaskResources.MemoryBytes++ }},
		{"Resources.DiskBytes", func(c *config.JobConfig) { c.TaskResources.DiskBytes++ }},
		{"Resources.NetworkBps", func(c *config.JobConfig) { c.TaskResources.NetworkBps++ }},
		{"Enforcement", func(c *config.JobConfig) { c.Enforcement = config.EnforceNone }},
		{"CheckpointDir", func(c *config.JobConfig) { c.CheckpointDir = "/ckpt/$JOB/$TASK" }},
		{"Priority", func(c *config.JobConfig) { c.Priority++ }},
	}
	restarts := func() (n int) {
		for _, tm := range w.tms {
			n += tm.Stats().Restarted
		}
		return n
	}
	for i, ch := range changes {
		before, restartsBefore := w.instances(), restarts()
		w.recommit(t, "j1", int64(i+2), ch.mutate)
		w.refreshAll()
		after := w.instances()
		if len(after) != 8 {
			t.Fatalf("%s: %d tasks run after the change, want 8", ch.field, len(after))
		}
		for id, inst := range after {
			if changed := engine.JobOfTaskID(id) == "j1"; (before[id] != inst) != changed {
				t.Fatalf("%s: task %s instance %s -> %s; only j1's tasks may restart, and all of them must", ch.field, id, before[id], inst)
			}
		}
		if got := restarts() - restartsBefore; got != 4 {
			t.Fatalf("%s: %d restarts counted, want 4", ch.field, got)
		}
	}
	if w.ckpt.Violations() != 0 {
		t.Fatalf("violations: %d", w.ckpt.Violations())
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
	w.addJob(t, "j1", 3, 12)
	tm.Refresh()
	for i, tasks := range []int{2, 5, 3, 1, 4} {
		w.recommit(t, "j1", int64(i+2), func(c *config.JobConfig) { c.TaskCount = tasks })
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
