package taskmanager

import (
	"fmt"
	"maps"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/jobservice"
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
	r, _, _ := w.store.RunningDoc(job)
	cfg := *r.Config // the store's is shared: mutate a copy
	mutate(&cfg)
	doc := runningOf(&cfg)
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

// runningTasks maps every running task of the world to the engine.Task in
// its slot.
func (w *world) runningTasks() map[string]*engine.Task {
	out := make(map[string]*engine.Task)
	for _, tm := range w.tms {
		tm.mu.Lock()
		for _, sh := range tm.shards {
			for i, task := range sh.tasks {
				if task != nil {
					out[sh.bucket[i].ID] = task
				}
			}
		}
		tm.mu.Unlock()
	}
	return out
}

// TestSpecChangeRestartsInPlace: a package bump keeps every task's
// partitions, so each of the job's tasks restarts in place — its slot
// keeps the same engine.Task, now running the new spec under a new
// instance that holds every lease the old one held, and resuming from the
// offsets it had reached (the checkpointed ones). A parallelism change
// moves partitions, so it still stops every task and starts new ones.
func TestSpecChangeRestartsInPlace(t *testing.T) {
	w := newWorld(t, 3)
	w.addJob(t, "j1", 4, 8)
	w.addJob(t, "j2", 4, 8)
	w.refreshAll()
	w.bus.AppendEven("j1_in", 256<<20, 1000)
	for _, tm := range w.tms {
		tm.Advance(5 * time.Second) // drains part of the input: offsets and backlog both nonzero
	}
	// checkpointed checks that task's partitions are leased to its current
	// instance and returns its backlog at the checkpointed offsets.
	checkpointed := func(task *engine.Task) (backlog int64) {
		t.Helper()
		spec := task.Spec()
		for _, p := range spec.Partitions {
			if owner, _ := w.ckpt.Owner(spec.Job, p); owner != task.Instance() {
				t.Fatalf("partition %d of %s leased to %q, task runs as %s", p, spec.Job, owner, task.Instance())
			}
			written, _, err := w.bus.Written(spec.InputCategory, p)
			if err != nil {
				t.Fatal(err)
			}
			backlog += written - w.ckpt.Offset(spec.Job, p)
		}
		return backlog
	}
	statsSum := func() (s Stats) {
		for _, tm := range w.tms {
			st := tm.Stats()
			s.Started += st.Started
			s.Stopped += st.Stopped
			s.Restarted += st.Restarted
			s.StartErrors += st.StartErrors
		}
		return s
	}
	tasks, instances, backlogs := w.runningTasks(), w.instances(), map[string]int64{}
	for id, task := range tasks {
		backlogs[id] = task.Backlog()
		if engine.JobOfTaskID(id) == "j1" && (backlogs[id] == 0 || backlogs[id] != checkpointed(task)) {
			t.Fatalf("%s: backlog %d, %d at its checkpoint; want equal and nonzero", id, backlogs[id], checkpointed(task))
		}
	}
	stats := statsSum()

	w.recommit(t, "j1", 2, func(c *config.JobConfig) { c.Package.Version = "v2" })
	w.refreshAll()
	after := w.runningTasks()
	if len(after) != 8 {
		t.Fatalf("%d tasks run after the bump, want 8", len(after))
	}
	for id, task := range after {
		if task != tasks[id] {
			t.Fatalf("%s: slot holds a new engine.Task; a package bump restarts in place", id)
		}
		if engine.JobOfTaskID(id) == "j2" {
			if task.Instance() != instances[id] {
				t.Fatalf("%s: j2 did not change, but its task restarted", id)
			}
			continue
		}
		if inst := task.Instance(); inst == instances[id] || !strings.HasPrefix(inst, id+"@") {
			t.Fatalf("%s: instance %s -> %s, want a new %s@<seq>", id, instances[id], inst, id)
		}
		if v := task.Spec().PackageVersion; v != "v2" {
			t.Fatalf("%s runs package %s, want v2", id, v)
		}
		if got := task.Backlog(); got != backlogs[id] || got != checkpointed(task) {
			t.Fatalf("%s: backlog %d after the restart, %d at its checkpoint, %d before; want all equal", id, got, checkpointed(task), backlogs[id])
		}
	}
	got := statsSum()
	if d := (Stats{Started: got.Started - stats.Started, Stopped: got.Stopped - stats.Stopped,
		Restarted: got.Restarted - stats.Restarted, StartErrors: got.StartErrors - stats.StartErrors}); d != (Stats{Started: 4, Restarted: 4}) {
		t.Fatalf("the bump counted %+v, want 4 restarts that are also 4 starts", d)
	}
	if w.ckpt.LiveOwners("j1") != 8 || w.ckpt.Violations() != 0 {
		t.Fatalf("j1: %d live leases, %d violations; want 8, 0", w.ckpt.LiveOwners("j1"), w.ckpt.Violations())
	}

	// Four tasks over eight partitions become two: every survivor's
	// partitions change, so each is stopped and a new task started. (One
	// manager runs them all: across managers, a repartition without the
	// State Syncer's StopJob fan-out is a lease conflict by design.)
	w = newWorld(t, 1)
	w.addJob(t, "j1", 4, 8)
	w.refreshAll()
	tasks = w.runningTasks()
	w.recommit(t, "j1", 2, func(c *config.JobConfig) { c.TaskCount = 2 })
	w.refreshAll()
	after = w.runningTasks()
	for id, task := range after {
		if task == tasks[id] {
			t.Fatalf("%s kept its engine.Task across a change of its partitions", id)
		}
	}
	if st := w.tms[0].Stats(); len(after) != 2 || st.Restarted != 2 || st.Stopped != 2 || st.Started != 4+2 {
		t.Fatalf("%d tasks run after 4 -> 2, counted %+v; want 2 running, 2 restarted, 2 stopped, 6 started", len(after), st)
	}
	if w.ckpt.LiveOwners("j1") != 8 || w.ckpt.Violations() != 0 {
		t.Fatalf("j1: %d live leases, %d violations; want 8, 0", w.ckpt.LiveOwners("j1"), w.ckpt.Violations())
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

// jobSlots counts job's running tasks on tm by walking every task slot of
// every owned shard — the oracle StopJob and JobTaskCount are held to. It
// shares nothing with their lookup.
func jobSlots(tm *Manager, job string) (n int) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	for _, sh := range tm.shards {
		for i, task := range sh.tasks {
			if task != nil && sh.bucket[i].Spec.Job == job {
				n++
			}
		}
	}
	return n
}

// stopJobEverywhere is the actuator's broadcast with every answer checked
// against the walk: each manager stops, counts and reports exactly the
// tasks of the job it ran, and afterwards no partition of the job is owned.
// It returns how many tasks stopped fleet-wide.
func (w *world) stopJobEverywhere(t *testing.T, job string) (stopped int) {
	t.Helper()
	for _, tm := range w.tms {
		ran := jobSlots(tm, job)
		if got := tm.JobTaskCount(job); got != ran {
			t.Fatalf("%s: JobTaskCount(%s) = %d, %d run", tm.ID(), job, got, ran)
		}
		if got := tm.StopJob(job); got != ran {
			t.Fatalf("%s: StopJob(%s) stopped %d tasks, %d ran", tm.ID(), job, got, ran)
		}
		if left := jobSlots(tm, job); left != 0 || tm.JobTaskCount(job) != 0 {
			t.Fatalf("%s: %d tasks of %s still run after StopJob (JobTaskCount %d)", tm.ID(), left, job, tm.JobTaskCount(job))
		}
		stopped += ran
	}
	if left := w.ckpt.LiveOwners(job); left != 0 {
		t.Fatalf("%d partitions of %s still owned after StopJob on every manager", left, job)
	}
	return stopped
}

// TestStopJobFindsTasksTheSourceMovedPast: StopJob looks the job up in the
// index the manager last reconciled against, not in what the source serves
// now. Whatever the source did between that reconcile and the stop — scaled
// the job down or up (its tasks, and so its shards, move), quiesced it out
// of the snapshot (the cluster actuator's order: quiesce, then stop),
// dropped it, or republished everything in new arrays — every task that
// runs is found and stopped, and no task of another job is touched.
func TestStopJobFindsTasksTheSourceMovedPast(t *testing.T) {
	cases := []struct {
		name   string
		tasks  int
		moveOn func(t *testing.T, w *world)
		after  int // tasks of the job once the managers have refreshed again
	}{
		{"scaled 9 to 8", 9, func(t *testing.T, w *world) {
			w.recommit(t, "j", 2, func(c *config.JobConfig) { c.TaskCount = 8 })
		}, 8},
		{"scaled 8 to 9", 8, func(t *testing.T, w *world) {
			w.recommit(t, "j", 2, func(c *config.JobConfig) { c.TaskCount = 9 })
		}, 9},
		{"quiesced", 8, func(t *testing.T, w *world) { w.ts.Quiesce("j") }, 0},
		{"dropped", 8, func(t *testing.T, w *world) { w.store.DropRunning("j"); w.ts.Invalidate() }, 0},
		{"republished in new arrays", 8, func(t *testing.T, w *world) {
			restarted := taskservice.New(w.store, w.clk, 90*time.Second, 64)
			w.ts = restarted
			for _, tm := range w.tms {
				tm.mu.Lock()
				tm.source = restarted
				tm.mu.Unlock()
			}
		}, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, 3)
			w.addJob(t, "i", 6, 12)
			w.addJob(t, "j", tc.tasks, 18)
			w.addJob(t, "k", 6, 12)
			w.refreshAll()
			before, base := w.instances(), w.moves()

			tc.moveOn(t, w)
			moved := w.ts.Index() // the source has published past the managers
			if got := len(moved.JobShards(nil, "j")); tc.after == 0 && got != 0 {
				t.Fatalf("the source still lists j on %d shards; the scenario needs it gone", got)
			}
			if got := w.stopJobEverywhere(t, "j"); got != tc.tasks {
				t.Fatalf("%d tasks stopped fleet-wide, %d ran", got, tc.tasks)
			}
			if got := w.moves() - base; got != tc.tasks {
				t.Fatalf("%d start/stop moves for a stop of %d tasks", got, tc.tasks)
			}
			for id, inst := range w.instances() {
				if before[id] != inst {
					t.Fatalf("%s was restarted by a StopJob of j", id)
				}
			}
			if got := w.totalRunning(); got != 12 {
				t.Fatalf("%d tasks run after the stop, want the 12 of i and k", got)
			}
			// A second broadcast finds nothing; the next Refresh starts
			// whatever the source now publishes for the job.
			if got := w.stopJobEverywhere(t, "j"); got != 0 {
				t.Fatalf("a repeated StopJob stopped %d more tasks", got)
			}
			w.refreshAll()
			n := 0
			for _, tm := range w.tms {
				n += tm.JobTaskCount("j")
			}
			if n != tc.after || w.totalRunning() != 12+tc.after {
				t.Fatalf("after the next refresh %d tasks of j run (%d in all), want %d (%d)", n, w.totalRunning(), tc.after, 12+tc.after)
			}
			if w.ckpt.Violations() != 0 {
				t.Fatalf("violations: %d", w.ckpt.Violations())
			}
		})
	}
}

// TestStopJobOfAJobTheRetainedIndexLacks: a job the manager's last
// reconcile never saw cannot run there, so StopJob answers 0 after the
// lookup and disturbs nothing — whether the job is new to the source,
// unknown everywhere, was stopped by an earlier Refresh, or the manager
// runs nothing at all and retains no index to look in.
func TestStopJobOfAJobTheRetainedIndexLacks(t *testing.T) {
	w := newWorld(t, 2)
	if got := w.stopJobEverywhere(t, "anything"); got != 0 {
		t.Fatalf("idle managers stopped %d tasks", got)
	}
	w.addJob(t, "gone", 4, 8)
	w.addJob(t, "stays", 4, 8)
	w.refreshAll()
	w.store.DropRunning("gone")
	w.ts.Invalidate()
	w.refreshAll()
	w.addJob(t, "late", 4, 8) // published, not yet reconciled anywhere
	w.ts.Index()
	before, base := w.instances(), w.moves()
	for _, job := range []string{"late", "gone", "never", "stay", "stays#0", ""} {
		if got := w.stopJobEverywhere(t, job); got != 0 {
			t.Fatalf("StopJob(%q) stopped %d tasks", job, got)
		}
	}
	if got := w.moves(); got != base || !maps.Equal(w.instances(), before) {
		t.Fatalf("StopJob of jobs that do not run here moved %d counters or an instance", got-base)
	}
	for _, tm := range w.tms {
		tm.mu.Lock()
		for s, sh := range tm.shards {
			if sh.pending {
				t.Fatalf("%s shard %d left pending by a StopJob that stopped nothing", tm.ID(), s)
			}
		}
		tm.mu.Unlock()
	}
	// Stopping the last job idles the managers: the index goes with it.
	if got := w.stopJobEverywhere(t, "stays"); got != 4 {
		t.Fatalf("%d tasks of the last job stopped, want 4", got)
	}
	for _, tm := range w.tms {
		tm.mu.Lock()
		retained := tm.retained
		tm.mu.Unlock()
		if retained != nil {
			t.Fatalf("%s runs nothing and still retains index version %d", tm.ID(), retained.Version())
		}
	}
}

// TestStopJobOverSocketFeedMirror: the same contract when the source is a
// FeedClient mirroring the Task Service over a real localhost socket. The
// mirror applies a rescale of the job and then a quiesce on its own side;
// the manager, not refreshed since, still stops all it runs.
func TestStopJobOverSocketFeedMirror(t *testing.T) {
	w := newWorld(t, 0)
	feed := jobservice.NewSpecFeed(w.store)
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis := jobservice.ServeFeed(feed, nl, jobservice.ListenerOptions{})
	t.Cleanup(func() { lis.Close() })
	tr := taskservice.DialFeed(nl.Addr().String(), taskservice.DialOptions{Clock: w.clk})
	t.Cleanup(tr.Close)
	remote := taskservice.NewFeedClient(tr, "tm-mirror", w.clk, 90*time.Second, 64)
	profile := func(spec engine.TaskSpec) *engine.Profile { return engine.DefaultProfile(spec.Operator) }
	for i := 0; i < 2; i++ {
		host := fmt.Sprintf("h-mirror%d", i)
		if err := w.tw.AddHost(host, config.Resources{CPUCores: 48, MemoryBytes: 256 << 30}); err != nil {
			t.Fatal(err)
		}
		ct, err := w.tw.AllocateOn(host, fmt.Sprintf("tc-mirror%d", i), config.Resources{CPUCores: 40, MemoryBytes: 200 << 30})
		if err != nil {
			t.Fatal(err)
		}
		tm := New(ct, w.clk, remote, w.sm, w.bus, w.ckpt, profile, Options{})
		tm.Start()
		w.tms = append(w.tms, tm)
	}
	w.sm.AssignUnassigned()
	sync := func() *taskservice.SnapshotIndex {
		t.Helper()
		if err := remote.Sync(0); err != nil {
			t.Fatal(err)
		}
		remote.Service().Invalidate()
		return remote.Index()
	}

	w.addJob(t, "jobs/mirrored", 9, 18)
	w.addJob(t, "jobs/bystander", 4, 8)
	sync()
	w.refreshAll()
	if got := w.totalRunning(); got != 13 {
		t.Fatalf("%d tasks running off the mirror, want 13", got)
	}
	reconciled := remote.Index()
	w.recommit(t, "jobs/mirrored", 2, func(c *config.JobConfig) { c.TaskCount = 8 })
	if moved := sync(); moved == reconciled || moved.Len() != 12 {
		t.Fatalf("the mirror did not apply the rescale: %d specs, same index = %v", moved.Len(), moved == reconciled)
	}
	remote.Service().Quiesce("jobs/mirrored")
	if got := remote.Index().JobShards(nil, "jobs/mirrored"); len(got) != 0 {
		t.Fatalf("the mirror still lists the quiesced job on shards %v", got)
	}
	if got := w.stopJobEverywhere(t, "jobs/mirrored"); got != 9 {
		t.Fatalf("%d tasks stopped, 9 ran", got)
	}
	remote.Service().Unquiesce("jobs/mirrored")
	w.refreshAll()
	if got := w.totalRunning(); got != 12 || w.ckpt.Violations() != 0 {
		t.Fatalf("%d tasks run after the resume (want 12), %d violations", got, w.ckpt.Violations())
	}
}
