package taskmanager

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/jobstore"
	"repro/internal/scribe"
	"repro/internal/shardmanager"
	"repro/internal/simclock"
	"repro/internal/taskservice"
	"repro/internal/tupperware"
)

// managerBytesPerTaskCeiling bounds the live heap a Task Manager adds per
// running task on top of the engine.Task itself and the one pointer that
// holds it. The per-shard table is that pointer plus a record per shard
// (≈ 2 B/task here); the string-keyed task map it replaced cost 133 B/task
// by this same measure, which BENCHMARK.json saw as 10 MB of heap_mb on
// the 80 K-task fleet.
const managerBytesPerTaskCeiling = 32

// taskStructCeiling bounds the engine.Task object itself — the other term
// of the fleet's per-task heap. 160 B is an allocator size class, and what
// the struct measures while it refers to the index's spec, names its
// incarnation by number and keeps one slice header for its offsets and
// end offsets; holding its own copy of the spec made it 400 B (a 416 B
// allocation), which BENCHMARK.json saw as 18 MB of heap_mb on the
// 80 K-task fleet.
const taskStructCeiling = 160

func TestTaskStructSize(t *testing.T) {
	if got := unsafe.Sizeof(engine.Task{}); got > taskStructCeiling {
		t.Fatalf("engine.Task is %d B, ceiling %d: every running task of the fleet pays the difference", got, taskStructCeiling)
	}
}

// TestManagerBytesPerTask starts the same 10 000 tasks twice — directly
// through engine.NewTask into a plain slice, then through one Task Manager
// that owns every shard — and holds the difference in live heap to the
// ceiling.
func TestManagerBytesPerTask(t *testing.T) {
	const (
		jobs, tasksPer = 1250, 8
		tasks          = jobs * tasksPer
		numShards      = 64
	)
	clk := simclock.NewSim(epoch)
	store := jobstore.New()
	for i := 0; i < jobs; i++ {
		name := fmt.Sprintf("job%04d", i)
		cfg := &config.JobConfig{
			Name:           name,
			Package:        config.Package{Name: "tailer", Version: "v1"},
			TaskCount:      tasksPer,
			ThreadsPerTask: 1,
			TaskResources:  config.Resources{CPUCores: 0.1, MemoryBytes: 1 << 28},
			Operator:       config.OpTailer,
			Input:          config.Input{Category: name + "_in", Partitions: tasksPer},
		}
		doc := runningOf(cfg)
		if err := store.CommitRunning(name, doc, 1); err != nil {
			t.Fatal(err)
		}
	}
	ts := taskservice.New(store, clk, 90*time.Second, numShards)
	idx := ts.Index()
	if idx.Len() != tasks {
		t.Fatalf("index holds %d specs, want %d", idx.Len(), tasks)
	}
	bus := scribe.NewBus()
	shared := engine.DefaultProfile(config.OpTailer)
	profile := func(engine.TaskSpec) *engine.Profile { return shared }
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	// Each side gets a checkpoint store of its own: the same leases, no
	// conflicts between the two sets of tasks.
	base := liveHeap()
	directCkpt := engine.NewCheckpointStore()
	direct := make([]*engine.Task, 0, tasks)
	for s := shardmanager.ShardID(0); s < numShards; s++ {
		for _, is := range idx.ShardSpecs(s) {
			task := engine.NewTask(is.Spec, profile(*is.Spec), bus, directCkpt)
			if err := task.Start(); err != nil {
				t.Fatal(err)
			}
			direct = append(direct, task)
		}
	}
	afterDirect := liveHeap()

	tw := tupperware.NewCluster()
	if err := tw.AddHost("h0", config.Resources{CPUCores: 4800, MemoryBytes: 64 << 40}); err != nil {
		t.Fatal(err)
	}
	ct, err := tw.AllocateOn("h0", "tc0", config.Resources{CPUCores: 4000, MemoryBytes: 32 << 40})
	if err != nil {
		t.Fatal(err)
	}
	sm := shardmanager.New(clk, shardmanager.Options{NumShards: numShards})
	tm := New(ct, clk, ts, sm, bus, engine.NewCheckpointStore(), profile, Options{})
	for s := shardmanager.ShardID(0); s < numShards; s++ {
		if err := tm.AddShard(s); err != nil {
			t.Fatal(err)
		}
	}
	afterManager := liveHeap()
	if got := tm.TaskCount(); got != tasks || len(direct) != tasks {
		t.Fatalf("%d tasks on the manager, %d direct, want %d each", got, len(direct), tasks)
	}

	directBytes, managerBytes := int64(afterDirect-base), int64(afterManager-afterDirect)
	perTask := float64(managerBytes-directBytes) / tasks
	t.Logf("direct %d B, through the manager %d B: %.1f B/task of manager overhead", directBytes, managerBytes, perTask)
	if perTask > managerBytesPerTaskCeiling {
		t.Fatalf("the Task Manager holds %.1f B of live heap per task beyond the task itself, ceiling %d", perTask, managerBytesPerTaskCeiling)
	}
	runtime.KeepAlive(direct)
	runtime.KeepAlive(tm)
}

// TestRetainedIndexPinsNoFleetGeneration: a published index references
// every job's specs, so the one index a manager retains is a whole fleet
// generation of live heap while it is held. A manager that runs nothing
// must hold none — its container died, or it rebooted into a partition —
// and one that is cut off but still serving holds the generation it last
// reconciled, however many releases the fleet has been through since,
// until the proactive reboot lets it go. Measured against the size of one
// generation, after several fleet-wide package releases each.
func TestRetainedIndexPinsNoFleetGeneration(t *testing.T) {
	const (
		jobs, tasksPer = 2000, 2 // two tasks: a manager's own buckets pin the spec arrays of a quarter of the jobs only
		containers     = 8
		releases       = 4
	)
	w := newWorld(t, containers)
	version := int64(0)
	release := func() {
		t.Helper()
		version++
		for i := 0; i < jobs; i++ {
			name := fmt.Sprintf("job%04d", i)
			cfg := &config.JobConfig{
				Name:           name,
				Package:        config.Package{Name: "tailer", Version: fmt.Sprintf("v%d", version)},
				TaskCount:      tasksPer,
				ThreadsPerTask: 1,
				TaskResources:  config.Resources{CPUCores: 0.1, MemoryBytes: 1 << 28},
				Operator:       config.OpTailer,
				Input:          config.Input{Category: name + "_in", Partitions: tasksPer},
			}
			doc := runningOf(cfg)
			if err := w.store.CommitRunning(name, doc, version); err != nil {
				t.Fatal(err)
			}
		}
		w.ts.Invalidate()
		w.refreshAll() // gated or dead managers skip it
	}
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	release()
	release() // the second one warms what a release itself leaves behind (journal ring, scratch)
	if got := w.totalRunning(); got != jobs*tasksPer {
		t.Fatalf("%d tasks run, want %d", got, jobs*tasksPer)
	}

	// One generation: what a second Task Service over the same store holds.
	before := liveHeap()
	extra := taskservice.New(w.store, w.clk, 90*time.Second, 64).Index()
	generation := liveHeap() - before
	runtime.KeepAlive(extra)
	extra = nil
	if generation < 1<<19 {
		t.Fatalf("one generation measured as %d B; the fleet is too small to tell anything", generation)
	}
	base := liveHeap()
	grown := func() float64 { return float64(liveHeap()-base) / float64(generation) }

	// Dead container: releases go by, it holds its own buckets and no index.
	dead := w.tms[0]
	if err := w.tw.SetHostHealthy("h0", false); err != nil {
		t.Fatal(err)
	}
	dead.OnContainerDead()
	for i := 0; i < releases; i++ {
		release()
	}
	afterDeath := grown()
	t.Logf("generation %d B; %d releases after a container died: live heap %+.2f generations", generation, releases, afterDeath)
	if afterDeath > 0.5 {
		t.Fatalf("live heap grew by %.2f generations over %d releases with one dead container: it pins an index", afterDeath, releases)
	}

	// Cut off but serving: exactly the generation it last reconciled stays,
	// not one per release.
	cutOff := w.tms[1]
	w.links[1].setDark(true)
	w.clk.RunFor(cutOff.opts.HeartbeatInterval) // the gate shuts at the first heartbeat that times out
	for i := 0; i < releases; i++ {
		release()
	}
	serving := grown()
	t.Logf("%d more releases with a manager cut off and serving: %+.2f generations", releases, serving)
	if cutOff.TaskCount() == 0 || serving < afterDeath+0.5 || serving > afterDeath+1.5 {
		t.Fatalf("a cut-off manager running %d tasks holds %.2f generations over the dead one's %.2f; want about one",
			cutOff.TaskCount(), serving-afterDeath, afterDeath)
	}
	// The proactive reboot stops its tasks, and with them goes the index.
	w.clk.RunFor(DefaultConnectionTimeout + 15*time.Second)
	if cutOff.TaskCount() != 0 || cutOff.Stats().Reboots != 1 {
		t.Fatalf("cut-off manager: %d tasks, %d reboots after the proactive timeout", cutOff.TaskCount(), cutOff.Stats().Reboots)
	}
	rebooted := grown()
	t.Logf("after its proactive reboot: %+.2f generations", rebooted)
	if rebooted > afterDeath+0.5 {
		t.Fatalf("live heap still %.2f generations up after the cut-off manager rebooted (%.2f with the dead one alone)", rebooted, afterDeath)
	}
	runtime.KeepAlive(w)
}
