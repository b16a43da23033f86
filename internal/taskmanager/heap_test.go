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
// of the fleet's per-task heap. 192 B is an allocator size class, and what
// the struct measures while it refers to the index's spec; holding its own
// copy of the spec made it 400 B (a 416 B allocation), which BENCHMARK.json
// saw as 18 MB of heap_mb on the 80 K-task fleet.
const taskStructCeiling = 192

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
		doc, err := cfg.ToDoc()
		if err != nil {
			t.Fatal(err)
		}
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
