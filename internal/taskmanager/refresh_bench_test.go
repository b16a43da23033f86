package taskmanager

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/jobstore"
	"repro/internal/scribe"
	"repro/internal/shardmanager"
	"repro/internal/simclock"
	"repro/internal/taskservice"
	"repro/internal/tupperware"
)

// restartAllocCeiling bounds what Refresh may allocate per task it
// restarts: the engine.Task, its instance name, the spec ID, the lease and
// offset bookkeeping of Stop and Start. The real cost is ~10 objects; the
// ceiling leaves headroom while staying far below anything proportional
// to the tasks a manager merely keeps running.
const restartAllocCeiling = 24

// BenchmarkManagerRefresh measures one fleet-wide refresh cycle after a
// one-job package bump: 16 managers x (1k jobs x 8 tasks), at most 8 of
// the 256 buckets touched. The timed region is the 16 Refresh calls; the
// commit and the Task Service's regeneration sit outside it.
func BenchmarkManagerRefresh(b *testing.B) {
	benchRefreshCycle(b, 1000, 8, 16, 256)
}

// BenchmarkScaleManagerRefresh is the same cycle at BENCHMARK.json's fleet
// shape — 10 000 jobs x 8 tasks, 64 managers, 4 096 shards — where a
// one-job bump leaves at least 56 managers untouched.
func BenchmarkScaleManagerRefresh(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	benchRefreshCycle(b, 10_000, 8, 64, 4096)
}

// benchRefreshCycle runs the refresh cycle and enforces, per iteration and
// via runtime.MemStats deltas bracketed around each Refresh, the two
// allocation ceilings that make the Task Manager O(changed): a manager
// none of whose buckets the version bump touched allocates nothing, and
// one with k touched buckets allocates one task slice per bucket plus a
// bounded amount per restarted task.
func benchRefreshCycle(b *testing.B, jobs, tasksPer, containers, numShards int) {
	clk := simclock.NewSim(epoch)
	store := jobstore.New()
	bus := scribe.NewBus()
	ckpt := engine.NewCheckpointStore()
	tw := tupperware.NewCluster()
	ts := taskservice.New(store, clk, 90*time.Second, numShards)
	sm := shardmanager.New(clk, shardmanager.Options{NumShards: numShards})
	profile := func(spec engine.TaskSpec) *engine.Profile {
		return engine.DefaultProfile(spec.Operator)
	}
	byID := make(map[string]int, containers)
	var tms []*Manager
	for i := 0; i < containers; i++ {
		host := fmt.Sprintf("h%d", i)
		if err := tw.AddHost(host, config.Resources{CPUCores: 480, MemoryBytes: 4 << 40}); err != nil {
			b.Fatal(err)
		}
		ct, err := tw.AllocateOn(host, fmt.Sprintf("tc%d", i), config.Resources{CPUCores: 400, MemoryBytes: 2 << 40})
		if err != nil {
			b.Fatal(err)
		}
		tm := New(ct, clk, ts, sm, bus, ckpt, profile, Options{})
		tm.sm.RegisterInRegion(tm.id, "", ct.Capacity(), tm)
		byID[tm.id] = i
		tms = append(tms, tm)
	}
	commit := func(job int, pkgVersion string, version int64) {
		name := fmt.Sprintf("job%05d", job)
		cfg := &config.JobConfig{
			Name:           name,
			Package:        config.Package{Name: "tailer", Version: pkgVersion},
			TaskCount:      tasksPer,
			ThreadsPerTask: 1,
			TaskResources:  config.Resources{CPUCores: 0.1, MemoryBytes: 1 << 28},
			Operator:       config.OpTailer,
			Input:          config.Input{Category: name + "_in", Partitions: tasksPer},
		}
		doc, err := cfg.ToDoc()
		if err != nil {
			b.Fatal(err)
		}
		if err := store.CommitRunning(name, doc, version); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < jobs; i++ {
		commit(i, "v1", 1)
	}
	sm.AssignUnassigned()
	total := 0
	for _, tm := range tms {
		tm.Refresh()
		total += tm.TaskCount()
	}
	if total != jobs*tasksPer {
		b.Fatalf("setup: %d running tasks, want %d", total, jobs*tasksPer)
	}
	runtime.GC()

	touched := make([]int, containers) // buckets of manager i the bump touched
	restarts := make([]int, containers)
	var m0, m1 runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		job := (i * 7919) % jobs
		commit(job, fmt.Sprintf("v%d", i+2), int64(i+2))
		ts.Invalidate()
		ts.Index()
		clear(touched)
		clear(restarts)
		seen := make(map[shardmanager.ShardID]struct{}, tasksPer)
		for k := 0; k < tasksPer; k++ {
			s := shardmanager.ShardOf(engine.TaskID(fmt.Sprintf("job%05d", job), k), numShards)
			owner, _ := sm.Owner(s)
			restarts[byID[owner]]++
			if _, dup := seen[s]; !dup {
				seen[s] = struct{}{}
				touched[byID[owner]]++
			}
		}
		for k, tm := range tms {
			before := tm.Stats().Restarted
			runtime.ReadMemStats(&m0)
			b.StartTimer()
			tm.Refresh()
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			spent := m1.Mallocs - m0.Mallocs
			if got := tm.Stats().Restarted - before; got != restarts[k] {
				b.Fatalf("%s restarted %d tasks, want %d", tm.ID(), got, restarts[k])
			}
			// MemStats counts the whole process, so a runtime goroutine can
			// leak an object into the bracket. An untouched manager's next
			// Refresh is the same no-op: a real allocation repeats.
			for try := 0; touched[k] == 0 && spent != 0 && try < 3; try++ {
				runtime.ReadMemStats(&m0)
				tm.Refresh()
				runtime.ReadMemStats(&m1)
				spent = m1.Mallocs - m0.Mallocs
			}
			if touched[k] == 0 && spent != 0 {
				b.Fatalf("%s: refresh after a bump that touched none of its buckets allocated %d objects, want 0", tm.ID(), spent)
			}
			if ceiling := uint64(touched[k] + restarts[k]*restartAllocCeiling); spent > ceiling {
				b.Fatalf("%s: refresh over %d touched buckets (%d restarts) allocated %d objects, ceiling %d",
					tm.ID(), touched[k], restarts[k], spent, ceiling)
			}
		}
		b.StartTimer()
	}
}
