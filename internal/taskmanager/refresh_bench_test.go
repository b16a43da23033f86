package taskmanager

import (
	"fmt"
	"runtime"
	"slices"
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
// restarts. A package bump keeps every task's partitions, so each restart
// is in place (engine.CheckpointStore.Handover), which allocates nothing,
// plus whatever the profile hook allocates — one object in this fixture.
// About 1.1 per restart was measured; the ceiling leaves one object of
// headroom and stays far below anything proportional to the tasks a
// manager merely keeps running.
const restartAllocCeiling = 2

// bracketNoise is what the process was seen to add to one touched
// manager's MemStats bracket beyond Refresh's own allocations: up to 6
// objects, in about one refresh in 5 000. An untouched manager's Refresh
// can be repeated until the bracket is clean; a touched one's cannot, so
// its ceiling carries this allowance.
const bracketNoise = 6

// BenchmarkManagerRefresh measures one fleet-wide refresh cycle after a
// one-job package bump: 16 managers x (1k jobs x 8 tasks), at most 8 of
// the 256 buckets touched. The timed region is the 16 Refresh calls; the
// commit and the Task Service's regeneration sit outside it.
func BenchmarkManagerRefresh(b *testing.B) {
	benchRefreshCycle(b, 1000, 8, 16, 256)
}

// BenchmarkScaleManagerRefresh is the same cycle at BENCHMARK.json's fleet
// shape — 10 000 jobs x 8 tasks, 64 managers, 4 096 shards — where a
// one-job bump leaves at least 56 managers untouched, with the same
// ceilings (see benchRefreshCycle).
func BenchmarkScaleManagerRefresh(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	benchRefreshCycle(b, 10_000, 8, 64, 4096)
}

// BenchmarkScaleWaveRefresh is one release wave at BENCHMARK.json's fleet
// shape — 10 000 jobs x 8 tasks, 64 managers, 4 096 shards — as
// release_push drives it: each op bumps the package of 10 % of the jobs
// (the next tenth each op), then all 64 managers Refresh. Only the 64
// Refresh calls are timed, and the op reports ns per changed task. In
// bench, each op must restart exactly 8 000 tasks, every one in place (no
// task stopped or started cold), and the wave's Refresh calls may
// allocate no more than the profile hook does for those restarts: a
// bucket that keeps its tasks reuses its slot array, and the restarts'
// queue and the checkpoint-store handover allocate nothing once warm.
func BenchmarkScaleWaveRefresh(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	const jobs, tasksPer, wave = 10_000, 8, 1_000
	f := newBenchFleet(b, jobs, tasksPer, 64, 4096)
	hook := testing.AllocsPerRun(100, func() { engine.DefaultProfile(config.OpTailer) })
	sum := func() (st Stats) {
		for _, tm := range f.tms {
			s := tm.Stats()
			st.Restarted += s.Restarted
			st.Started += s.Started
			st.Stopped += s.Stopped
			st.StartErrors += s.StartErrors
		}
		return st
	}
	var m0, m1 runtime.MemStats
	bump := 0 // waves committed so far
	// cycle commits the next wave, regenerates the index, and refreshes
	// every manager; only the refreshes are timed when timed is set.
	cycle := func(timed bool) {
		bump++
		version := fmt.Sprintf("v%d", bump/(jobs/wave)+2)
		lo := (bump - 1) % (jobs / wave) * wave
		for j := lo; j < lo+wave; j++ {
			f.commit(j, version, int64(bump+1))
		}
		f.ts.Invalidate()
		f.ts.Index()
		before := sum()
		runtime.ReadMemStats(&m0)
		if timed {
			b.StartTimer()
		}
		for _, tm := range f.tms {
			tm.Refresh()
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		after := sum()
		restarted := after.Restarted - before.Restarted
		if restarted != wave*tasksPer || after.Started-before.Started != restarted ||
			after.Stopped != before.Stopped || after.StartErrors != before.StartErrors {
			b.Fatalf("wave %d: %d restarted, %d started, %d stopped, %d start errors; want %d restarted in place",
				bump, restarted, after.Started-before.Started, after.Stopped-before.Stopped,
				after.StartErrors-before.StartErrors, wave*tasksPer)
		}
		if timed {
			spent := m1.Mallocs - m0.Mallocs
			if ceiling := uint64(float64(restarted)*hook) + bracketNoise; spent > ceiling {
				b.Fatalf("wave %d: refreshing %d in-place restarts allocated %d objects, ceiling %d (the profile hook's %.0f per restart)",
					bump, restarted, spent, ceiling, hook)
			}
		}
	}
	for lap := 0; lap < jobs/wave; lap++ {
		cycle(false) // grows each manager's restart queue to its largest wave
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		cycle(true)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*wave*tasksPer), "ns/changed-task")
}

// BenchmarkScaleStopJobFanout is the first phase of a complex
// synchronization at fleet scale: StopJob(job) on every one of 64 managers
// — the actuators broadcast, see Manager.StopJob — then the Refresh that
// restarts the job (it was not quiesced). Two shapes: BENCHMARK.json's
// (10 000 jobs x 8 tasks, 4 096 shards: 64 owned shards per manager) and
// the 1M-task tier's (125 000 jobs, 100 000 shards: 1 563 per manager).
// Each enforces in-bench that a fan-out stops exactly the job's tasks and
// allocates nothing, and the larger fleet's fan-out must stay within 4x of
// the smaller one's: each manager looks the job up in the index it retains
// and searches only the job's own buckets, so the cost follows the job,
// not the shards a manager owns (a search of every owned bucket grows 24x
// between the two).
func BenchmarkScaleStopJobFanout(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	var fanout [2]time.Duration
	b.Run("F80K", func(b *testing.B) { fanout[0] = benchStopJobFanout(b, 10_000, 8, 64, 4096) })
	b.Run("F1M", func(b *testing.B) { fanout[1] = benchStopJobFanout(b, 125_000, 8, 64, 100_000) })
	if fanout[0] > 0 && fanout[1] > 4*fanout[0] {
		b.Fatalf("StopJob fan-out: %v over 1 563 owned shards per manager, %v over 64; want within 4x", fanout[1], fanout[0])
	}
}

// stopFanoutSamples is how many fan-outs the median handed to the 4x
// comparison is taken over, however few iterations the run asks for.
const stopFanoutSamples = 64

// benchStopJobFanout times b.N stop-and-restart cycles of one job each and
// returns the median duration of the StopJob fan-out alone.
func benchStopJobFanout(b *testing.B, jobs, tasksPer, containers, numShards int) time.Duration {
	f := newBenchFleet(b, jobs, tasksPer, containers, numShards)
	var m0, m1 runtime.MemStats
	// cycle stops job on every manager and refreshes them all, which
	// restarts it; only the two loops over the managers are timed. It
	// returns how long the fan-out took and what it allocated.
	cycle := func(job string, timed bool) (took time.Duration, spent uint64) {
		stopped, started := 0, 0
		runtime.ReadMemStats(&m0)
		if timed {
			b.StartTimer()
		}
		start := time.Now()
		for _, tm := range f.tms {
			stopped += tm.StopJob(job)
		}
		took = time.Since(start)
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		if stopped != tasksPer {
			b.Fatalf("StopJob(%s) on every manager stopped %d tasks, the job has %d", job, stopped, tasksPer)
		}
		for _, tm := range f.tms {
			started -= tm.Stats().Started
		}
		if timed {
			b.StartTimer()
		}
		for _, tm := range f.tms {
			tm.Refresh()
		}
		b.StopTimer()
		for _, tm := range f.tms {
			started += tm.Stats().Started
		}
		if started != tasksPer {
			b.Fatalf("the refresh after StopJob(%s) started %d tasks, want %d", job, started, tasksPer)
		}
		return took, m1.Mallocs - m0.Mallocs
	}
	n := max(b.N, stopFanoutSamples) // iterations past b.N are untimed: they only feed the median
	samples := make([]time.Duration, 0, n)
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < n; i++ {
		job := jobName((i * 7919) % jobs)
		took, spent := cycle(job, i < b.N)
		// MemStats counts the whole process, so a runtime goroutine can leak
		// an object into the bracket; a real allocation repeats.
		for try := 0; spent != 0 && try < 3; try++ {
			_, spent = cycle(job, false)
		}
		if spent != 0 {
			b.Fatalf("StopJob(%s) on %d managers allocated %d objects, want 0", job, containers, spent)
		}
		samples = append(samples, took)
	}
	slices.Sort(samples)
	median := samples[len(samples)/2]
	b.ReportMetric(float64(median.Nanoseconds()), "fanout-ns")
	return median
}

// benchFleet is the fixture of the scale benchmarks: a Task Service over
// jobs x tasksPer one-partition tailer tasks, and containers registered
// Task Managers that between them own numShards shards and run every task.
type benchFleet struct {
	ts   *taskservice.Service
	sm   *shardmanager.Manager
	tms  []*Manager
	byID map[string]int // manager ID -> position in tms
	// commit (re)commits job number job at the given package version.
	commit func(job int, pkgVersion string, version int64)
}

func jobName(job int) string { return fmt.Sprintf("job%05d", job) }

func newBenchFleet(b *testing.B, jobs, tasksPer, containers, numShards int) *benchFleet {
	clk := simclock.NewSim(epoch)
	store := jobstore.New()
	bus := scribe.NewBus()
	ckpt := engine.NewCheckpointStore()
	tw := tupperware.NewCluster()
	f := &benchFleet{
		ts:   taskservice.New(store, clk, 90*time.Second, numShards),
		sm:   shardmanager.New(clk, shardmanager.Options{NumShards: numShards}),
		byID: make(map[string]int, containers),
	}
	profile := func(spec engine.TaskSpec) *engine.Profile {
		return engine.DefaultProfile(spec.Operator)
	}
	for i := 0; i < containers; i++ {
		host := fmt.Sprintf("h%d", i)
		if err := tw.AddHost(host, config.Resources{CPUCores: 480, MemoryBytes: 4 << 40}); err != nil {
			b.Fatal(err)
		}
		ct, err := tw.AllocateOn(host, fmt.Sprintf("tc%d", i), config.Resources{CPUCores: 400, MemoryBytes: 2 << 40})
		if err != nil {
			b.Fatal(err)
		}
		tm := New(ct, clk, f.ts, f.sm, bus, ckpt, profile, Options{})
		tm.sm.RegisterInRegion(tm.id, "", ct.Capacity(), tm)
		f.byID[tm.id] = i
		f.tms = append(f.tms, tm)
	}
	f.commit = func(job int, pkgVersion string, version int64) {
		name := jobName(job)
		cfg := &config.JobConfig{
			Name:           name,
			Package:        config.Package{Name: "tailer", Version: pkgVersion},
			TaskCount:      tasksPer,
			ThreadsPerTask: 1,
			TaskResources:  config.Resources{CPUCores: 0.1, MemoryBytes: 1 << 28},
			Operator:       config.OpTailer,
			Input:          config.Input{Category: name + "_in", Partitions: tasksPer},
		}
		doc := runningOf(cfg)
		if err := store.CommitRunning(name, doc, version); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < jobs; i++ {
		f.commit(i, "v1", 1)
	}
	f.sm.AssignUnassigned()
	total := 0
	for _, tm := range f.tms {
		tm.Refresh()
		total += tm.TaskCount()
	}
	if total != jobs*tasksPer {
		b.Fatalf("setup: %d running tasks, want %d", total, jobs*tasksPer)
	}
	runtime.GC()
	return f
}

// benchRefreshCycle runs the refresh cycle and enforces, per iteration and
// via runtime.MemStats deltas bracketed around each Refresh, the two
// allocation ceilings that make the Task Manager O(changed): a manager
// none of whose buckets the version bump touched allocates nothing, and
// one with k touched buckets allocates at most one object per bucket (the
// manager's spare slot array may have to grow to the bucket) plus a
// bounded amount per restarted task.
func benchRefreshCycle(b *testing.B, jobs, tasksPer, containers, numShards int) {
	f := newBenchFleet(b, jobs, tasksPer, containers, numShards)
	ts, sm, tms, byID, commit := f.ts, f.sm, f.tms, f.byID, f.commit

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
			s := shardmanager.ShardOf(engine.TaskID(jobName(job), k), numShards)
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
			if ceiling := uint64(touched[k] + restarts[k]*restartAllocCeiling + bracketNoise); spent > ceiling {
				b.Fatalf("%s: refresh over %d touched buckets (%d restarts) allocated %d objects, ceiling %d",
					tm.ID(), touched[k], restarts[k], spent, ceiling)
			}
		}
		b.StartTimer()
	}
}
