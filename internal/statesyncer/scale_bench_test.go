package statesyncer

// The million-task scale tier (ROADMAP: "Million-task scale tier with an
// allocation-free steady state"): 250K jobs × 4 tasks = 1M tasks, the
// order of Facebook's full streaming fleet. Run via `make bench-scale`;
// they skip under -short so the tier-1 bench smoke stays fast.
//
// BenchmarkScaleSyncerRound1MConverged additionally enforces the
// steady-state allocation ceiling: a converged round over the full tier
// must allocate at most steadyAllocCeiling objects, regardless of fleet
// size. A regression that re-introduces per-fleet allocation (a full
// sweep spike, a rebuilt plan buffer) fails the benchmark rather than
// just moving a number. It and the sharded variant also assert that a
// converged round plans no candidate at all and reads no job from the
// store's diverged set (Stats.SweepJobs does not move), so a round that
// re-plans converged jobs or walks them again fails too.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobstore"
	"repro/internal/simclock"
)

const (
	scaleJobs = 250_000 // × 4 tasks each = 1M tasks

	// steadyAllocCeiling is the pinned allocs/op budget for a converged
	// steady-state round. The round scratch makes the true steady state
	// zero; the ceiling leaves headroom for incidental runtime noise
	// (timer wheels, map growth on the clock path) without letting an
	// O(fleet) regression through.
	steadyAllocCeiling = 8

	// churnAllocPerJobCeiling bounds the allocations per CHANGED job in a
	// 1% churn round. The churn path reuses the round scratch (per-planner
	// Differs, plan data instead of commit closures), leaving ~9 objects
	// per divergent job: the shared layer re-merge, the fresh running
	// entry, and the diff's change-path strings. The old closure-building
	// path spent ~37; the ceiling pins the reuse so it cannot quietly
	// come back.
	churnAllocPerJobCeiling = 16
)

// BenchmarkScaleSyncerRound1MConverged: a converged round over 1M tasks
// allocates at most steadyAllocCeiling objects, plans no candidate and
// reads no job from the diverged set.
func BenchmarkScaleSyncerRound1MConverged(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	_, syncer := benchFleet(b, scaleJobs, Options{})
	// Warm a few rounds so the round scratch reaches its high-water size
	// before measurement.
	for r := 0; r < 10; r++ {
		syncer.RunRound()
	}
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	runtime.GC()
	read0 := syncer.Stats().SweepJobs
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syncer.RunRound()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if per := float64(m1.Mallocs-m0.Mallocs) / float64(b.N); per > steadyAllocCeiling {
		b.Fatalf("converged 1M-task round allocates %.1f objects/op, ceiling %d", per, steadyAllocCeiling)
	}
	if n := len(syncer.scratch.candidates); n != 0 {
		b.Fatalf("converged 1M-task round planned %d candidates, want 0", n)
	}
	if n := syncer.Stats().SweepJobs - read0; n != 0 {
		b.Fatalf("converged 1M-task rounds read %d jobs from the diverged set, want 0", n)
	}
}

// benchShardedFleet builds the scale-tier store and an N-node sharded
// syncer deployment on one sim clock, converged and with every home
// lease held.
func benchShardedFleet(b *testing.B, n, shards int) (*jobstore.Store, []*Node, *simclock.Sim) {
	b.Helper()
	store := jobstore.New()
	clk := simclock.NewSim(time.Unix(0, 0))
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("j%05d", i)
		doc := config.Doc{
			"name": name, "taskCount": 4,
			"package":       config.Doc{"name": "tailer", "version": "v1"},
			"taskResources": config.Doc{"cpuCores": 0.5, "memoryBytes": 1 << 29},
			"input":         config.Doc{"category": name + "_in", "partitions": 16},
		}
		if err := store.Create(name, docBlob(doc), nil); err != nil {
			b.Fatal(err)
		}
	}
	nodes := make([]*Node, shards)
	for k := 0; k < shards; k++ {
		nodes[k] = NewNode(store, NopActuator{}, clk, NodeOptions{Shards: shards, Index: k})
	}
	total := 0
	for _, nd := range nodes {
		nd.Tick()
		total += nd.Status()[nd.HomeSlice()].LastRound.Simple
	}
	if total != n {
		b.Fatalf("setup rounds synced %d/%d jobs", total, n)
	}
	return store, nodes, clk
}

// tickFleet runs one scheduling pass on every node and advances the
// clock one round interval, returning the jobs synced fleet-wide.
func tickFleet(nodes []*Node, clk *simclock.Sim) int {
	total := 0
	for _, nd := range nodes {
		nd.Tick()
		total += nd.Status()[nd.HomeSlice()].LastRound.Simple
	}
	clk.RunFor(30 * time.Second)
	return total
}

// BenchmarkScaleSyncerRound1MShardedConverged enforces the sharded
// steady-state ceiling: one full scheduling pass of all four nodes over
// a converged 1M-task fleet — four slice rounds plus every lease check,
// renewal, and foreign steal-gate probe — must stay allocation-free.
func BenchmarkScaleSyncerRound1MShardedConverged(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	_, nodes, clk := benchShardedFleet(b, scaleJobs, 4)
	for r := 0; r < 10; r++ {
		tickFleet(nodes, clk)
	}
	sweepJobs := func() int {
		n := 0
		for _, nd := range nodes {
			n += nd.Stats().SweepJobs
		}
		return n
	}
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	runtime.GC()
	read0 := sweepJobs()
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, nd := range nodes {
			nd.Tick()
		}
		clk.RunFor(30 * time.Second)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if per := float64(m1.Mallocs-m0.Mallocs) / float64(b.N); per > steadyAllocCeiling {
		b.Fatalf("converged sharded pass allocates %.1f objects/op, ceiling %d", per, steadyAllocCeiling)
	}
	for _, nd := range nodes {
		if n := len(nd.slices[nd.HomeSlice()].engine.scratch.candidates); n != 0 {
			b.Fatalf("converged slice %d round planned %d candidates, want 0", nd.HomeSlice(), n)
		}
	}
	if n := sweepJobs() - read0; n != 0 {
		b.Fatalf("converged sharded passes read %d jobs from the diverged set, want 0", n)
	}
}

// BenchmarkScaleSyncerRound1MShardedChurn1pct measures the latency one
// shard pays to converge its stripe of a fleet-wide 1% churn wave: the
// peer shards' rounds run off the timer (on real deployments they run
// concurrently on other hosts), then node 0's full scheduling pass —
// lease check, slice round, lease renewal — is timed. Compare
// against BenchmarkScaleSyncerRound1MChurn1pct, where a single syncer
// pays for the whole wave; the ISSUE acceptance wants ≥2.5× at N=4.
func BenchmarkScaleSyncerRound1MShardedChurn1pct(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	store, nodes, clk := benchShardedFleet(b, scaleJobs, 4)
	for r := 0; r < 10; r++ {
		tickFleet(nodes, clk)
	}
	// The churn set is fixed (every 100th job), so slice 0's share of the
	// wave is a constant of the stripe hash.
	want0 := 0
	for i := 0; i < scaleJobs; i += 100 {
		if SliceOfName(fmt.Sprintf("j%05d", i), 4) == 0 {
			want0++
		}
	}
	if want0 == 0 {
		b.Fatal("no churned jobs map to slice 0")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		churn(b, store, scaleJobs, 100, i+2)
		for _, nd := range nodes[1:] {
			nd.Tick()
		}
		b.StartTimer()
		nodes[0].Tick()
		b.StopTimer()
		if got := nodes[0].Status()[0].LastRound.Simple; got != want0 {
			b.Fatalf("slice 0 synced %d jobs, want %d", got, want0)
		}
		clk.RunFor(30 * time.Second)
		b.StartTimer()
	}
}

// BenchmarkScaleSyncerShardedSpeedup is the paired acceptance
// measurement for the ≥2.5× claim: one single-syncer deployment and one
// 4-shard deployment over identical 1M-task fleets, churned identically
// and timed back-to-back within every iteration (alternating order), so
// machine-load drift — which dwarfs the effect when the two benchmarks
// run minutes apart — cancels out. The timed shard cost is node 0's full
// scheduling pass; the peer shards run off the measurement, as they
// would on their own hosts. Reports single-ns/op, shard-ns/op, and their
// ratio as "speedup".
func BenchmarkScaleSyncerShardedSpeedup(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	storeA, single := benchFleet(b, scaleJobs, Options{})
	for r := 0; r < 10; r++ {
		single.RunRound()
	}
	storeB, nodes, clk := benchShardedFleet(b, scaleJobs, 4)
	for r := 0; r < 10; r++ {
		tickFleet(nodes, clk)
	}
	want0 := 0
	for i := 0; i < scaleJobs; i += 100 {
		if SliceOfName(fmt.Sprintf("j%05d", i), 4) == 0 {
			want0++
		}
	}
	var tSingle, tShard time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn(b, storeA, scaleJobs, 100, i+2)
		churn(b, storeB, scaleJobs, 100, i+2)
		for _, nd := range nodes[1:] {
			nd.Tick()
		}
		runSingle := func() {
			t0 := time.Now()
			if res := single.RunRound(); res.Simple != scaleJobs/100 {
				b.Fatalf("single round synced %d jobs, want %d", res.Simple, scaleJobs/100)
			}
			tSingle += time.Since(t0)
		}
		runShard := func() {
			t0 := time.Now()
			nodes[0].Tick()
			tShard += time.Since(t0)
			if got := nodes[0].Status()[0].LastRound.Simple; got != want0 {
				b.Fatalf("slice 0 synced %d jobs, want %d", got, want0)
			}
		}
		if i%2 == 0 {
			runSingle()
			runShard()
		} else {
			runShard()
			runSingle()
		}
		clk.RunFor(30 * time.Second)
	}
	b.StopTimer()
	b.ReportMetric(float64(tSingle.Nanoseconds())/float64(b.N), "single-ns/op")
	b.ReportMetric(float64(tShard.Nanoseconds())/float64(b.N), "shard-ns/op")
	b.ReportMetric(tSingle.Seconds()/tShard.Seconds(), "speedup")
}

// BenchmarkScaleSyncerRound1MChurn1pct: a round that syncs a 1 % package
// release allocates at most churnAllocPerJobCeiling objects per changed
// job.
func BenchmarkScaleSyncerRound1MChurn1pct(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	store, syncer := benchFleet(b, scaleJobs, Options{})
	for r := 0; r < 10; r++ {
		syncer.RunRound()
	}
	// Warm the churn path once (grows the per-slot diff scratch and plan
	// buffers to their high-water mark) so the bracket measures reuse,
	// not first-round growth.
	churn(b, store, scaleJobs, 100, 0) // "v0": distinct from the fleet's v1
	if res := syncer.RunRound(); res.Simple != scaleJobs/100 {
		b.Fatalf("warm round synced %d jobs, want %d", res.Simple, scaleJobs/100)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	var spent uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		churn(b, store, scaleJobs, 100, i+2) // 1% of the fleet released
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		if res := syncer.RunRound(); res.Simple != scaleJobs/100 {
			b.Fatalf("round synced %d jobs, want %d", res.Simple, scaleJobs/100)
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		spent += m1.Mallocs - m0.Mallocs
		b.StartTimer()
	}
	b.StopTimer()
	const churned = scaleJobs / 100
	if per := float64(spent) / float64(b.N) / churned; per > churnAllocPerJobCeiling {
		b.Fatalf("1%% churn round allocates %.1f objects per changed job (%.0f/op), ceiling %d",
			per, per*churned, churnAllocPerJobCeiling)
	}
}
