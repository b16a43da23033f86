package taskservice

import (
	"fmt"
	"repro/internal/config"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/jobstore"
	"repro/internal/shardmanager"
	"repro/internal/simclock"
)

func benchStore(b *testing.B, jobs, tasks int) *jobstore.Store {
	b.Helper()
	store := jobstore.New()
	for i := 0; i < jobs; i++ {
		name := fmt.Sprintf("job%04d", i)
		doc := runningOf(jobCfg(name, tasks))
		store.CommitRunning(name, doc, 1)
	}
	return store
}

// BenchmarkSnapshotRegenerate measures a from-scratch snapshot
// generation: 1k jobs x 8 tasks, no warm per-job group cache (a Task
// Service cold start).
func BenchmarkSnapshotRegenerate(b *testing.B) {
	store := benchStore(b, 1000, 8)
	clk := simclock.NewSim(epoch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := New(store, clk, 90*time.Second, 1024)
		if idx := svc.Index(); idx.Len() != 8000 {
			b.Fatalf("specs = %d", idx.Len())
		}
	}
}

// An incremental regeneration allocates one array per bucket it changes,
// one clone per chunk holding such a bucket, a number of objects per job
// it rebuilds, and regenAllocsFixed for the draft, the index and scratch
// growth (~11 measured). Buckets are not rebuilt per job that changed in
// them, chunks not cloned per bucket. A release-shaped rebuild (same
// task and partition counts, same checkpoint template) costs
// releaseRegenAllocsPerJob: 3.02 measured over 400 rebuilt 8-task jobs,
// + 10 % rounded up — the group, its specs and its indexed entries; the
// IDs, shard windows, partition windows and checkpoint directories are
// the cached group's. The 1M-fleet tier holds its releases to the same.
const (
	releaseRegenAllocsPerJob = 4
	regenAllocsFixed         = 128
)

// regenAllocCeiling is the in-bench allocation ceiling for the
// regeneration that published next over prev after rebuilding rebuilt
// jobs: the buckets and chunks that actually differ between the two
// indexes, plus the stated constants.
func regenAllocCeiling(prev, next *SnapshotIndex, rebuilt, perJob int) uint64 {
	touched := 0
	for ci, c := range next.chunks {
		if c == prev.chunks[ci] {
			continue
		}
		touched++
		for li := range c.buckets {
			if prev.chunks[ci] == nil || !SameBucket(prev.chunks[ci].buckets[li], c.buckets[li]) {
				touched++
			}
		}
	}
	return uint64(touched + perJob*rebuilt + regenAllocsFixed)
}

// BenchmarkSnapshotIncremental measures regeneration when exactly one job
// out of 1k changed since the previous snapshot — the steady-state shape
// of a production fleet between rounds — and holds each regeneration to
// regenAllocCeiling.
func BenchmarkSnapshotIncremental(b *testing.B) {
	store := benchStore(b, 1000, 8)
	clk := simclock.NewSim(epoch)
	svc := New(store, clk, 90*time.Second, 1024)
	prev := svc.Index()
	if prev.Len() != 8000 {
		b.Fatal("bad setup")
	}
	var m0, m1 runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := jobCfg("job0500", 8)
		cfg.Package.Version = "v" + strconv.Itoa(i)
		doc := runningOf(cfg)
		store.CommitRunning("job0500", doc, int64(i+2))
		svc.Invalidate()
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		idx := svc.Index()
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		if idx.Len() != 8000 {
			b.Fatalf("specs = %d", idx.Len())
		}
		if spent, ceiling := m1.Mallocs-m0.Mallocs, regenAllocCeiling(prev, idx, 1, releaseRegenAllocsPerJob); spent > ceiling {
			b.Fatalf("one-changed-job regeneration allocates %d objects, ceiling %d", spent, ceiling)
		}
		prev = idx
		b.StartTimer()
	}
}

// benchRegenerate measures regenerations after rebuilt of 1k 8-task jobs
// change by change each time, holding each to regenAllocCeiling with
// perJob, and reports the objects spent per rebuilt job beyond the
// buckets and chunks it touched.
func benchRegenerate(b *testing.B, rebuilt, perJob int, change func(cfg *config.JobConfig, i int)) {
	store := benchStore(b, 1000, 8)
	clk := simclock.NewSim(epoch)
	svc := New(store, clk, 90*time.Second, 1024)
	prev := svc.Index()
	var m0, m1 runtime.MemStats
	var spent, touched uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < rebuilt; j++ {
			name := fmt.Sprintf("job%04d", (i*rebuilt+j)%1000)
			cfg := jobCfg(name, 8)
			change(cfg, i)
			if err := store.CommitRunning(name, runningOf(cfg), int64(i+2)); err != nil {
				b.Fatal(err)
			}
		}
		svc.Invalidate()
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		idx := svc.Index()
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		ceiling := regenAllocCeiling(prev, idx, rebuilt, perJob)
		if n := m1.Mallocs - m0.Mallocs; n > ceiling {
			b.Fatalf("regeneration of %d rebuilt jobs allocates %d objects, ceiling %d", rebuilt, n, ceiling)
		}
		spent += m1.Mallocs - m0.Mallocs
		touched += ceiling - uint64(perJob*rebuilt+regenAllocsFixed)
		prev = idx
		b.StartTimer()
	}
	b.ReportMetric(float64(spent-touched)/float64(b.N*rebuilt), "objects/job")
}

// BenchmarkSnapshotRelease regenerates after a package release of 400
// jobs: same task count, same partitions, new version. Each group is
// rebuilt onto its cached layout, held to releaseRegenAllocsPerJob.
func BenchmarkSnapshotRelease(b *testing.B) {
	benchRegenerate(b, 400, releaseRegenAllocsPerJob, func(cfg *config.JobConfig, i int) {
		cfg.Package.Version = "v" + strconv.Itoa(i+4)
	})
}

// BenchmarkBuildGroupShards50K buckets one 50 000-task job's group over
// 4 096 shards — a single wide job whose task count changed, so its group
// is sorted and bucketed from scratch inside the regeneration lock. The
// work is one in-place sort and one pass over the sorted entries, so it
// allocates the shard list and nothing else whatever the task count; a
// copy of the group or a slice grown per shard breaks the in-bench
// ceiling, and a per-task scan of the shards seen so far (quadratic:
// 247 ms at this size, against ~20 ms) shows in ns/op.
func BenchmarkBuildGroupShards50K(b *testing.B) {
	const tasks, numShards = 50_000, 4096
	tmpl := &engine.JobSpec{Job: "wide"}
	specs := make([]engine.TaskSpec, tasks)
	indexed := make([]IndexedSpec, tasks)
	for i := range indexed {
		specs[i] = engine.TaskSpec{JobSpec: tmpl, Index: i}
		id := specs[i].ID()
		indexed[i] = IndexedSpec{ID: id, Shard: shardmanager.ShardOf(id, numShards), Spec: &specs[i]}
	}
	work := make([]IndexedSpec, tasks)
	var m0, m1 runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The runtime's own background work can add a stray object to a
		// process-wide delta; the calls allocate the same every time, so a
		// second and third look tell the two apart.
		var shards []groupShard
		spent := ^uint64(0)
		for try := 0; try < 3 && spent > 1; try++ {
			b.StopTimer()
			copy(work, indexed) // task-index order, as a fresh build has it
			b.StartTimer()
			runtime.ReadMemStats(&m0)
			sortByShard(work)
			shards = buildGroupShards(work)
			runtime.ReadMemStats(&m1)
			spent = min(spent, m1.Mallocs-m0.Mallocs)
		}
		if spent > 1 {
			b.Fatalf("sorting and bucketing a group allocates %d objects for %d tasks, ceiling 1", spent, tasks)
		}

		b.StopTimer()
		g := &jobGroup{indexed: work, shards: shards}
		total := 0
		for k, gs := range shards {
			if k > 0 && gs.shard <= shards[k-1].shard {
				b.Fatalf("buckets out of shard order at %d", k)
			}
			w := g.window(k)
			for j, is := range w {
				if is.Shard != gs.shard || (j > 0 && is.Spec.Index <= w[j-1].Spec.Index) {
					b.Fatalf("shard %d bucket wrong at entry %d: %+v", gs.shard, j, is)
				}
			}
			total += len(w)
		}
		if total != tasks {
			b.Fatalf("buckets hold %d entries, want %d", total, tasks)
		}
		b.StartTimer()
	}
}
