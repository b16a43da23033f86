package taskservice

// Million-task scale tier: the spec-snapshot refresh
// at 1M tasks (125K jobs × 8 tasks over the tier's 100K shard space).
// The measured op is the steady-state production shape: a bounded set of
// running entries rewritten between rounds, then an incremental snapshot
// regeneration driven by the Job Store's change journal — every other
// job's group is reused, and only the index chunks the changed jobs
// touch are recloned.
//
// Like BenchmarkScaleSyncerRound1MConverged, each variant enforces an
// in-bench allocation ceiling via a runtime.MemStats delta bracketed
// around the timed Index() call, so a regression that reintroduces
// O(fleet) work in the refresh path (a rebuilt shard map, a fleet-wide
// group walk) fails the benchmark rather than just moving a number.
// Runs via `make bench-scale`; skips under -short.

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/jobstore"
	"repro/internal/simclock"
)

const (
	refreshJobs, refreshTasks, refreshShards = 125_000, 8, 100_000

	// refreshOneJobAllocCeiling bounds a one-changed-job refresh. The
	// real cost is ~350 objects (rebuild one 8-task group, clone the
	// touched chunks and the two pointer slices); the ceiling leaves
	// headroom while staying three orders of magnitude below the
	// pre-PR 7 full-map rebuild (465K allocs).
	refreshOneJobAllocCeiling = 2_000

	// refreshQuiesceAllocCeiling bounds a quiesce+unquiesce toggle pair
	// (two splice-only regenerations, no group rebuilt).
	refreshQuiesceAllocCeiling = 2_000
)

// refreshFleet builds the 1M-task store and a warmed service (first
// Index pays the one-time full build).
func refreshFleet(b *testing.B) (*Service, func(name, ver string, version int64)) {
	store := benchStore(b, refreshJobs, refreshTasks)
	clk := simclock.NewSim(epoch)
	svc := New(store, clk, 90*time.Second, refreshShards)
	if idx := svc.Index(); idx.Len() != refreshJobs*refreshTasks {
		b.Fatalf("setup: %d specs, want %d", idx.Len(), refreshJobs*refreshTasks)
	}
	commit := func(name, ver string, version int64) {
		cfg := jobCfg(name, refreshTasks)
		cfg.Package.Version = ver
		doc := runningOf(cfg)
		if err := store.CommitRunning(name, doc, version); err != nil {
			b.Fatal(err)
		}
	}
	// Collect the setup garbage (config docs, JSON marshalling, the
	// discarded first-build intermediates) so a GC cycle over the ~1.5 GB
	// fleet heap does not land inside a timed iteration.
	runtime.GC()
	return svc, commit
}

// BenchmarkScaleRefresh1M regenerates the index after one job changed,
// held to refreshOneJobAllocCeiling objects.
func BenchmarkScaleRefresh1M(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	svc, commit := refreshFleet(b)
	var m0, m1 runtime.MemStats
	var spent uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		commit("job62500", "v"+strconv.Itoa(i+2), int64(i+2))
		svc.Invalidate()
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		idx := svc.Index()
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		spent += m1.Mallocs - m0.Mallocs
		if idx.Len() != refreshJobs*refreshTasks {
			b.Fatalf("specs = %d", idx.Len())
		}
		b.StartTimer()
	}
	b.StopTimer()
	if per := float64(spent) / float64(b.N); per > refreshOneJobAllocCeiling {
		b.Fatalf("one-changed-job 1M refresh allocates %.0f objects/op, ceiling %d", per, refreshOneJobAllocCeiling)
	}
}

// BenchmarkScaleRefresh1MChurn1pct regenerates the index after 1 % of
// the fleet changed, held to one object per bucket and chunk the
// regeneration changed plus a stated constant per rebuilt job
// (regenAllocCeiling).
func BenchmarkScaleRefresh1MChurn1pct(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	const churn = refreshJobs / 100 // 1,250 jobs rewritten per refresh
	svc, commit := refreshFleet(b)
	prev := svc.Index()
	var m0, m1 runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		base := (i * churn) % refreshJobs
		for j := 0; j < churn; j++ {
			name := fmt.Sprintf("job%04d", (base+j)%refreshJobs)
			commit(name, fmt.Sprintf("v%d.%d", i+2, j), int64(i+2))
		}
		svc.Invalidate()
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		idx := svc.Index()
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		if idx.Len() != refreshJobs*refreshTasks {
			b.Fatalf("specs = %d", idx.Len())
		}
		// 1,250 groups rebuilt: the changed buckets and chunks plus the
		// per-job constant (see regenAllocCeiling) — some 32K objects,
		// where an O(fleet) regression would pay for 125K groups.
		if spent, ceiling := m1.Mallocs-m0.Mallocs, regenAllocCeiling(prev, idx, churn, releaseRegenAllocsPerJob); spent > ceiling {
			b.Fatalf("1%%-churn 1M refresh allocates %d objects, ceiling %d", spent, ceiling)
		}
		prev = idx
		b.StartTimer()
	}
}

// BenchmarkScaleRefresh1MOverflow is the 1 %-churn refresh with the
// journal overflowed in between: the same 1,250 jobs are recommitted
// until more than JournalCap entries pile up, so the service's cursor
// falls off the ring and its change set is the whole fleet. The ceiling
// is the 1 %-churn one: an overflow costs what its changes cost, not a
// fresh index.
func BenchmarkScaleRefresh1MOverflow(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	const churn = refreshJobs / 100
	svc, commit := refreshFleet(b)
	prev := svc.Index()
	var m0, m1 runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		base := (i * churn) % refreshJobs
		for lap := 0; lap*churn <= jobstore.JournalCap; lap++ {
			for j := 0; j < churn; j++ {
				name := fmt.Sprintf("job%04d", (base+j)%refreshJobs)
				commit(name, fmt.Sprintf("v%d.%d.%d", i+2, lap, j), int64(i+2))
			}
		}
		svc.Invalidate()
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		idx := svc.Index()
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		if idx.Len() != refreshJobs*refreshTasks {
			b.Fatalf("specs = %d", idx.Len())
		}
		if spent, ceiling := m1.Mallocs-m0.Mallocs, regenAllocCeiling(prev, idx, churn, releaseRegenAllocsPerJob); spent > ceiling {
			b.Fatalf("overflowed 1%%-churn 1M refresh allocates %d objects, ceiling %d", spent, ceiling)
		}
		prev = idx
		b.StartTimer()
	}
}

// BenchmarkScaleRefresh1MQuiesceToggle quiesces and unquiesces one job,
// two splice-only regenerations held to refreshQuiesceAllocCeiling
// objects.
func BenchmarkScaleRefresh1MQuiesceToggle(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	svc, _ := refreshFleet(b)
	const total = refreshJobs * refreshTasks
	var m0, m1 runtime.MemStats
	var spent uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		svc.Quiesce("job62500")
		quiesced := svc.Index()
		svc.Unquiesce("job62500")
		restored := svc.Index()
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		spent += m1.Mallocs - m0.Mallocs
		if quiesced.Len() != total-refreshTasks || restored.Len() != total {
			b.Fatalf("Len = %d / %d, want %d / %d", quiesced.Len(), restored.Len(), total-refreshTasks, total)
		}
		b.StartTimer()
	}
	b.StopTimer()
	if per := float64(spent) / float64(b.N); per > refreshQuiesceAllocCeiling {
		b.Fatalf("quiesce-toggle 1M refresh allocates %.0f objects/op, ceiling %d", per, refreshQuiesceAllocCeiling)
	}
}
