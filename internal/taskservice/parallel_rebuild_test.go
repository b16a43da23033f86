package taskservice

// PR 8 satellite coverage: the parallel group-rebuild path and the
// shared partition arena must be invisible — byte-identical snapshots,
// identical partition assignments — compared to the sequential,
// per-slice-allocating originals.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/jobstore"
	"repro/internal/simclock"
)

// TestPartitionWindowMatchesAssignPartitions cross-checks the arena
// window against engine.AssignPartitions over an exhaustive grid,
// including the nil-vs-non-nil-empty distinction that json.Marshal
// observes.
func TestPartitionWindowMatchesAssignPartitions(t *testing.T) {
	for total := -1; total <= 33; total++ {
		var arena []int
		if total > 0 {
			arena = make([]int, total)
			for p := range arena {
				arena[p] = p
			}
		}
		for taskCount := -1; taskCount <= 12; taskCount++ {
			for index := -2; index <= taskCount+1; index++ {
				want := engine.AssignPartitions(total, taskCount, index)
				got := partitionWindow(arena, total, taskCount, index)
				if (want == nil) != (got == nil) {
					t.Fatalf("(%d,%d,%d): nil-ness diverges: window=%v assign=%v",
						total, taskCount, index, got, want)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("(%d,%d,%d): window=%v assign=%v", total, taskCount, index, got, want)
				}
			}
		}
	}
}

// TestPartitionWindowsAreWriteIsolated pins the three-index slicing: a
// caller appending through one task's partition slice must not clobber a
// neighbour's range in the shared arena.
func TestPartitionWindowsAreWriteIsolated(t *testing.T) {
	specs := SpecsForJob(jobCfg("iso", 4), new(engine.JobSpec), nil)
	grown := append(specs[0].Partitions, 999)
	_ = grown
	for i, s := range specs {
		want := engine.AssignPartitions(16, 4, i)
		if !reflect.DeepEqual(s.Partitions, want) {
			t.Fatalf("task %d partitions corrupted by neighbour append: %v, want %v", i, s.Partitions, want)
		}
	}
}

// TestSpecsForJobReusesWindowsOfEqualCounts: an expansion over an
// earlier one assigns exactly engine.AssignPartitions's ranges whatever
// the earlier counts were, and shares the earlier windows exactly when
// the task and partition counts both match.
func TestSpecsForJobReusesWindowsOfEqualCounts(t *testing.T) {
	expand := func(total, tasks int, prev []engine.TaskSpec) []engine.TaskSpec {
		cfg := jobCfg("re", tasks)
		cfg.Input.Partitions = total
		return SpecsForJob(cfg, new(engine.JobSpec), prev)
	}
	for total := -1; total <= 12; total++ {
		for tasks := 1; tasks <= 5; tasks++ {
			prev := expand(total, tasks, nil)
			for total2 := -1; total2 <= 12; total2++ {
				for tasks2 := 1; tasks2 <= 5; tasks2++ {
					specs := expand(total2, tasks2, prev)
					same := total == total2 && tasks == tasks2
					for i, s := range specs {
						want := engine.AssignPartitions(total2, tasks2, i)
						if (want == nil) != (s.Partitions == nil) || !reflect.DeepEqual(s.Partitions, want) {
							t.Fatalf("(%d,%d) over (%d,%d): task %d partitions %v, want %v", total2, tasks2, total, tasks, i, s.Partitions, want)
						}
						if len(want) == 0 {
							continue
						}
						shared := i < len(prev) && len(prev[i].Partitions) > 0 && &s.Partitions[0] == &prev[i].Partitions[0]
						if shared != same {
							t.Fatalf("(%d,%d) over (%d,%d): task %d shares its window: %v, want %v", total2, tasks2, total, tasks, i, shared, same)
						}
					}
				}
			}
		}
	}
}

// TestReleaseRebuildSharesLayout: a rebuild that keeps the task count
// shares the cached group's shard windows, and its partition windows
// too if the partition count is kept; one that changes the task count
// lays its group out afresh.
func TestReleaseRebuildSharesLayout(t *testing.T) {
	store := jobstore.New()
	svc := New(store, simclock.NewSim(epoch), 90*time.Second, 64)
	version := int64(0)
	rebuild := func(tasks, partitions int, pkg string) *jobGroup {
		t.Helper()
		cfg := jobCfg("j", tasks)
		cfg.Input.Partitions, cfg.Package.Version = partitions, pkg
		version++
		if err := store.CommitRunning("j", runningOf(cfg), version); err != nil {
			t.Fatal(err)
		}
		svc.Invalidate()
		svc.Index()
		return svc.groups["j"]
	}
	g1 := rebuild(8, 16, "v1")
	g2 := rebuild(8, 16, "v2")
	if &g2.shards[0] != &g1.shards[0] || &g2.specs[0].Partitions[0] != &g1.specs[0].Partitions[0] {
		t.Fatal("a release rebuilt the group's shard or partition windows")
	}
	if g2.spec.PackageVersion != "v2" || g2.indexed[0].Spec.PackageVersion != "v2" {
		t.Fatalf("release rebuild serves version %q", g2.indexed[0].Spec.PackageVersion)
	}
	g3 := rebuild(8, 24, "v2")
	if &g3.shards[0] != &g2.shards[0] || &g3.specs[0].Partitions[0] == &g2.specs[0].Partitions[0] {
		t.Fatal("a repartition must keep the shard windows and rebuild the partition windows")
	}
	g4 := rebuild(6, 24, "v2")
	if &g4.shards[0] == &g3.shards[0] || len(g4.indexed) != 6 {
		t.Fatal("a rescale shared the old layout")
	}
}

// TestParallelRebuildEquivalence forces the worker-pool rebuild path
// (which single-CPU hosts never take organically) through churn batches
// past the fan-out threshold, and pins every published snapshot
// byte-identical to a from-scratch sequential build.
func TestParallelRebuildEquivalence(t *testing.T) {
	const numShards = 96
	const jobPool = 60 // every round rebuilds > the fan-out threshold
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	svc := New(store, clk, 90*time.Second, numShards)
	svc.rebuildPar = 4 // force pool dispatch regardless of GOMAXPROCS

	vers := make(map[string]int64)
	commit := func(name string, tasks int, pkg string) {
		cfg := jobCfg(name, tasks)
		cfg.Package.Version = pkg
		doc := runningOf(cfg)
		vers[name]++
		if err := store.CommitRunning(name, doc, vers[name]); err != nil {
			t.Fatal(err)
		}
	}

	for round := 0; round < 6; round++ {
		for i := 0; i < jobPool; i++ {
			commit(fmt.Sprintf("job%03d", i), 1+(i+round)%5, fmt.Sprintf("v%d", round))
		}
		if round == 3 {
			// Overflow the journal so the prebuild of a whole-fleet change
			// set (and its pool dispatch) is exercised too.
			for i := 0; i < jobstore.JournalCap+10; i++ {
				commit(fmt.Sprintf("job%03d", i%jobPool), 1+i%5, fmt.Sprintf("v%d-%d", round, i/jobPool))
			}
		}
		svc.Invalidate()
		assertIndexEquivalent(t, svc.Index(), scratchIndex(store, numShards, nil), numShards)
	}
}

// TestParallelRebuildSkipsDropsAndDuplicates feeds the change-set
// collector the cases it must fold or keep from the pool: dropped jobs,
// duplicate journal entries, and jobs whose cached group is already at
// the current revision.
func TestParallelRebuildSkipsDropsAndDuplicates(t *testing.T) {
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	svc := New(store, clk, 90*time.Second, 16)

	doc := runningOf(jobCfg("a", 2))
	store.CommitRunning("a", doc, 1)
	store.CommitRunning("b", runningOf(jobCfg("b", 3)), 1)
	if got := svc.Index().Len(); got != 5 {
		t.Fatalf("initial snapshot has %d specs, want 5", got)
	}

	// Duplicate commits of a, then a drop of b, then a commit of a
	// deleted job: the splice pass must observe exactly the journal's
	// truth with the prebuild in front of it.
	store.CommitRunning("a", doc, 2)
	store.CommitRunning("a", doc, 3)
	store.DropRunning("b")
	store.CommitRunning("c", runningOf(jobCfg("c", 4)), 1)
	store.DropRunning("c")
	svc.Invalidate()
	if got := svc.Index().Len(); got != 2 {
		t.Fatalf("after churn snapshot has %d specs, want 2 (a only)", got)
	}

	assertIndexEquivalent(t, svc.Index(), scratchIndex(store, 16, nil), 16)
}
