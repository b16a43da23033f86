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
	specs := SpecsForJob(jobCfg("iso", 4), new(engine.JobSpec))
	grown := append(specs[0].Partitions, 999)
	_ = grown
	for i, s := range specs {
		want := engine.AssignPartitions(16, 4, i)
		if !reflect.DeepEqual(s.Partitions, want) {
			t.Fatalf("task %d partitions corrupted by neighbour append: %v, want %v", i, s.Partitions, want)
		}
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
		doc, err := cfg.ToDoc()
		if err != nil {
			t.Fatal(err)
		}
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

	doc, err := jobCfg("a", 2).ToDoc()
	if err != nil {
		t.Fatal(err)
	}
	store.CommitRunning("a", doc, 1)
	store.CommitRunning("b", runningDoc(t, jobCfg("b", 3)), 1)
	if got := svc.Index().Len(); got != 5 {
		t.Fatalf("initial snapshot has %d specs, want 5", got)
	}

	// Duplicate commits of a, then a drop of b, then a commit of a
	// deleted job: the splice pass must observe exactly the journal's
	// truth with the prebuild in front of it.
	store.CommitRunning("a", doc, 2)
	store.CommitRunning("a", doc, 3)
	store.DropRunning("b")
	store.CommitRunning("c", runningDoc(t, jobCfg("c", 4)), 1)
	store.DropRunning("c")
	svc.Invalidate()
	if got := svc.Index().Len(); got != 2 {
		t.Fatalf("after churn snapshot has %d specs, want 2 (a only)", got)
	}

	assertIndexEquivalent(t, svc.Index(), scratchIndex(store, 16, nil), 16)
}
