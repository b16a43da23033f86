package taskservice

// The parallel paths — group rebuilds and chunk publishes on the worker
// pool — and the shared partition arena must be invisible:
// byte-identical snapshots, identical partition assignments, compared to
// sequential, per-slice-allocating builds.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/jobstore"
	"repro/internal/shardmanager"
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
// shares the cached group's shard windows, its partition windows too if
// the partition count is kept, and its checkpoint directories if the
// template is; one that changes the task count lays its group out
// afresh.
func TestReleaseRebuildSharesLayout(t *testing.T) {
	store := jobstore.New()
	svc := New(store, simclock.NewSim(epoch), 90*time.Second, 64)
	version := int64(0)
	ckpt := "/ckpt/$JOB/$TASK"
	rebuild := func(tasks, partitions int, pkg string) *jobGroup {
		t.Helper()
		cfg := jobCfg("j", tasks)
		cfg.Input.Partitions, cfg.Package.Version, cfg.CheckpointDir = partitions, pkg, ckpt
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
	// The directories of a templated job: one string per task, which a
	// release and a repartition keep and a new template replaces.
	sharedDirs := func(a, b *jobGroup) (n int) {
		for i := range a.specs {
			if unsafe.StringData(a.specs[i].CheckpointDir) == unsafe.StringData(b.specs[i].CheckpointDir) {
				n++
			}
		}
		return n
	}
	if n := sharedDirs(g1, g2); n != 8 || g2.specs[5].CheckpointDir != "/ckpt/j/5" {
		t.Fatalf("a release kept %d of 8 checkpoint directories (task 5: %q)", n, g2.specs[5].CheckpointDir)
	}
	if n := sharedDirs(g2, g3); n != 8 {
		t.Fatalf("a repartition kept %d of 8 checkpoint directories", n)
	}
	ckpt = "/ckpt2/$JOB/$TASK"
	g5 := rebuild(8, 24, "v2")
	if n := sharedDirs(g3, g5); n != 0 || g5.specs[5].CheckpointDir != "/ckpt2/j/5" {
		t.Fatalf("a new template kept %d checkpoint directories (task 5: %q)", n, g5.specs[5].CheckpointDir)
	}
	g4 := rebuild(6, 24, "v2")
	if &g4.shards[0] == &g5.shards[0] || len(g4.indexed) != 6 || g4.specs[5].CheckpointDir != "/ckpt2/j/5" {
		t.Fatal("a rescale shared the old layout")
	}
}

// TestParallelRebuildEquivalence forces the worker-pool paths (which
// single-CPU hosts never take organically) — group rebuilds past their
// fan-out threshold and publishes of publishFanOut edits or more, over
// two chunks that hundreds of jobs share — through seeded rounds of
// releases, same-content recommits, quiesce toggles, task-count changes,
// drops and namesake re-creates, with a journal overflow and small
// rounds, which publish inline, in between. Every published snapshot
// must be byte-identical to a from-scratch sequential build, and a
// bucket must keep its array exactly when its content did not change.
func TestParallelRebuildEquivalence(t *testing.T) {
	const numShards = 96
	const jobPool = 500
	rng := rand.New(rand.NewSource(11))
	store := jobstore.New()
	svc := New(store, simclock.NewSim(epoch), 90*time.Second, numShards)
	svc.rebuildPar = 4 // force pool dispatch regardless of GOMAXPROCS

	cfgs := make(map[string]*config.JobConfig) // live jobs' committed configs
	vers := make(map[string]int64)
	quiesced := make(map[string]bool)
	commit := func(cfg *config.JobConfig) {
		cfgs[cfg.Name] = cfg
		vers[cfg.Name]++
		if err := store.CommitRunning(cfg.Name, runningOf(cfg), vers[cfg.Name]); err != nil {
			t.Fatal(err)
		}
	}
	edit := func(name string, change func(c *config.JobConfig)) {
		c := *cfgs[name]
		change(&c)
		commit(&c)
	}
	for i := 0; i < jobPool; i++ {
		commit(jobCfg(fmt.Sprintf("job%03d", i), 1+i%5))
	}
	prev := svc.Index()
	for round := 0; round < 12; round++ {
		small := round%4 == 3
		for i := 0; i < jobPool; i++ {
			name := fmt.Sprintf("job%03d", i)
			if small && rng.Intn(40) != 0 {
				continue
			}
			if cfgs[name] == nil { // dropped earlier: its namesake returns
				commit(jobCfg(name, 1+rng.Intn(5)))
				continue
			}
			switch rng.Intn(8) {
			case 0, 1, 2: // release
				edit(name, func(c *config.JobConfig) { c.Package.Version = fmt.Sprintf("v%d", round) })
			case 3:
				edit(name, func(c *config.JobConfig) { c.TaskCount = 1 + rng.Intn(5) })
			case 4: // same content under a new revision
				commit(cfgs[name])
			case 5:
				if quiesced[name] = !quiesced[name]; quiesced[name] {
					svc.Quiesce(name)
				} else {
					svc.Unquiesce(name)
				}
			case 6: // dropped, and half the time re-created in the same round
				store.DropRunning(name)
				delete(cfgs, name)
				if rng.Intn(2) == 0 {
					commit(jobCfg(name, 1+rng.Intn(5)))
				}
			}
		}
		if round == 5 {
			// Overflow the journal, so the change set is the whole fleet.
			for i, n := 0, 0; n < jobstore.JournalCap+10; i++ {
				if name := fmt.Sprintf("job%03d", i%jobPool); cfgs[name] != nil {
					commit(cfgs[name])
					n++
				}
			}
		}
		svc.Invalidate()
		idx := svc.Index()
		assertIndexEquivalent(t, idx, scratchIndex(store, numShards, quiesced), numShards)
		was, is := shardFingerprint(t, prev, numShards), shardFingerprint(t, idx, numShards)
		changed := 0
		for s := range numShards {
			equal := slices.Equal(was[s], is[s])
			if same := SameBucket(prev.ShardSpecs(shardmanager.ShardID(s)), idx.ShardSpecs(shardmanager.ShardID(s))); same != equal {
				t.Fatalf("round %d, shard %d: content equal = %v, same array = %v", round, s, equal, same)
			}
			changed += changedRuns(was[s], is[s])
		}
		if !small && changed < publishFanOut {
			t.Fatalf("round %d changed %d job runs: too few to publish on the pool", round, changed)
		}
		prev = idx
	}
}

// changedRuns counts the jobs whose run differs between two fingerprints
// of one bucket (shardFingerprint's): a lower bound on the publish's edits
// of that bucket.
func changedRuns(was, is []string) int {
	runs := func(fp []string) map[string]string {
		m := make(map[string]string)
		for _, e := range fp {
			m[engine.JobOfTaskID(e[:strings.IndexByte(e, '|')])] += e + "\n"
		}
		return m
	}
	a, b := runs(was), runs(is)
	n := 0
	for job, run := range a {
		if b[job] != run {
			n++
		}
	}
	for job := range b {
		if _, ok := a[job]; !ok {
			n++
		}
	}
	return n
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
