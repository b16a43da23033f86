package taskservice

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/jobstore"
	"repro/internal/simclock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func runningDoc(t *testing.T, cfg *config.JobConfig) config.Doc {
	t.Helper()
	d, err := cfg.ToDoc()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func jobCfg(name string, tasks int) *config.JobConfig {
	return &config.JobConfig{
		Name:           name,
		Package:        config.Package{Name: "tailer", Version: "v3"},
		TaskCount:      tasks,
		ThreadsPerTask: 2,
		TaskResources:  config.Resources{CPUCores: 1, MemoryBytes: 1 << 30},
		Operator:       config.OpTailer,
		Input:          config.Input{Category: name + "_in", Partitions: 16},
		Output:         config.Output{Category: name + "_out"},
		CheckpointDir:  "/ckpt/$JOB/$TASK",
		SLOSeconds:     90,
	}
}

func TestSnapshotGeneratesSpecsPerTask(t *testing.T) {
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	store.CommitRunning("j1", runningDoc(t, jobCfg("j1", 4)), 1)
	svc := New(store, clk, 90*time.Second, 64)

	specs, _ := svc.Snapshot()
	if len(specs) != 4 {
		t.Fatalf("got %d specs, want 4", len(specs))
	}
	perTask := make([][]int, 4)
	for _, s := range specs {
		if s.Job != "j1" || s.PackageVersion != "v3" || s.Threads != 2 {
			t.Fatalf("bad spec %+v", s)
		}
		perTask[s.Index] = s.Partitions
	}
	if err := engine.ValidatePartitionAssignment(16, perTask); err != nil {
		t.Fatal(err)
	}
}

func TestTemplateSubstitution(t *testing.T) {
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	store.CommitRunning("j1", runningDoc(t, jobCfg("j1", 2)), 1)
	specs, _ := New(store, clk, 0, 64).Snapshot()
	for _, s := range specs {
		want := "/ckpt/j1/" + map[int]string{0: "0", 1: "1"}[s.Index]
		if s.CheckpointDir != want {
			t.Fatalf("CheckpointDir = %q, want %q", s.CheckpointDir, want)
		}
	}

	// Substitution is one pass over the template: what $JOB expands to is
	// text. A job named "a$TASK" checkpoints under its own name — not under
	// "a0", "a1", which are other jobs' directories.
	for i, s := range SpecsForJob(jobCfg("a$TASK", 2), new(engine.JobSpec)) {
		if want := "/ckpt/a$TASK/" + strconv.Itoa(i); s.CheckpointDir != want {
			t.Fatalf("CheckpointDir = %q, want %q", s.CheckpointDir, want)
		}
	}
	for _, tc := range []struct{ template, want string }{
		{"", ""},
		{"/fixed", "/fixed"},
		{"$TASK$JOB$TASK", "7j7"},
		{"$JO$TASKB/$$JOB", "$JO7B/$j"},
	} {
		if got := parseTemplate(tc.template, "j").expand(7); got != tc.want {
			t.Fatalf("template %q expands to %q, want %q", tc.template, got, tc.want)
		}
	}
}

func TestSnapshotCachedWithinTTL(t *testing.T) {
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	store.CommitRunning("j1", runningDoc(t, jobCfg("j1", 2)), 1)
	svc := New(store, clk, 90*time.Second, 64)

	svc.Snapshot()
	store.CommitRunning("j1", runningDoc(t, jobCfg("j1", 8)), 2)

	// Inside TTL: stale snapshot.
	clk.RunFor(60 * time.Second)
	if specs, _ := svc.Snapshot(); len(specs) != 2 {
		t.Fatalf("snapshot regenerated within TTL: %d specs", len(specs))
	}
	if svc.Generations() != 1 {
		t.Fatalf("Generations = %d, want 1", svc.Generations())
	}
	// Past TTL: fresh.
	clk.RunFor(31 * time.Second)
	if specs, _ := svc.Snapshot(); len(specs) != 8 {
		t.Fatalf("snapshot stale after TTL: %d specs", len(specs))
	}
	if svc.Generations() != 2 {
		t.Fatalf("Generations = %d, want 2", svc.Generations())
	}
}

func TestInvalidateForcesRegeneration(t *testing.T) {
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	store.CommitRunning("j1", runningDoc(t, jobCfg("j1", 2)), 1)
	svc := New(store, clk, 90*time.Second, 64)
	svc.Snapshot()
	store.CommitRunning("j1", runningDoc(t, jobCfg("j1", 5)), 2)
	svc.Invalidate()
	if specs, _ := svc.Snapshot(); len(specs) != 5 {
		t.Fatalf("Invalidate did not force regeneration: %d specs", len(specs))
	}
}

func TestStoppedJobsProduceNoSpecs(t *testing.T) {
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	cfg := jobCfg("j1", 2)
	cfg.Stopped = true
	store.CommitRunning("j1", runningDoc(t, cfg), 1)
	if specs, _ := New(store, clk, 0, 64).Snapshot(); len(specs) != 0 {
		t.Fatalf("stopped job produced %d specs", len(specs))
	}
}

func TestMultipleJobsSortedOrder(t *testing.T) {
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	store.CommitRunning("b", runningDoc(t, jobCfg("b", 1)), 1)
	store.CommitRunning("a", runningDoc(t, jobCfg("a", 1)), 1)
	specs, _ := New(store, clk, 0, 64).Snapshot()
	if len(specs) != 2 || specs[0].Job != "a" || specs[1].Job != "b" {
		t.Fatalf("specs = %+v", specs)
	}
}

func TestUndecodableRunningConfigSkipped(t *testing.T) {
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	store.CommitRunning("bad", config.Doc{"taskCount": "not-a-number"}, 1)
	store.CommitRunning("good", runningDoc(t, jobCfg("good", 1)), 1)
	specs, _ := New(store, clk, 0, 64).Snapshot()
	if len(specs) != 1 || specs[0].Job != "good" {
		t.Fatalf("specs = %+v", specs)
	}
}

func TestSpecsForJobResourcePropagation(t *testing.T) {
	cfg := jobCfg("j1", 3)
	cfg.TaskResources = config.Resources{CPUCores: 2.5, MemoryBytes: 3 << 30}
	cfg.Enforcement = config.EnforceCgroup
	cfg.Priority = 7
	for _, s := range SpecsForJob(cfg, new(engine.JobSpec)) {
		if s.Resources.CPUCores != 2.5 || s.Resources.MemoryBytes != 3<<30 {
			t.Fatalf("resources = %+v", s.Resources)
		}
		if s.Enforcement != config.EnforceCgroup || s.Priority != 7 {
			t.Fatalf("spec = %+v", s)
		}
	}
}

func TestSpecChangesOnPackageBump(t *testing.T) {
	a := SpecsForJob(jobCfg("j1", 1), new(engine.JobSpec))[0]
	cfg := jobCfg("j1", 1)
	cfg.Package.Version = "v4"
	b := SpecsForJob(cfg, new(engine.JobSpec))[0]
	if a.ID() != b.ID() {
		t.Fatal("task identity changed on package bump")
	}
	if a.Equal(&b) {
		t.Fatal("spec still Equal after a package bump")
	}
}
