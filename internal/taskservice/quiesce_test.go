package taskservice

import (
	"testing"
	"time"

	"repro/internal/jobstore"
	"repro/internal/simclock"
)

func TestQuiesceSuppressesSpecsImmediately(t *testing.T) {
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	store.CommitRunning("j1", runningOf(jobCfg("j1", 4)), 1)
	store.CommitRunning("j2", runningOf(jobCfg("j2", 2)), 1)
	svc := New(store, clk, 90*time.Second, 64)

	if specs, _ := svc.Snapshot(); len(specs) != 6 {
		t.Fatalf("specs = %d, want 6", len(specs))
	}
	// Quiesce must bypass the 90s cache: the next snapshot already
	// excludes the job, or stale Task Managers could resurrect old tasks
	// mid-complex-sync.
	svc.Quiesce("j1")
	specs, _ := svc.Snapshot()
	if len(specs) != 2 {
		t.Fatalf("specs = %d after quiesce, want 2", len(specs))
	}
	for _, s := range specs {
		if s.Job == "j1" {
			t.Fatal("quiesced job still produces specs")
		}
	}
	svc.Unquiesce("j1")
	if specs, _ := svc.Snapshot(); len(specs) != 6 {
		t.Fatalf("specs = %d after unquiesce, want 6", len(specs))
	}
}

func TestQuiesceUnknownJobHarmless(t *testing.T) {
	svc := New(jobstore.New(), simclock.NewSim(epoch), 0, 64)
	svc.Quiesce("ghost")
	svc.Unquiesce("ghost")
	svc.Unquiesce("ghost")
	if specs, _ := svc.Snapshot(); len(specs) != 0 {
		t.Fatal("phantom specs")
	}
}

func TestSnapshotVersionChangesOnlyOnContentChange(t *testing.T) {
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	store.CommitRunning("j1", runningOf(jobCfg("j1", 2)), 1)
	svc := New(store, clk, 90*time.Second, 64)

	_, v1 := svc.Snapshot()
	// Regeneration without change: version stable.
	clk.RunFor(2 * time.Minute)
	_, v2 := svc.Snapshot()
	if v1 != v2 {
		t.Fatalf("version moved with no content change: %d -> %d", v1, v2)
	}
	// Content change: version moves after the cache expires.
	store.CommitRunning("j1", runningOf(jobCfg("j1", 5)), 2)
	clk.RunFor(2 * time.Minute)
	_, v3 := svc.Snapshot()
	if v3 == v2 {
		t.Fatal("version did not move with a content change")
	}
}
