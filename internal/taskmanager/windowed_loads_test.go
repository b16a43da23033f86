package taskmanager

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/jobstore"
	"repro/internal/metrics"
	"repro/internal/scribe"
	"repro/internal/shardmanager"
	"repro/internal/simclock"
	"repro/internal/taskservice"
	"repro/internal/tupperware"
)

// recordingSM wraps the real Shard Manager client and captures the last
// batched load report.
type recordingSM struct {
	*shardmanager.Manager
	last map[shardmanager.ShardID]config.Resources
}

func (r *recordingSM) ReportShardLoads(loads map[shardmanager.ShardID]config.Resources) {
	r.last = loads
	r.Manager.ReportShardLoads(loads)
}

func TestReportLoadsUsesWindowedMean(t *testing.T) {
	clk := simclock.NewSim(epoch)
	store := jobstore.New()
	bus := scribe.NewBus()
	ckpt := engine.NewCheckpointStore()
	tw := tupperware.NewCluster()
	ts := taskservice.New(store, clk, 90*time.Second, 8)
	sm := shardmanager.New(clk, shardmanager.Options{NumShards: 8})
	rec := &recordingSM{Manager: sm}
	ms := metrics.NewStore(clk, time.Hour)
	profile := func(spec engine.TaskSpec) *engine.Profile {
		return engine.DefaultProfile(spec.Operator)
	}
	if err := tw.AddHost("h0", config.Resources{CPUCores: 48, MemoryBytes: 256 << 30}); err != nil {
		t.Fatal(err)
	}
	ct, err := tw.AllocateOn("h0", "tc0", config.Resources{CPUCores: 40, MemoryBytes: 200 << 30})
	if err != nil {
		t.Fatal(err)
	}
	tm := New(ct, clk, ts, rec, bus, ckpt, profile, Options{
		LoadReportInterval: time.Minute,
		Metrics:            ms,
	})
	tm.Start()
	sm.AssignUnassigned()

	cfg := &config.JobConfig{
		Name:           "wj",
		Package:        config.Package{Name: "tailer", Version: "v1"},
		TaskCount:      2,
		ThreadsPerTask: 2,
		TaskResources:  config.Resources{CPUCores: 2, MemoryBytes: 2 << 30},
		Operator:       config.OpTailer,
		Input:          config.Input{Category: "wj_in", Partitions: 4},
		Enforcement:    config.EnforceCgroup,
		SLOSeconds:     90,
	}
	if err := bus.CreateCategory("wj_in", 4); err != nil {
		t.Fatal(err)
	}
	doc := runningOf(cfg)
	// Sample a few idle ticks first: the container owns its shards but
	// runs nothing yet, so zero-usage points land in the window.
	for i := 0; i < 3; i++ {
		clk.RunFor(5 * time.Second)
		tm.Advance(5 * time.Second)
	}

	store.CommitRunning("wj", doc, 1)
	ts.Invalidate()
	tm.Refresh()
	if tm.TaskCount() != 2 {
		t.Fatalf("tasks = %d, want 2", tm.TaskCount())
	}

	// Feed traffic and advance: each tick samples per-shard usage into the
	// metrics store at a distinct sim time.
	for i := 0; i < 3; i++ {
		if err := bus.AppendEven("wj_in", 1<<20, 1000); err != nil {
			t.Fatal(err)
		}
		clk.RunFor(5 * time.Second)
		tm.Advance(5 * time.Second)
	}

	tm.ReportLoads()
	if rec.last == nil {
		t.Fatal("no load report captured")
	}
	var reported, instantaneous float64
	for _, l := range rec.last {
		reported += l.CPUCores
	}
	instantaneous = tm.Usage().CPUCores
	if reported <= 0 {
		t.Fatalf("windowed report has no CPU load: %v", rec.last)
	}
	// The windowed mean over a period that includes idle start-up samples
	// must differ from the final instantaneous sample (and be bounded by
	// it, since usage ramps up from zero).
	if reported >= instantaneous {
		t.Fatalf("windowed mean %v not smoothed below final instantaneous %v", reported, instantaneous)
	}

	// Without a metrics store the same setup reports the instantaneous sum.
	tm2 := New(ct, clk, ts, rec, bus, ckpt, profile, Options{LoadReportInterval: time.Minute})
	tm2.mu.Lock()
	tm2.shards = map[shardmanager.ShardID]*ownedShard{0: {}}
	tm2.mu.Unlock()
	tm2.ReportLoads()
	if got := rec.last[0]; got != (config.Resources{}) {
		t.Fatalf("instantaneous fallback with no tasks = %+v, want zero", got)
	}
}
