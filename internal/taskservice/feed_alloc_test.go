package taskservice

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/wire"
)

// applyAllocCeiling bounds the objects the replica spends on one applied
// feed entry of a fully configured job: the decoded JobConfig and one
// allocation that holds all of its strings, 2 measured (9 while every
// string was copied on its own). The ceiling is the measured count plus
// a third, rounded up.
const applyAllocCeiling = 3

// TestFeedApplyAllocs applies one commit entry per delta frame to a job
// the replica already holds, and holds the objects it allocates per entry
// to applyAllocCeiling.
func TestFeedApplyAllocs(t *testing.T) {
	cfg := &config.JobConfig{
		Name:           "jobs/alloc",
		Package:        config.Package{Name: "scuba_tailer", Version: "v1"},
		TaskCount:      4,
		ThreadsPerTask: 2,
		TaskResources:  config.Resources{CPUCores: 0.5, MemoryBytes: 1 << 29},
		Operator:       config.OpTailer,
		Input:          config.Input{Category: "jobs/alloc_in", Partitions: 16},
		Output:         config.Output{Category: "jobs/alloc_out"},
		CheckpointDir:  "/ckpt/$JOB/$TASK",
		Enforcement:    config.EnforceCgroup,
	}
	const runs = 64
	frames := make([][]byte, runs+2)
	for i := range frames {
		var e wire.Encoder
		mark := e.AppendDeltaHeader(1, uint64(i+1), 1)
		e.AppendDeltaCommit(cfg.Name, int64(i+1), cfg)
		e.EndFrame(mark)
		_, body, _, err := wire.DecodeFrame(e.Buf)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = body
	}
	c := NewFeedClient(nil, "allocs", feedTestClock(), 90*time.Second, 4)
	if _, err := c.applyDelta(frames[0]); err != nil { // the row exists from here on
		t.Fatal(err)
	}
	next := 1
	per := testing.AllocsPerRun(runs, func() {
		if _, err := c.applyDelta(frames[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if c.stats.Applied != runs+2 {
		t.Fatalf("applied %d entries, want %d", c.stats.Applied, runs+2)
	}
	if got, _, _ := c.rep.RunningEntry(cfg.Name); got == nil || *got != *cfg {
		t.Fatalf("replica row = %+v, want %+v", got, cfg)
	}
	t.Logf("%.0f objects per applied entry", per)
	if per > applyAllocCeiling {
		t.Fatalf("one applied feed entry allocates %.0f objects, ceiling %d", per, applyAllocCeiling)
	}
}
