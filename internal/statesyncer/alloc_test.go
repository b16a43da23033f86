package statesyncer

// The steady-state allocation contract, enforced in the tier-1 gate: a
// converged round — candidate assembly from the diverged set, plan build,
// bookkeeping — performs zero allocation. The 1M-task benchmark
// (BenchmarkScaleSyncerRound1MConverged) enforces the same ceiling at
// scale; this test keeps the contract cheap enough to run on every push.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobstore"
	"repro/internal/simclock"
)

func TestConvergedRoundAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	const fleet = 2048
	store := jobstore.New()
	clk := simclock.NewSim(time.Unix(0, 0))
	syncer := New(store, nil, clk, Options{})
	for i := 0; i < fleet; i++ {
		name := fmt.Sprintf("j%04d", i)
		doc := config.Doc{
			"name": name, "taskCount": 4,
			"package": config.Doc{"name": "tailer", "version": "v1"},
			"input":   config.Doc{"category": name + "_in", "partitions": 8},
		}
		if err := store.Create(name, doc); err != nil {
			t.Fatal(err)
		}
	}
	if res := syncer.RunRound(); res.Simple != fleet {
		t.Fatalf("setup round synced %d/%d", res.Simple, fleet)
	}
	// Warm a few rounds so every scratch buffer reaches its high-water
	// size.
	for r := 0; r < 10; r++ {
		syncer.RunRound()
	}
	allocs := testing.AllocsPerRun(20, func() {
		syncer.RunRound()
	})
	if allocs != 0 {
		t.Fatalf("converged round allocates %.1f objects, want 0", allocs)
	}
}
