package statesyncer

// The steady-state allocation contract, enforced in the tier-1 gate: a
// converged round — candidate assembly from the diverged set, plan build,
// bookkeeping — performs zero allocation. The 1M-task benchmark
// (BenchmarkScaleSyncerRound1MConverged) enforces the same ceiling at
// scale; this test keeps the contract cheap enough to run on every push.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobstore"
	"repro/internal/simclock"
)

// convergedFleet provisions fleet jobs, syncs them in one round and warms
// a few more rounds so every scratch buffer reaches its high-water size.
func convergedFleet(t *testing.T, fleet int) (*jobstore.Store, *Syncer) {
	t.Helper()
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
		if err := store.Create(name, docBlob(doc), nil); err != nil {
			t.Fatal(err)
		}
	}
	if res := syncer.RunRound(); res.Simple != fleet {
		t.Fatalf("setup round synced %d/%d", res.Simple, fleet)
	}
	for r := 0; r < 10; r++ {
		syncer.RunRound()
	}
	return store, syncer
}

func TestConvergedRoundAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	_, syncer := convergedFleet(t, 2048)
	allocs := testing.AllocsPerRun(20, func() {
		syncer.RunRound()
	})
	if allocs != 0 {
		t.Fatalf("converged round allocates %.1f objects, want 0", allocs)
	}
}

// TestParkedFollowUpsCostOneReadEach: a converged fleet in which k
// quarantined jobs hold parked resumes. The diverged set holds exactly
// those k, so each round reads k jobs from it — the round's one listing
// — and, with every resume parked, allocates nothing.
func TestParkedFollowUpsCostOneReadEach(t *testing.T) {
	const k = 7
	store, syncer := convergedFleet(t, 2048)
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("j%04d", i*97)
		store.UpdateSyncState(name, func(ss *jobstore.SyncState) { ss.FollowUps = []string{followUpResume} })
		store.SetQuarantine(name, "parked")
	}
	for r := 0; r < 3; r++ {
		before := syncer.Stats().SweepJobs
		if res := syncer.RunRound(); len(res.Failed) != 0 || res.Simple+res.Complex+res.Deleted != 0 {
			t.Fatalf("round %d = %+v, want no work", r, res)
		}
		if got := syncer.Stats().SweepJobs - before; got != k {
			t.Fatalf("round %d read %d jobs from the diverged set, want %d", r, got, k)
		}
	}
	if raceEnabled {
		return // allocation accounting is not meaningful under -race
	}
	if allocs := testing.AllocsPerRun(20, func() { syncer.RunRound() }); allocs != 0 {
		t.Fatalf("round over %d parked resumes allocates %.1f objects, want 0", k, allocs)
	}
}

// TestRoundScratchPinsNoPlans: once a round that synced the whole fleet
// is done, the scratch it reuses holds none of its plans — no merged blob,
// config or change list of a commit stays reachable from the syncer until
// a later round overwrites it.
func TestRoundScratchPinsNoPlans(t *testing.T) {
	store := jobstore.New()
	syncer := New(store, nil, simclock.NewSim(time.Unix(0, 0)), Options{})
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("j%04d", i)
		doc := config.Doc{
			"name": name, "taskCount": 2,
			"package": config.Doc{"name": "tailer", "version": "v1"},
			"input":   config.Doc{"category": name + "_in", "partitions": 2},
		}
		if err := store.Create(name, docBlob(doc), nil); err != nil {
			t.Fatal(err)
		}
	}
	if res := syncer.RunRound(); res.Simple != 64 {
		t.Fatalf("round synced %d/64", res.Simple)
	}
	sc := &syncer.scratch
	for i, r := range sc.results[:cap(sc.results)] {
		if !reflect.ValueOf(r).IsZero() {
			t.Fatalf("scratch result %d still holds %s's plan after the round", i, r.plan.Job)
		}
	}
}
