package statesyncer

// The rotating sweep's durability contract: a dirty mark that is lost —
// the one failure mode change-driven rounds cannot recover from on their
// own — is rediscovered from the expected/running difference alone
// within FullSweepEvery rounds, because the rotation's slices partition
// the fleet's sorted name snapshots. These tests drop a mark on purpose
// (the store API makes that expressible: ClearDirtyIf with the current
// seq) and measure how long the divergence survives.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobstore"
	"repro/internal/simclock"
)

func sweepFleet(t *testing.T, fleet int, opts Options) (*jobstore.Store, *Syncer) {
	t.Helper()
	store := jobstore.New()
	clk := simclock.NewSim(time.Unix(0, 0))
	syncer := New(store, nil, clk, opts)
	for i := 0; i < fleet; i++ {
		name := fmt.Sprintf("job%03d", i)
		doc := config.Doc{
			"name": name, "taskCount": 2,
			"package": config.Doc{"name": "tailer", "version": "v1"},
		}
		if err := store.Create(name, doc); err != nil {
			t.Fatal(err)
		}
	}
	if res := syncer.RunRound(); res.Simple != fleet {
		t.Fatalf("setup round synced %d/%d jobs", res.Simple, fleet)
	}
	return store, syncer
}

// divergeAndDropMark gives the job a package release and then erases the
// dirty mark the write left, simulating a lost change notification.
func divergeAndDropMark(t *testing.T, store *jobstore.Store, job string) {
	t.Helper()
	doc := config.Doc{}.SetPath("package.version", "v2")
	if _, err := store.SetLayer(job, config.LayerProvisioner, doc, jobstore.AnyVersion); err != nil {
		t.Fatal(err)
	}
	for _, m := range store.DirtyMarksRangeInto(0, jobstore.NumStripes, nil) {
		if m.Name == job && !store.ClearDirtyIf(m.Name, m.Seq) {
			t.Fatalf("could not drop %s's dirty mark", job)
		}
	}
	if n := store.DirtyCount(); n != 0 {
		t.Fatalf("dirty count = %d after dropping the mark", n)
	}
}

func TestSweepRediscoversDroppedDirtyMark(t *testing.T) {
	const fleet = 40
	for _, sweepEvery := range []int{1, 4, 10} {
		t.Run(fmt.Sprintf("fullSweepEvery=%d", sweepEvery), func(t *testing.T) {
			store, syncer := sweepFleet(t, fleet, Options{FullSweepEvery: sweepEvery})
			const victim = "job017"
			divergeAndDropMark(t, store, victim)

			rounds, synced := 0, 0
			for rounds < sweepEvery && synced == 0 {
				res := syncer.RunRound()
				rounds++
				synced += res.Simple
			}
			if synced != 1 {
				t.Fatalf("dropped mark not rediscovered within %d rounds (synced %d)", sweepEvery, synced)
			}
			ev, _ := store.ExpectedVersion(victim)
			rv, ok := store.RunningVersion(victim)
			if !ok || rv != ev {
				t.Fatalf("%s not converged: running v%d, expected v%d", victim, rv, ev)
			}
		})
	}
}

// TestRotatingSweepCoversFleet pins the partition property the
// durability argument rests on: FullSweepEvery consecutive rounds
// together sweep every job exactly once, and no single round sweeps more
// than ~1/FullSweepEvery of the fleet.
func TestRotatingSweepCoversFleet(t *testing.T) {
	const fleet, every = 37, 5 // indivisible on purpose
	_, syncer := sweepFleet(t, fleet, Options{FullSweepEvery: every})
	total := 0
	for r := 0; r < every; r++ {
		res := syncer.RunRound()
		if res.Swept {
			t.Fatalf("round %d reported a full-fleet sweep", r)
		}
		if res.SweepJobs > fleet/every+1 {
			t.Fatalf("round %d swept %d jobs — an O(fleet) spike", r, res.SweepJobs)
		}
		total += res.SweepJobs
	}
	if total != fleet {
		t.Fatalf("one full rotation swept %d jobs, want %d", total, fleet)
	}
	st := syncer.Stats()
	if st.Sweeps != 0 || st.SweepSlices != every+1 { // +1: the setup round
		t.Fatalf("stats = %+v, want 0 full sweeps and %d slices", st, every+1)
	}
}

// TestFullSweepEveryOneSweepsWholeFleet keeps the pre-change-tracking
// escape hatch intact: FullSweepEvery=1 sweeps everything every round.
func TestFullSweepEveryOneSweepsWholeFleet(t *testing.T) {
	const fleet = 12
	store, syncer := sweepFleet(t, fleet, Options{FullSweepEvery: 1})
	res := syncer.RunRound()
	if !res.Swept || res.SweepJobs != fleet {
		t.Fatalf("res = %+v, want a full sweep of %d jobs", res, fleet)
	}
	divergeAndDropMark(t, store, "job005")
	if res := syncer.RunRound(); res.Simple != 1 {
		t.Fatalf("full sweep missed the dropped mark: %+v", res)
	}
}

// TestSweepGateSkipsSlices exercises the fault-injection seam: while the
// gate refuses every slice, a dropped mark stays invisible no matter how
// many rounds pass; once the gate opens, one rotation finds it.
func TestSweepGateSkipsSlices(t *testing.T) {
	const fleet, every = 20, 4
	open := false
	var positions []int
	opts := Options{FullSweepEvery: every, SweepGate: func(pos, of int) bool {
		if of != every {
			t.Fatalf("gate saw of=%d, want %d", of, every)
		}
		positions = append(positions, pos)
		return open
	}}
	store, syncer := sweepFleet(t, fleet, opts)
	divergeAndDropMark(t, store, "job013")
	for r := 0; r < 3*every; r++ {
		if res := syncer.RunRound(); res.Simple != 0 {
			t.Fatalf("gated round %d still synced %d jobs", r, res.Simple)
		}
	}
	open = true
	synced := 0
	for r := 0; r < every && synced == 0; r++ {
		synced += syncer.RunRound().Simple
	}
	if synced != 1 {
		t.Fatal("dropped mark not rediscovered after the gate opened")
	}
	if len(positions) == 0 || positions[0] != 0 {
		t.Fatalf("gate positions = %v, want rotation starting at 0", positions)
	}
	st := syncer.Stats()
	if st.SweepSlices == 0 || st.SweepJobs == 0 {
		t.Fatalf("stats = %+v, want sweep slices and jobs counted after the gate opened", st)
	}
}
