package statesyncer

// The rotating sweep's durability contract: a dirty mark that is lost —
// the one failure mode change-driven rounds cannot recover from on their
// own — is rediscovered from the expected/running difference alone
// within sweepRounds rounds, because the rotation's slices partition
// the fleet's sorted name snapshots. These tests drop a mark on purpose
// (the store API makes that expressible: ClearDirtyIf with the current
// seq) and measure how long the divergence survives.

import (
	"fmt"
	"slices"
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

// TestSweepRediscoversDroppedDirtyMark is the coverage property: a
// divergence with no mark is synced within one rotation — and, when the
// gate drops the very slice that carries it, within the next.
func TestSweepRediscoversDroppedDirtyMark(t *testing.T) {
	const fleet, victim = 40, "job017"
	for _, tc := range []struct {
		name      string
		dropSlice bool
		within    int
	}{
		{"gate=open", false, sweepRounds},
		{"gate=drops-a-slice", true, 2 * sweepRounds},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var store *jobstore.Store
			armed, dropped := false, 0
			var opts Options
			if tc.dropSlice {
				// Declines the victim's slice the first time it comes up.
				opts.SweepGate = func(pos, of int) bool {
					if armed && dropped == 0 && slices.Contains(sweepSlice(store.ExpectedNames(), pos, of), victim) {
						dropped++
						return false
					}
					return true
				}
			}
			store, syncer := sweepFleet(t, fleet, opts)
			divergeAndDropMark(t, store, victim)
			armed = true

			rounds, synced := 0, 0
			for rounds < tc.within && synced == 0 {
				res := syncer.RunRound()
				rounds++
				synced += res.Simple
			}
			if synced != 1 {
				t.Fatalf("dropped mark not rediscovered within %d rounds (synced %d)", tc.within, synced)
			}
			if tc.dropSlice && (dropped != 1 || rounds <= sweepRounds) {
				t.Fatalf("gate dropped %d slices and the mark was found after %d rounds; want 1 and a second rotation", dropped, rounds)
			}
			if v := store.PlanViewOf(victim); !v.HasRunning || v.RunningVersion != v.ExpectedVersion {
				t.Fatalf("%s not converged: running v%d, expected v%d", victim, v.RunningVersion, v.ExpectedVersion)
			}
		})
	}
}

// TestRotatingSweepCoversFleet pins the partition property the
// durability argument rests on: sweepRounds consecutive rounds together
// sweep every job exactly once, and no single round sweeps more than
// ~1/sweepRounds of the fleet.
func TestRotatingSweepCoversFleet(t *testing.T) {
	const fleet = 37 // indivisible on purpose
	_, syncer := sweepFleet(t, fleet, Options{})
	total := 0
	for r := 0; r < sweepRounds; r++ {
		res := syncer.RunRound()
		if res.Swept {
			t.Fatalf("round %d reported a whole-slice resync", r)
		}
		if res.SweepJobs > fleet/sweepRounds+1 {
			t.Fatalf("round %d swept %d jobs — an O(fleet) spike", r, res.SweepJobs)
		}
		total += res.SweepJobs
	}
	if total != fleet {
		t.Fatalf("one full rotation swept %d jobs, want %d", total, fleet)
	}
	st := syncer.Stats()
	if st.Sweeps != 0 || st.SweepSlices != sweepRounds+1 { // +1: the setup round
		t.Fatalf("stats = %+v, want 0 resyncs and %d slices", st, sweepRounds+1)
	}
}

// TestSweepGateSkipsSlices exercises the fault-injection seam: while the
// gate refuses every slice, a dropped mark stays invisible no matter how
// many rounds pass; once the gate opens, one rotation finds it.
func TestSweepGateSkipsSlices(t *testing.T) {
	const fleet = 20
	open := false
	var positions []int
	opts := Options{SweepGate: func(pos, of int) bool {
		if of != sweepRounds {
			t.Fatalf("gate saw of=%d, want %d", of, sweepRounds)
		}
		positions = append(positions, pos)
		return open
	}}
	store, syncer := sweepFleet(t, fleet, opts)
	divergeAndDropMark(t, store, "job013")
	for r := 0; r < 3*sweepRounds; r++ {
		if res := syncer.RunRound(); res.Simple != 0 {
			t.Fatalf("gated round %d still synced %d jobs", r, res.Simple)
		}
	}
	open = true
	synced := 0
	for r := 0; r < sweepRounds && synced == 0; r++ {
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
