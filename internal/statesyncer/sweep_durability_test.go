package statesyncer

// The rotating sweep's durability contract: a dirty mark that is lost —
// the one failure mode change-driven rounds cannot recover from on their
// own — is rediscovered from the expected/running difference alone
// within sweepRounds rounds, because the rotation's positions partition
// the engine's stripe range. These tests drop a mark on purpose (the
// store API makes that expressible: ClearDirtyIf with the current seq)
// and measure how long the divergence survives.

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
	if _, err := store.SetLayer(job, config.LayerProvisioner, doc, jobstore.Expected{Version: jobstore.AnyVersion}, nil); err != nil {
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
			armed, dropped := false, 0
			var opts Options
			if tc.dropSlice {
				// Declines the position whose stripes hold the victim the
				// first time it comes up.
				opts.SweepGate = func(pos, of int) bool {
					lo, hi := sweepStripes(0, jobstore.NumStripes, pos)
					if st := jobstore.StripeOf(victim); armed && dropped == 0 && st >= lo && st < hi {
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
// durability argument rests on: over sweepRounds consecutive rounds every
// stripe of an engine's range is visited exactly once, the jobs the
// sweeps looked at sum to the fleet, and no single round visits more
// than ⌈n/sweepRounds⌉ of the range's n stripes. With four Nodes a slice
// is 16 stripes, so some rounds visit one stripe and some two.
func TestRotatingSweepCoversFleet(t *testing.T) {
	const fleet = 137 // indivisible on purpose
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("nodes=%d", shards), func(t *testing.T) {
			_, nodes, clk := shardFleet(t, fleet, shards, nil)
			tickAll(nodes, clk) // setup: every slice converges
			perStripe := make([]int, jobstore.NumStripes)
			for i := 0; i < fleet; i++ {
				perStripe[jobstore.StripeOf(fmt.Sprintf("j%05d", i))]++
			}
			visits := make([]int, jobstore.NumStripes)
			widths := map[int]bool{}
			total := 0
			for r := 0; r < sweepRounds; r++ {
				for k, nd := range nodes {
					eng := nd.slices[k].engine
					n := eng.stripeHi - eng.stripeLo
					lo, hi := sweepStripes(eng.stripeLo, eng.stripeHi, eng.sweepPos)
					nd.Tick()
					res := nd.Status()[k].LastRound
					if res.Swept {
						t.Fatalf("round %d of slice %d reported a whole-slice resync", r, k)
					}
					if w := hi - lo; w > (n+sweepRounds-1)/sweepRounds {
						t.Fatalf("round %d of slice %d visits %d of %d stripes — an O(fleet) spike", r, k, w, n)
					}
					widths[hi-lo] = true
					want := 0
					for st := lo; st < hi; st++ {
						visits[st]++
						want += perStripe[st]
					}
					if res.SweepJobs != want {
						t.Fatalf("round %d of slice %d looked at %d jobs, want the %d in stripes [%d,%d)", r, k, res.SweepJobs, want, lo, hi)
					}
					total += res.SweepJobs
				}
				clk.RunFor(30 * time.Second)
			}
			for st, v := range visits {
				if v != 1 {
					t.Fatalf("stripe %d visited %d times in one rotation, want 1", st, v)
				}
			}
			if total != fleet {
				t.Fatalf("one full rotation looked at %d jobs, want %d", total, fleet)
			}
			if shards == 4 && !(widths[1] && widths[2]) {
				t.Fatalf("16-stripe slice visited widths %v, want rounds of 1 and of 2 stripes", widths)
			}
			for k, nd := range nodes {
				st := nd.slices[k].engine.Stats()
				if st.Sweeps+st.SweepSlices != sweepRounds+1 { // +1: the setup round
					t.Fatalf("slice %d stats = %+v, want %d sweep rounds", k, st, sweepRounds+1)
				}
			}
		})
	}
}

// TestResyncRoundSyncsOnlyItsSlice: after a Restore burns a 4-slice
// engine's journal cursor, its next round is a resync that walks the
// whole slice and syncs every divergence there — unmarked ones included,
// since the restored snapshot carried no marks — and touches nothing in
// the other slices. The gate declining every position shows the resync
// does not depend on the rotation.
func TestResyncRoundSyncsOnlyItsSlice(t *testing.T) {
	const fleet, shards, slice = 200, 4, 1
	store, _, clk := shardFleet(t, fleet, shards, nil)
	engines := make([]*Syncer, shards)
	for k := range engines {
		lo, hi := ShardStripeRange(k, shards)
		engines[k] = NewStriped(store, nil, clk, Options{SweepGate: func(int, int) bool { return false }}, lo, hi)
		engines[k].RunRound() // the Create marks converge the slice
		if res := engines[k].RunRound(); res.Swept {
			t.Fatalf("slice %d still resyncing after its first round", k)
		}
	}

	// Two divergences per slice, every mark dropped: a layer release on
	// the slice's first fleet job, and a job created after the fleet
	// converged.
	firstIn := func(prefix string, k int) string {
		for i := 0; ; i++ {
			if name := fmt.Sprintf("%s%05d", prefix, i); SliceOfName(name, shards) == k {
				return name
			}
		}
	}
	var victims []string
	for k := 0; k < shards; k++ {
		released, late := firstIn("j", k), firstIn("late", k)
		divergeAndDropMark(t, store, released)
		shardJob(t, store, late)
		for _, m := range store.DirtyMarksRangeInto(0, jobstore.NumStripes, nil) {
			store.ClearDirtyIf(m.Name, m.Seq)
		}
		victims = append(victims, released, late)
	}
	data, err := store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Restore(data); err != nil {
		t.Fatal(err)
	}
	if n := store.DirtyCount(); n != 0 {
		t.Fatalf("%d dirty marks after the restore, want none", n)
	}

	res := engines[slice].RunRound()
	if !res.Swept {
		t.Fatal("the round after a Restore did not resync")
	}
	lo, hi := ShardStripeRange(slice, shards)
	if left, _ := store.DivergedRangeInto(lo, hi, nil); len(left) != 0 {
		t.Fatalf("slice %d still diverged after its resync round: %v", slice, left)
	}
	if res.Simple != 2 || len(res.Failed) != 0 {
		t.Fatalf("resync round = %+v, want the slice's 2 divergences synced", res)
	}
	for _, name := range victims {
		v := store.PlanViewOf(name)
		converged := v.HasRunning && v.RunningVersion == v.ExpectedVersion
		if inSlice := SliceOfName(name, shards) == slice; converged != inSlice {
			t.Fatalf("%s (slice %d) converged=%v after slice %d's resync", name, SliceOfName(name, shards), converged, slice)
		}
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
