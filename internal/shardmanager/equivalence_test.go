package shardmanager

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/simclock"
)

// Loads and capacities in these tests are dyadic rationals (small
// integers over powers of two), so every score and running sum is exact
// in float64 regardless of summation order: the legacy pass (fresh
// per-pass sums in map order) and the incremental pass (running sums
// updated move by move) land on bit-identical scores, and any divergence
// in moves is a real algorithmic difference, not float noise.

func dyadicLoad(rng *rand.Rand) config.Resources {
	return config.Resources{
		CPUCores:    float64(rng.Intn(128)) / 64,
		MemoryBytes: int64(rng.Intn(16)) << 30,
	}
}

type equivFleet struct {
	m       *Manager
	shards  int
	loads   map[ShardID]config.Resources
	conts   map[string]*refContainer
	regions map[ShardID]string
}

func newEquivFleet(t *testing.T, rng *rand.Rand, opts Options, regionNames []string) *equivFleet {
	t.Helper()
	shards := 64 + rng.Intn(192)
	nConts := 3 + rng.Intn(10)
	opts.NumShards = shards
	clk := simclock.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	m := New(clk, opts)
	f := &equivFleet{
		m:       m,
		shards:  shards,
		loads:   make(map[ShardID]config.Resources),
		conts:   make(map[string]*refContainer),
		regions: make(map[ShardID]string),
	}
	for i := 0; i < nConts; i++ {
		id := fmt.Sprintf("c%02d", i)
		capacity := config.Resources{
			CPUCores:    float64(int64(16) << rng.Intn(2)),
			MemoryBytes: int64(1) << (34 + rng.Intn(2)),
		}
		region := ""
		if len(regionNames) > 0 {
			// Cycle through regions so every region has a container.
			region = regionNames[i%len(regionNames)]
		}
		f.conts[id] = &refContainer{id: id, capacity: capacity, region: region}
		m.RegisterInRegion(id, region, capacity, &fakeHandler{})
	}
	m.AssignUnassigned()
	for s := ShardID(0); s < ShardID(shards); s++ {
		f.loads[s] = dyadicLoad(rng)
		m.ReportShardLoads(map[ShardID]config.Resources{s: f.loads[s]})
	}
	return f
}

// refSnapshot captures the fleet as the legacy reference sees it.
func (f *equivFleet) refSnapshot() *refState {
	st := &refState{
		opts:       f.m.opts,
		containers: make(map[string]*refContainer, len(f.conts)),
		assignment: f.m.Mapping(),
		loads:      make(map[ShardID]config.Resources, len(f.loads)),
		regions:    make(map[ShardID]string, len(f.regions)),
	}
	for id, c := range f.conts {
		st.containers[id] = c
	}
	for s, l := range f.loads {
		st.loads[s] = l
	}
	for s, r := range f.regions {
		st.regions[s] = r
	}
	return st
}

// checkRound snapshots the fleet, runs the legacy reference and the real
// Rebalance, and requires identical move sequences and final mappings.
func (f *equivFleet) checkRound(t *testing.T, round int) {
	t.Helper()
	if got := len(f.m.Mapping()); got != f.shards {
		t.Fatalf("round %d: %d of %d shards assigned before pass", round, got, f.shards)
	}
	st := f.refSnapshot()
	wantMoved := legacyRebalance(st)
	res := f.m.Rebalance()
	if res.Moves != len(wantMoved) {
		t.Fatalf("round %d: Moves = %d, legacy made %d", round, res.Moves, len(wantMoved))
	}
	if !reflect.DeepEqual(res.Moved, wantMoved) {
		t.Fatalf("round %d: move sequence diverged:\n new    = %v\n legacy = %v", round, res.Moved, wantMoved)
	}
	if got := f.m.Mapping(); !reflect.DeepEqual(got, st.assignment) {
		for s, c := range st.assignment {
			if got[s] != c {
				t.Fatalf("round %d: shard %d on %q, legacy %q", round, s, got[s], c)
			}
		}
		t.Fatalf("round %d: mapping size diverged: %d vs %d", round, len(got), len(st.assignment))
	}
}

// skewRound re-reports a random subset of shard loads so the next pass
// has fresh imbalance to resolve.
func (f *equivFleet) skewRound(rng *rand.Rand) {
	n := 1 + rng.Intn(f.shards/2)
	batch := make(map[ShardID]config.Resources, n)
	for i := 0; i < n; i++ {
		s := ShardID(rng.Intn(f.shards))
		l := dyadicLoad(rng)
		if rng.Intn(3) == 0 { // hot spot
			l.CPUCores *= 8
			l.MemoryBytes *= 4
		}
		f.loads[s] = l
		batch[s] = l
	}
	f.m.ReportShardLoads(batch)
}

// TestRebalanceMatchesLegacy pins the incremental heap-driven pass to the
// legacy from-scratch implementation across randomized fleets and
// multiple skew→rebalance rounds (the rounds are what exercise the
// incrementally-maintained running loads and reverse index).
func TestRebalanceMatchesLegacy(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			f := newEquivFleet(t, rng, Options{}, nil)
			for round := 0; round < 4; round++ {
				f.checkRound(t, round)
				f.skewRound(rng)
			}
		})
	}
}

// TestRebalanceMatchesLegacyMixedRegions does the same over mixed-region
// fleets with constraints added after placement, exercising repatriation
// and region-filtered receiver selection against the reference.
func TestRebalanceMatchesLegacyMixedRegions(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			f := newEquivFleet(t, rng, Options{}, []string{"east", "west"})
			for round := 0; round < 4; round++ {
				// Constrain a few shards (possibly violating their current
				// placement) before each pass: repatriation plus
				// constrained receiver filtering.
				for i := 0; i < 3; i++ {
					s := ShardID(rng.Intn(f.shards))
					r := []string{"east", "west"}[rng.Intn(2)]
					f.regions[s] = r
					f.m.SetShardRegion(s, r)
				}
				f.checkRound(t, round)
				f.skewRound(rng)
			}
		})
	}
}
