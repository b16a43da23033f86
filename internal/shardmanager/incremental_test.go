package shardmanager

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/config"
)

// checkStateInvariants verifies the incrementally-maintained structures
// against the ground-truth assignment: reverse index ↔ assignment
// bijection, unassigned set = shard space minus assigned, and running
// per-container load = sum of applied shard loads (exact equality — the
// tests use dyadic load values).
func checkStateInvariants(t *testing.T, m *Manager) {
	t.Helper()
	m.mu.RLock()
	defer m.mu.RUnlock()
	for s, cid := range m.assignment {
		if _, ok := m.contShards[cid][s]; !ok {
			t.Fatalf("shard %d assigned to %q but missing from reverse index", s, cid)
		}
		if _, ok := m.unassigned[s]; ok {
			t.Fatalf("shard %d both assigned and in unassigned set", s)
		}
	}
	indexed := 0
	for cid, set := range m.contShards {
		indexed += len(set)
		for s := range set {
			if m.assignment[s] != cid {
				t.Fatalf("reverse index has shard %d on %q, assignment says %q", s, cid, m.assignment[s])
			}
		}
	}
	if indexed != len(m.assignment) {
		t.Fatalf("reverse index holds %d shards, assignment %d", indexed, len(m.assignment))
	}
	if len(m.assignment)+len(m.unassigned) != m.opts.NumShards {
		t.Fatalf("assigned %d + unassigned %d != shard space %d",
			len(m.assignment), len(m.unassigned), m.opts.NumShards)
	}
	for cid, set := range m.contShards {
		var want config.Resources
		for s := range set {
			want = want.Add(m.applied[s])
		}
		if got := m.contLoad[cid]; got != want {
			t.Fatalf("running load of %q = %+v, recomputed %+v", cid, got, want)
		}
	}
}

// TestConstrainedPlacementUpdatesSpreadCounts is the regression test for
// the count-heap bug: region-constrained placements used to bump a side
// count table but not the heap, so unconstrained placements saw stale
// counts and piled onto the already-loaded constrained containers.
func TestConstrainedPlacementUpdatesSpreadCounts(t *testing.T) {
	m, _ := newManager(20)
	m.RegisterInRegion("east-a", "east", cap26(), &fakeHandler{})
	m.RegisterInRegion("east-b", "east", cap26(), &fakeHandler{})
	m.RegisterInRegion("west-c", "west", cap26(), &fakeHandler{})
	// Shards 0-9 pinned east: they land on east-a/east-b (5 each) before
	// any unconstrained shard is placed.
	for s := ShardID(0); s < 10; s++ {
		m.SetShardRegion(s, "east")
	}
	if n := m.AssignUnassigned(); n != 20 {
		t.Fatalf("assigned %d, want 20", n)
	}
	counts := map[string]int{}
	for _, id := range m.ContainerIDs() {
		counts[id] = len(m.ShardsOf(id))
	}
	// With the shared heap, the 10 unconstrained shards compensate: west-c
	// catches up to the east containers and the fleet ends 7/7/6. The old
	// two-books bug ended 9/8/3.
	for id, n := range counts {
		if n < 6 || n > 7 {
			t.Fatalf("container %s owns %d shards, want 6-7 (counts %v)", id, n, counts)
		}
	}
	checkStateInvariants(t, m)
}

func TestBatchReportMatchesSingles(t *testing.T) {
	single, _ := newManager(64)
	batched, _ := newManager(64)
	for _, m := range []*Manager{single, batched} {
		for i := 0; i < 4; i++ {
			m.Register(fmt.Sprintf("c%d", i), cap26(), &fakeHandler{})
		}
		m.AssignUnassigned()
	}
	batch := make(map[ShardID]config.Resources, 64)
	for s := ShardID(0); s < 64; s++ {
		l := config.Resources{CPUCores: float64(s%8) / 4, MemoryBytes: int64(s%5) << 30}
		single.ReportShardLoads(map[ShardID]config.Resources{s: l})
		batch[s] = l
	}
	batched.ReportShardLoads(batch)
	r1, r2 := single.Rebalance(), batched.Rebalance()
	if r1.Moves != r2.Moves || r1.MaxScore != r2.MaxScore || r1.MinScore != r2.MinScore {
		t.Fatalf("batch pass diverged: single %+v, batched %+v", r1, r2)
	}
	m1, m2 := single.Mapping(), batched.Mapping()
	for s, c := range m1 {
		if m2[s] != c {
			t.Fatalf("shard %d: single on %q, batched on %q", s, c, m2[s])
		}
	}
	checkStateInvariants(t, single)
	checkStateInvariants(t, batched)
}

func TestMappingEpochAdvancesPerPass(t *testing.T) {
	m, _ := newManager(16)
	if got := m.MappingEpoch(); got != 0 {
		t.Fatalf("fresh epoch = %d", got)
	}
	m.Register("c0", cap26(), &fakeHandler{})
	m.Register("c1", cap26(), &fakeHandler{})
	m.AssignUnassigned()
	if got := m.MappingEpoch(); got != 1 {
		t.Fatalf("epoch after initial placement = %d, want 1", got)
	}
	// A no-op pass publishes nothing.
	m.Rebalance()
	epochAfterNoop := m.MappingEpoch()
	for _, s := range m.ShardsOf("c0") {
		m.ReportShardLoads(map[ShardID]config.Resources{s: {CPUCores: 4}})
	}
	res := m.Rebalance()
	if res.Moves == 0 {
		t.Fatal("skewed pass made no moves")
	}
	if got := m.MappingEpoch(); got != epochAfterNoop+1 {
		t.Fatalf("epoch after moving pass = %d, want %d", got, epochAfterNoop+1)
	}
	checkStateInvariants(t, m)
}

// TestIncrementalStateAcrossFailoversAndReregisters drives the lifecycle
// paths (failover, unregister, re-register, repatriation) and checks the
// incremental structures never drift from the assignment.
func TestIncrementalStateAcrossFailoversAndReregisters(t *testing.T) {
	m, clk := newManager(96)
	for i := 0; i < 6; i++ {
		m.RegisterInRegion(fmt.Sprintf("c%d", i), []string{"east", "west"}[i%2], cap26(), &fakeHandler{})
	}
	m.AssignUnassigned()
	checkStateInvariants(t, m)
	for s := ShardID(0); s < 96; s++ {
		m.ReportShardLoads(map[ShardID]config.Resources{s: {CPUCores: float64(s%16) / 8}})
	}
	m.Rebalance()
	checkStateInvariants(t, m)

	m.FailoverContainer("c3")
	checkStateInvariants(t, m)
	m.Unregister("c4")
	checkStateInvariants(t, m)                                // c4's shards stay mapped and indexed
	m.RegisterInRegion("c4", "east", cap26(), &fakeHandler{}) // region flip on re-register
	for s := ShardID(0); s < 8; s++ {
		m.SetShardRegion(s, "west")
	}
	m.Rebalance() // repatriates any of 0-7 now on east containers
	checkStateInvariants(t, m)
	for s := ShardID(0); s < 8; s++ {
		owner, ok := m.Owner(s)
		if !ok {
			t.Fatalf("shard %d unassigned after repatriation pass", s)
		}
		if owner == "c0" || owner == "c2" || owner == "c4" {
			t.Fatalf("west-pinned shard %d on east container %q", s, owner)
		}
	}
	clk.RunFor(2 * time.Minute) // nobody heartbeats: everyone fails over
	dead := m.CheckFailures()
	if len(dead) != 5 {
		t.Fatalf("failed over %d containers, want 5 (%v)", len(dead), dead)
	}
	if got := len(m.Mapping()); got != 0 {
		t.Fatalf("%d shards still mapped with no containers left", got)
	}
	checkStateInvariants(t, m)
}
