package shardmanager

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/config"
	"repro/internal/simclock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// fakeHandler records shard protocol calls.
type fakeHandler struct {
	added, dropped []ShardID
	failDrop       bool
	failAdd        bool
}

func (h *fakeHandler) AddShard(s ShardID) error {
	if h.failAdd {
		return errors.New("add failed")
	}
	h.added = append(h.added, s)
	return nil
}

func (h *fakeHandler) DropShard(s ShardID) error {
	if h.failDrop {
		return errors.New("drop failed")
	}
	h.dropped = append(h.dropped, s)
	return nil
}

func cap26() config.Resources {
	return config.Resources{CPUCores: 10, MemoryBytes: 26 << 30}
}

func TestShardOfDeterministicAndInRange(t *testing.T) {
	a := ShardOf("job1#0", 1024)
	b := ShardOf("job1#0", 1024)
	if a != b {
		t.Fatal("ShardOf not deterministic")
	}
	if a < 0 || a >= 1024 {
		t.Fatalf("shard %d out of range", a)
	}
	if ShardOf("x", 0) != 0 {
		t.Fatal("degenerate numShards not handled")
	}
}

// Property: ShardOf spreads tasks across shards reasonably evenly.
func TestShardOfDistributionProperty(t *testing.T) {
	const n, shards = 10000, 64
	counts := make([]int, shards)
	for i := 0; i < n; i++ {
		counts[ShardOf(fmt.Sprintf("job%d#%d", i%100, i), shards)]++
	}
	want := n / shards
	for s, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("shard %d has %d tasks, mean %d: badly skewed", s, c, want)
		}
	}
}

func TestShardOfRangeProperty(t *testing.T) {
	f := func(id string, n16 uint16) bool {
		n := int(n16%4096) + 1
		s := ShardOf(id, n)
		return s >= 0 && s < ShardID(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func newManager(numShards int) (*Manager, *simclock.Sim) {
	clk := simclock.NewSim(epoch)
	m := New(clk, Options{NumShards: numShards})
	return m, clk
}

func TestAssignUnassignedSpreadsEvenly(t *testing.T) {
	m, _ := newManager(100)
	handlers := map[string]*fakeHandler{}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("c%d", i)
		handlers[id] = &fakeHandler{}
		m.Register(id, cap26(), handlers[id])
	}
	if n := m.AssignUnassigned(); n != 100 {
		t.Fatalf("assigned %d, want 100", n)
	}
	for id := range handlers {
		got := len(m.ShardsOf(id))
		if got != 25 {
			t.Fatalf("container %s owns %d shards, want 25", id, got)
		}
		if len(handlers[id].added) != 25 {
			t.Fatalf("container %s notified of %d shards", id, len(handlers[id].added))
		}
	}
	// Second call is a no-op.
	if n := m.AssignUnassigned(); n != 0 {
		t.Fatalf("re-assign moved %d", n)
	}
}

func TestOwnerAndMapping(t *testing.T) {
	m, _ := newManager(10)
	m.Register("c0", cap26(), &fakeHandler{})
	m.AssignUnassigned()
	owner, ok := m.Owner(3)
	if !ok || owner != "c0" {
		t.Fatalf("Owner = %q,%v", owner, ok)
	}
	mapping := m.Mapping()
	if len(mapping) != 10 {
		t.Fatalf("Mapping has %d entries", len(mapping))
	}
	if _, ok := m.Owner(ShardID(99)); ok {
		t.Fatal("phantom owner")
	}
}

func TestHeartbeatUnknownContainer(t *testing.T) {
	m, _ := newManager(10)
	if err := m.Heartbeat("ghost"); err == nil {
		t.Fatal("heartbeat from unknown container accepted")
	}
	m.Register("c0", cap26(), &fakeHandler{})
	if err := m.Heartbeat("c0"); err != nil {
		t.Fatal(err)
	}
}

func TestFailoverAfterMissedHeartbeats(t *testing.T) {
	m, clk := newManager(20)
	h0, h1 := &fakeHandler{}, &fakeHandler{}
	m.Register("c0", cap26(), h0)
	m.Register("c1", cap26(), h1)
	m.AssignUnassigned()
	c0Shards := len(m.ShardsOf("c0"))
	if c0Shards == 0 {
		t.Fatal("c0 got no shards")
	}

	// c1 heartbeats; c0 goes silent.
	clk.RunFor(30 * time.Second)
	m.Heartbeat("c1")
	clk.RunFor(31 * time.Second) // c0 silent for 61s total

	dead := m.CheckFailures()
	if len(dead) != 1 || dead[0] != "c0" {
		t.Fatalf("dead = %v", dead)
	}
	// All shards now on c1; c0 forgotten.
	if got := len(m.ShardsOf("c1")); got != 20 {
		t.Fatalf("c1 owns %d shards, want 20", got)
	}
	if err := m.Heartbeat("c0"); err == nil {
		t.Fatal("failed-over container still known")
	}
	if m.Stats().Failovers != 1 {
		t.Fatalf("Failovers = %d", m.Stats().Failovers)
	}
	// The dead handler must NOT have been sent DropShard.
	if len(h0.dropped) != 0 {
		t.Fatalf("dead container received drops: %v", h0.dropped)
	}
}

func TestHeartbeatPreventsFailover(t *testing.T) {
	m, clk := newManager(10)
	m.Register("c0", cap26(), &fakeHandler{})
	m.AssignUnassigned()
	for i := 0; i < 12; i++ {
		clk.RunFor(30 * time.Second)
		m.Heartbeat("c0")
	}
	if dead := m.CheckFailures(); len(dead) != 0 {
		t.Fatalf("healthy container failed over: %v", dead)
	}
}

func TestForcedFailover(t *testing.T) {
	m, _ := newManager(10)
	m.Register("c0", cap26(), &fakeHandler{})
	m.Register("c1", cap26(), &fakeHandler{})
	m.AssignUnassigned()
	m.FailoverContainer("c0")
	if len(m.ShardsOf("c0")) != 0 {
		t.Fatal("failed-over container kept shards")
	}
	if len(m.ShardsOf("c1")) != 10 {
		t.Fatal("shards not moved to survivor")
	}
	m.FailoverContainer("ghost") // no-op
}

func TestRebalanceMovesLoadWithinBand(t *testing.T) {
	m, _ := newManager(8)
	h := map[string]*fakeHandler{}
	for _, id := range []string{"c0", "c1"} {
		h[id] = &fakeHandler{}
		m.Register(id, cap26(), h[id])
	}
	m.AssignUnassigned() // 4 shards each

	// All load concentrated on c0's shards.
	for _, s := range m.ShardsOf("c0") {
		m.ReportShardLoads(map[ShardID]config.Resources{s: {CPUCores: 2, MemoryBytes: 4 << 30}})
	}
	for _, s := range m.ShardsOf("c1") {
		m.ReportShardLoads(map[ShardID]config.Resources{s: {CPUCores: 0.01, MemoryBytes: 1 << 20}})
	}

	res := m.Rebalance()
	if res.Moves == 0 {
		t.Fatal("no shards moved despite imbalance")
	}
	// After the pass the spread must be inside (or near) the band.
	if res.MaxScore > res.MeanScore*1.2 {
		t.Fatalf("post-balance max %.3f vs mean %.3f: outside band", res.MaxScore, res.MeanScore)
	}
	// Protocol: drops on c0, adds on c1 (beyond initial assignment).
	if len(h["c0"].dropped) != res.Moves {
		t.Fatalf("dropped = %v, moves = %d", h["c0"].dropped, res.Moves)
	}
}

func TestRebalanceDisabledMakesNoMoves(t *testing.T) {
	m, _ := newManager(8)
	m.Register("c0", cap26(), &fakeHandler{})
	m.Register("c1", cap26(), &fakeHandler{})
	m.AssignUnassigned()
	for _, s := range m.ShardsOf("c0") {
		m.ReportShardLoads(map[ShardID]config.Resources{s: {CPUCores: 5}})
	}
	m.SetBalancingEnabled(false)
	if res := m.Rebalance(); res.Moves != 0 {
		t.Fatalf("disabled balancer moved %d shards", res.Moves)
	}
	m.SetBalancingEnabled(true)
	if res := m.Rebalance(); res.Moves == 0 {
		t.Fatal("re-enabled balancer made no moves")
	}
}

func TestRebalanceStillAssignsUnassignedWhenDisabled(t *testing.T) {
	m, _ := newManager(10)
	m.SetBalancingEnabled(false)
	m.Register("c0", cap26(), &fakeHandler{})
	res := m.Rebalance()
	if res.Assigned != 10 {
		t.Fatalf("Assigned = %d, want 10", res.Assigned)
	}
}

func TestRebalanceRespectsCapacityHeadroom(t *testing.T) {
	m, _ := newManager(4)
	// Tiny receiver: nothing fits within its capacity minus headroom.
	big := &fakeHandler{}
	tiny := &fakeHandler{}
	m.Register("big", config.Resources{CPUCores: 100, MemoryBytes: 100 << 30}, big)
	m.Register("tiny", config.Resources{CPUCores: 0.1, MemoryBytes: 1 << 20}, tiny)
	m.AssignUnassigned()
	// Move everything to big first (simulate), then load heavily.
	for s := ShardID(0); s < 4; s++ {
		m.ReportShardLoads(map[ShardID]config.Resources{s: {CPUCores: 10, MemoryBytes: 10 << 30}})
	}
	m.Rebalance()
	// tiny must not have received heavy shards beyond capacity.
	for _, s := range m.ShardsOf("tiny") {
		// tiny can only hold shards assigned initially; capacity math
		// prevents heavy additions. Initial spread gave tiny 2 shards;
		// after load was reported, rebalance may move them away but
		// never add more heavy ones.
		_ = s
	}
	if len(m.ShardsOf("tiny")) > 2 {
		t.Fatalf("tiny received extra heavy shards: %v", m.ShardsOf("tiny"))
	}
}

func TestDropErrorCountedAndMoveProceeds(t *testing.T) {
	m, _ := newManager(8)
	bad := &fakeHandler{failDrop: true}
	good := &fakeHandler{}
	m.Register("bad", cap26(), bad)
	m.Register("good", cap26(), good)
	m.AssignUnassigned()
	for _, s := range m.ShardsOf("bad") {
		m.ReportShardLoads(map[ShardID]config.Resources{s: {CPUCores: 5}})
	}
	res := m.Rebalance()
	if res.Moves == 0 {
		t.Fatal("no moves")
	}
	// The move proceeds despite the drop error (source force-killed).
	if m.Stats().DropErrors == 0 {
		t.Fatal("drop error not counted")
	}
	if len(m.ShardsOf("good")) <= 4 {
		t.Fatal("shard not re-assigned after failed drop")
	}
}

func TestPeriodicFailureCheckOnClock(t *testing.T) {
	m, clk := newManager(10)
	m.Register("c0", cap26(), &fakeHandler{})
	m.Register("c1", cap26(), &fakeHandler{})
	m.AssignUnassigned()
	m.Start()
	defer m.Stop()

	// c1 heartbeats forever via its own ticker; c0 never does.
	clk.TickEvery(10*time.Second, func() { m.Heartbeat("c1") })
	clk.RunFor(2 * time.Minute)
	if len(m.ShardsOf("c0")) != 0 {
		t.Fatal("dead container not failed over by periodic check")
	}
	if got := len(m.ShardsOf("c1")); got != 10 {
		t.Fatalf("c1 owns %d shards", got)
	}
	m.Start() // idempotent
	m.Stop()
	m.Stop()
}

func TestReRegisterKeepsShards(t *testing.T) {
	// A container that reboots within the failover interval re-registers
	// and keeps its shards (§IV-C).
	m, clk := newManager(10)
	m.Register("c0", cap26(), &fakeHandler{})
	m.AssignUnassigned()
	clk.RunFor(40 * time.Second)
	// Reboot: re-register before the 60s failover.
	m.Register("c0", cap26(), &fakeHandler{})
	if dead := m.CheckFailures(); len(dead) != 0 {
		t.Fatalf("rebooted container failed over: %v", dead)
	}
	if len(m.ShardsOf("c0")) != 10 {
		t.Fatal("shards lost across reboot")
	}
}

func TestStatsAccumulate(t *testing.T) {
	m, _ := newManager(8)
	m.Register("c0", cap26(), &fakeHandler{})
	m.Register("c1", cap26(), &fakeHandler{})
	m.AssignUnassigned()
	for _, s := range m.ShardsOf("c0") {
		m.ReportShardLoads(map[ShardID]config.Resources{s: {CPUCores: 3}})
	}
	m.Rebalance()
	st := m.Stats()
	if st.Rebalances != 1 || st.Moves == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := m.ContainerIDs(); len(got) != 2 || got[0] != "c0" {
		t.Fatalf("ContainerIDs = %v", got)
	}
	if m.NumShards() != 8 {
		t.Fatalf("NumShards = %d", m.NumShards())
	}
}

// Property: after any sequence of registers and failovers, every shard has
// exactly one owner among live containers (when at least one is alive).
func TestSingleOwnerInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		m, _ := newManager(64)
		live := map[string]bool{}
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0: // register new container
				id := fmt.Sprintf("c%d", next)
				next++
				m.Register(id, cap26(), &fakeHandler{})
				live[id] = true
				m.AssignUnassigned()
			case 1: // failover one live container
				for id := range live {
					m.FailoverContainer(id)
					delete(live, id)
					break
				}
			case 2:
				m.Rebalance()
			}
		}
		if len(live) == 0 {
			return true
		}
		owners := m.Mapping()
		if len(owners) != 64 {
			return false
		}
		for _, c := range owners {
			if !live[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceScalesTo100KShards(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale placement test")
	}
	clk := simclock.NewSim(epoch)
	m := New(clk, Options{NumShards: 100_000})
	const containers = 2000
	for i := 0; i < containers; i++ {
		m.Register(fmt.Sprintf("c%04d", i), cap26(), nil)
	}
	m.AssignUnassigned()
	for s := ShardID(0); s < 100_000; s++ {
		m.ReportShardLoads(map[ShardID]config.Resources{s: {CPUCores: float64(s%7) * 0.1, MemoryBytes: int64(s%11) << 26}})
	}
	start := time.Now()
	m.Rebalance()
	elapsed := time.Since(start)
	// Paper: placement of 100K shards takes < 2s (§VI-A).
	if elapsed > 2*time.Second {
		t.Fatalf("placement of 100K shards took %v, want < 2s", elapsed)
	}
}

// Property: the balancing pass is locally optimal — for every container
// still above the band ceiling afterwards, no single shard move could
// bring it down without overloading the receiver or violating capacity.
func TestRebalanceLocalOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clk := simclock.NewSim(epoch)
		m := New(clk, Options{NumShards: 64, UtilizationBand: 0.10})
		const containers = 6
		for i := 0; i < containers; i++ {
			m.Register(fmt.Sprintf("c%d", i), cap26(), &fakeHandler{})
		}
		m.AssignUnassigned()
		loads := make(map[ShardID]config.Resources, 64)
		scoreOf := func(r config.Resources) float64 {
			return r.CPUCores/10 + float64(r.MemoryBytes)/float64(26<<30)
		}
		for s := ShardID(0); s < 64; s++ {
			load := config.Resources{
				CPUCores:    rng.Float64(),
				MemoryBytes: int64(rng.Float64() * float64(2<<30)),
			}
			loads[s] = load
			m.ReportShardLoads(map[ShardID]config.Resources{s: load})
		}
		res := m.Rebalance()
		high := res.MeanScore * 1.10
		capScore := 2.0 * 0.9 // cap26 against itself, minus 10% headroom

		contScore := make(map[string]float64)
		contShards := make(map[string][]ShardID)
		for sh, c := range m.Mapping() {
			contScore[c] += scoreOf(loads[sh])
			contShards[c] = append(contShards[c], sh)
		}
		for donor, sc := range contScore {
			if sc <= high+1e-9 {
				continue
			}
			// An over-band donor must have no improving move left.
			for _, sh := range contShards[donor] {
				shScore := scoreOf(loads[sh])
				if shScore == 0 {
					continue
				}
				for recv, rs := range contScore {
					if recv == donor {
						continue
					}
					if rs+shScore <= high && rs+shScore <= capScore {
						return false // greedy missed an improving move
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: rebalancing twice in a row with unchanged loads makes no
// additional moves (the pass is a fixpoint, not a thrash source).
func TestRebalanceFixpointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clk := simclock.NewSim(epoch)
		m := New(clk, Options{NumShards: 48})
		for i := 0; i < 4; i++ {
			m.Register(fmt.Sprintf("c%d", i), cap26(), &fakeHandler{})
		}
		m.AssignUnassigned()
		for s := ShardID(0); s < 48; s++ {
			m.ReportShardLoads(map[ShardID]config.Resources{s: {CPUCores: rng.Float64()}})
		}
		m.Rebalance()
		second := m.Rebalance()
		return second.Moves == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionalConstraintsPlacement(t *testing.T) {
	m, _ := newManager(12)
	m.RegisterInRegion("west-0", "west", cap26(), &fakeHandler{})
	m.RegisterInRegion("west-1", "west", cap26(), &fakeHandler{})
	m.RegisterInRegion("east-0", "east", cap26(), &fakeHandler{})
	// Shards 0-3 must stay in the east region.
	for s := ShardID(0); s < 4; s++ {
		m.SetShardRegion(s, "east")
	}
	m.AssignUnassigned()
	for s := ShardID(0); s < 4; s++ {
		owner, ok := m.Owner(s)
		if !ok || owner != "east-0" {
			t.Fatalf("shard %d on %q, want east-0", s, owner)
		}
	}
	// Unconstrained shards spread over everything.
	if n := len(m.ShardsOf("west-0")) + len(m.ShardsOf("west-1")); n == 0 {
		t.Fatal("west containers received nothing")
	}
}

func TestRegionalConstraintUnsatisfiableWaits(t *testing.T) {
	m, _ := newManager(4)
	m.RegisterInRegion("west-0", "west", cap26(), &fakeHandler{})
	m.SetShardRegion(0, "east") // nothing in east yet
	assigned := m.AssignUnassigned()
	if assigned != 3 {
		t.Fatalf("assigned = %d, want 3 (constrained shard deferred)", assigned)
	}
	if _, ok := m.Owner(0); ok {
		t.Fatal("constrained shard placed in the wrong region")
	}
	// Capacity arrives in east: next pass places it.
	m.RegisterInRegion("east-0", "east", cap26(), &fakeHandler{})
	m.AssignUnassigned()
	if owner, _ := m.Owner(0); owner != "east-0" {
		t.Fatalf("shard 0 on %q", owner)
	}
}

func TestRebalanceRepatriatesRegionViolations(t *testing.T) {
	m, _ := newManager(4)
	west := &fakeHandler{}
	east := &fakeHandler{}
	m.RegisterInRegion("west-0", "west", cap26(), west)
	m.RegisterInRegion("east-0", "east", cap26(), east)
	m.AssignUnassigned()
	// Constrain a west-placed shard to east AFTER placement.
	var westShard ShardID = -1
	for _, s := range m.ShardsOf("west-0") {
		westShard = s
		break
	}
	if westShard < 0 {
		t.Skip("west got no shards")
	}
	m.SetShardRegion(westShard, "east")
	m.Rebalance()
	if owner, _ := m.Owner(westShard); owner != "east-0" {
		t.Fatalf("violating shard on %q after rebalance", owner)
	}
	// Balancer never moves it back west.
	for _, s := range m.ShardsOf("east-0") {
		m.ReportShardLoads(map[ShardID]config.Resources{s: {CPUCores: 5}})
	}
	m.Rebalance()
	if owner, _ := m.Owner(westShard); owner != "east-0" {
		t.Fatalf("balancer violated region: shard on %q", owner)
	}
}
