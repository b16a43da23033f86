package shardmanager

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/simclock"
)

// TestConcurrentFanInStress drives every fan-in path of the new lock
// layout at once under -race: striped heartbeats, striped batch load
// reports, balancing passes, failure scans, lock-free Mapping/Owner
// reads, and container churn (register / forced failover). The final
// fleet must still satisfy the single-owner invariant and the internal
// index invariants.
func TestConcurrentFanInStress(t *testing.T) {
	const (
		shards     = 512
		containers = 16
		workers    = 4
		iters      = 300
	)
	clk := simclock.NewSim(epoch)
	m := New(clk, Options{NumShards: shards})
	ids := make([]string, containers)
	for i := range ids {
		ids[i] = fmt.Sprintf("c%02d", i)
		m.RegisterInRegion(ids[i], []string{"east", "west"}[i%2], cap26(), nil)
	}
	m.AssignUnassigned()
	m.SetShardRegion(3, "east")
	m.SetShardRegion(7, "west")

	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				f(i)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		w := w
		run(func(i int) { // heartbeat fan-in
			_ = m.Heartbeat(ids[(w*7+i)%containers])
		})
		run(func(i int) { // batch load-report fan-in
			batch := make(map[ShardID]config.Resources, 8)
			for k := 0; k < 8; k++ {
				s := ShardID((w*131 + i*8 + k) % shards)
				batch[s] = config.Resources{CPUCores: float64((i+k)%32) / 16, MemoryBytes: int64(k) << 28}
			}
			m.ReportShardLoads(batch)
		})
		run(func(i int) { // degraded-mode read path
			m.Owner(ShardID((w + i*3) % shards))
			if i%32 == 0 {
				if got := len(m.Mapping()); got > shards {
					t.Errorf("mapping has %d entries for %d shards", got, shards)
				}
			}
			_ = m.MappingEpoch()
		})
	}
	run(func(i int) { // balancing + failure scans
		m.Rebalance()
		m.CheckFailures()
	})
	run(func(i int) { // container churn: forced failover + re-register
		if i%50 != 0 {
			m.ShardsOf(ids[i%containers])
			return
		}
		id := ids[i%containers]
		m.FailoverContainer(id)
		m.RegisterInRegion(id, []string{"east", "west"}[(i%containers)%2], cap26(), nil)
	})
	run(func(i int) { // availability flapping (§IV-D)
		if i%100 == 0 {
			m.SetAvailable(false)
			m.SetAvailable(true)
		}
		m.Stats()
	})
	wg.Wait()

	// Settle and verify invariants.
	m.AssignUnassigned()
	owners := m.Mapping()
	if len(owners) != shards {
		t.Fatalf("%d shards mapped, want %d", len(owners), shards)
	}
	live := map[string]bool{}
	for _, id := range m.ContainerIDs() {
		live[id] = true
	}
	for s, c := range owners {
		if !live[c] {
			t.Fatalf("shard %d owned by dead container %q", s, c)
		}
	}
	checkStateInvariants(t, m)
}

// TestHeartbeatIndependentOfBalancing pins the lock decomposition: a
// heartbeat and a load report complete while a balancing pass holds the
// assignment lock. The balancing pass is parked inside a shard-movement
// handler callback, which the legacy single-mutex design would have held
// the global lock across.
func TestHeartbeatIndependentOfBalancing(t *testing.T) {
	clk := simclock.NewSim(epoch)
	m := New(clk, Options{NumShards: 8})
	inMove := make(chan struct{})
	release := make(chan struct{})
	slow := &blockingHandler{inMove: inMove, release: release}
	m.Register("slow", cap26(), slow)
	m.Register("peer", cap26(), &fakeHandler{})
	m.AssignUnassigned()
	for _, s := range m.ShardsOf("slow") {
		m.ReportShardLoads(map[ShardID]config.Resources{s: {CPUCores: 4}})
	}

	done := make(chan RebalanceResult, 1)
	go func() { done <- m.Rebalance() }()
	<-inMove // balancing pass is mid-move, assignment lock held

	hb := make(chan error, 1)
	go func() {
		m.ReportShardLoads(map[ShardID]config.Resources{0: {CPUCores: 1}, 1: {CPUCores: 1}})
		hb <- m.Heartbeat("peer")
	}()
	select {
	case err := <-hb:
		if err != nil {
			t.Fatalf("heartbeat during balancing: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("heartbeat/load-report blocked behind balancing pass")
	}
	// Owner/Mapping read the pre-pass snapshot without blocking either.
	if _, ok := m.Owner(0); !ok {
		t.Fatal("Owner unreadable during balancing")
	}
	close(release)
	if res := <-done; res.Moves == 0 {
		t.Fatal("balancing pass made no moves")
	}
}

type blockingHandler struct {
	inMove  chan struct{}
	release chan struct{}
	once    sync.Once
}

func (h *blockingHandler) AddShard(ShardID) error { return nil }
func (h *blockingHandler) DropShard(ShardID) error {
	h.once.Do(func() {
		close(h.inMove)
		<-h.release
	})
	return nil
}
