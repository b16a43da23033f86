package shardmanager

import (
	"sync"

	"repro/internal/config"
)

// loadStripeCount is the shard-load table stripe fan-out (power of two so
// the stripe index is a mask). Shard IDs are dense integers, so a simple
// mask spreads them uniformly: no stripe.Hash here.
const loadStripeCount = 64

// loadStripe holds the latest reported load for the shards that hash to
// it, plus the set of shards re-reported since the last balancing fold.
// Report paths touch only their stripe; balancing drains the dirty sets
// under the assignment lock (lock order: mu, then stripe).
type loadStripe struct {
	mu    sync.Mutex
	loads map[ShardID]config.Resources
	dirty map[ShardID]struct{}
}

// ReportShardLoads records the latest aggregated loads of a batch of
// shards, as computed by the load-aggregator thread in a Task Manager
// (§IV-B), which publishes a whole aggregation cycle at once. It takes one
// lock round-trip per touched load stripe and never blocks on balancing.
func (m *Manager) ReportShardLoads(loads map[ShardID]config.Resources) {
	if len(loads) == 0 {
		return
	}
	type shardLoad struct {
		s ShardID
		l config.Resources
	}
	var buckets [loadStripeCount][]shardLoad
	for s, l := range loads {
		i := uint64(s) & (loadStripeCount - 1)
		buckets[i] = append(buckets[i], shardLoad{s, l})
	}
	for i := range buckets {
		if len(buckets[i]) == 0 {
			continue
		}
		st := &m.ld[i]
		st.mu.Lock()
		for _, p := range buckets[i] {
			st.loads[p.s] = p.l
			st.dirty[p.s] = struct{}{}
		}
		st.mu.Unlock()
	}
}

// foldLoadsLocked syncs the running per-container loads with the striped
// report table: for every shard re-reported since the last fold, the old
// applied value is swapped out of its owner's running load and the new
// one swapped in. Cost is O(dirty shards), not O(shard space) — the
// "incremental, continuously-maintained computation" the balancing pass
// builds on. Caller holds m.mu.
func (m *Manager) foldLoadsLocked() {
	var pending []struct {
		s ShardID
		l config.Resources
	}
	for i := range m.ld {
		st := &m.ld[i]
		st.mu.Lock()
		if len(st.dirty) == 0 {
			st.mu.Unlock()
			continue
		}
		for s := range st.dirty {
			pending = append(pending, struct {
				s ShardID
				l config.Resources
			}{s, st.loads[s]})
		}
		clear(st.dirty)
		st.mu.Unlock()
	}
	for _, p := range pending {
		old := m.applied[p.s]
		if old == p.l {
			continue
		}
		m.applied[p.s] = p.l
		if owner, ok := m.assignment[p.s]; ok {
			m.contLoad[owner] = m.contLoad[owner].Sub(old).Add(p.l)
		}
	}
}
