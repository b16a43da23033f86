package shardmanager

import (
	"math"
	"sort"
	"time"

	"repro/internal/config"
)

// AssignUnassigned places every unassigned shard on the currently
// least-loaded container. New clusters call it once after registering the
// initial container fleet; it also runs at the start of every rebalance so
// fresh or failed-over shards never wait for a full balancing pass.
func (m *Manager) AssignUnassigned() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.assignUnassignedLocked()
	m.publishLocked()
	return n
}

// assignUnassignedLocked drains the explicit unassigned-shard set (in
// shard order, for determinism) onto a min-heap of containers keyed by
// shard count. Cost is O(U log C) for U unassigned shards — the shard
// space is never scanned. Region-constrained shards pick the
// least-counted eligible container from the heap slice and fix its
// entry, so constrained and unconstrained placements always see each
// other's counts.
func (m *Manager) assignUnassignedLocked() int {
	if len(m.unassigned) == 0 {
		return 0
	}
	alive := m.sortedContainersLocked()
	if len(alive) == 0 {
		return 0
	}
	pending := make([]ShardID, 0, len(m.unassigned))
	for s := range m.unassigned {
		pending = append(pending, s)
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })

	// Spread by current shard count via a min-heap: cheap even at 100K
	// shards, and load-based balancing refines placement once loads are
	// reported. The counts seed from the reverse index, not a mapping
	// scan.
	h := rankHeap{es: make([]rankEntry, len(alive))}
	for i, c := range alive {
		h.es[i] = rankEntry{container: c, key: float64(len(m.contShards[c.id]))}
	}
	h.init()
	assigned := 0
	for _, s := range pending {
		best := 0
		if want, constrained := m.regions[s]; constrained {
			best = -1
			for i, e := range h.es {
				if e.container.region == want && (best < 0 || h.less(i, best)) {
					best = i
				}
			}
			if best < 0 {
				continue // no eligible container; retry next pass
			}
		}
		m.placeLocked(s, h.es[best].container)
		assigned++
		h.es[best].key++
		h.fix(best)
	}
	return assigned
}

// rankEntry / rankHeap implement a binary min-heap of containers keyed by
// (key, ID) — the ID breaks ties, for determinism. Placement keys a
// container by its shard count, balancing by its load score. Hand-rolled
// rather than container/heap: push and removal run once per move on the
// hot path and must not box entries into interfaces.
type rankEntry struct {
	container *containerState
	key       float64
}

type rankHeap struct{ es []rankEntry }

func (h *rankHeap) less(i, j int) bool {
	if h.es[i].key != h.es[j].key {
		return h.es[i].key < h.es[j].key
	}
	return h.es[i].container.id < h.es[j].container.id
}

func (h *rankHeap) init() {
	for i := len(h.es)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *rankHeap) push(e rankEntry) {
	h.es = append(h.es, e)
	h.siftUp(len(h.es) - 1)
}

// removeAt deletes and returns the entry at index i, restoring heap order.
func (h *rankHeap) removeAt(i int) rankEntry {
	e := h.es[i]
	last := len(h.es) - 1
	h.es[i] = h.es[last]
	h.es = h.es[:last]
	if i < last {
		h.fix(i)
	}
	return e
}

// fix restores heap order after the key at index i changed.
func (h *rankHeap) fix(i int) {
	h.siftDown(i)
	h.siftUp(i)
}

func (h *rankHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.es[i], h.es[parent] = h.es[parent], h.es[i]
		i = parent
	}
}

func (h *rankHeap) siftDown(i int) {
	n := len(h.es)
	for {
		min := i
		if l := 2*i + 1; l < n && h.less(l, min) {
			min = l
		}
		if r := 2*i + 2; r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h.es[i], h.es[min] = h.es[min], h.es[i]
		i = min
	}
}

// RebalanceResult describes one balancing pass.
type RebalanceResult struct {
	Moves      int
	Assigned   int // previously unassigned shards placed
	MeanScore  float64
	MaxScore   float64
	MinScore   float64
	Containers int
	// Moved lists the balancing-phase movements in execution order
	// (repatriation moves first, in shard order).
	Moved []Move
}

// Move is one shard movement of a balancing pass.
type Move struct {
	Shard    ShardID
	From, To string
}

// Rebalance regenerates the shard→container mapping from the latest shard
// loads (§IV-B): it folds re-reported loads into the running per-container
// totals, places unassigned shards, then — if balancing is enabled —
// drains containers above the utilization band into a min-heap of
// receivers below it, largest-loaded shards first (first-fit-decreasing),
// honoring container capacity minus headroom and regional constraints.
//
// The pass is incremental: container loads and the reverse index are
// maintained across calls, so a steady-state pass (no dirty loads, no
// donors) costs O(containers), not O(shard space).
func (m *Manager) Rebalance() RebalanceResult {
	start := time.Now()
	var res RebalanceResult
	if m.unavailable.Load() {
		return res
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	m.foldLoadsLocked()
	res.Assigned = m.assignUnassignedLocked()
	alive := m.sortedContainersLocked()
	res.Containers = len(alive)
	if len(alive) == 0 || !m.balancingEnabled {
		m.publishLocked()
		m.stats.LastBalance = time.Since(start)
		return res
	}
	m.stats.Rebalances++

	// Repatriate shards whose region constraint is violated (constraint
	// added or container re-tagged after placement): each goes to the
	// first eligible container in ID order. Only the constrained-shard
	// set is scanned — O(1) extra for unconstrained clusters.
	if len(m.regions) > 0 {
		constrained := make([]ShardID, 0, len(m.regions))
		for sh := range m.regions {
			constrained = append(constrained, sh)
		}
		sort.Slice(constrained, func(i, j int) bool { return constrained[i] < constrained[j] })
		for _, sh := range constrained {
			cid, ok := m.assignment[sh]
			if !ok {
				continue
			}
			c := m.containers[cid]
			if c == nil || m.regionOKLocked(sh, c) {
				continue
			}
			for _, cand := range alive {
				if m.regionOKLocked(sh, cand) {
					m.moveLocked(sh, cid, cand.id)
					res.Moves++
					res.Moved = append(res.Moved, Move{Shard: sh, From: cid, To: cand.id})
					break
				}
			}
		}
	}

	// Reference capacity for score normalization: the mean container
	// capacity, so "1.0" means one average container fully loaded.
	var ref config.Resources
	for _, c := range alive {
		ref = ref.Add(c.capacity)
	}
	ref = ref.Scale(1 / float64(len(alive)))

	// Per-container scores from the running loads — no assignment scan.
	scores := make(map[string]float64, len(alive))
	var total float64
	for _, c := range alive {
		scores[c.id] = score(m.contLoad[c.id], ref)
		total += scores[c.id]
	}
	mean := total / float64(len(alive))
	band := m.opts.UtilizationBand
	high := mean * (1 + band)
	low := mean * (1 - band)

	// Donors above the band, sorted by score descending (worst first).
	donors := make([]*containerState, 0)
	for _, c := range alive {
		if scores[c.id] > high {
			donors = append(donors, c)
		}
	}
	sort.Slice(donors, func(i, j int) bool {
		if scores[donors[i].id] != scores[donors[j].id] {
			return scores[donors[i].id] > scores[donors[j].id]
		}
		return donors[i].id < donors[j].id
	})

	capScore := make(map[string]float64, len(alive))
	for _, c := range alive {
		capScore[c.id] = score(c.capacity, ref) * (1 - headroom)
	}

	if len(donors) > 0 {
		m.drainDonorsLocked(&res, alive, donors, scores, capScore, ref, high, low)
	}

	// Report distribution after the pass.
	res.MeanScore = mean
	first := true
	for _, c := range alive {
		s := scores[c.id]
		if first {
			res.MinScore, res.MaxScore = s, s
			first = false
			continue
		}
		if s < res.MinScore {
			res.MinScore = s
		}
		if s > res.MaxScore {
			res.MaxScore = s
		}
	}
	m.stats.Moves += res.Moves
	m.publishLocked()
	m.stats.LastBalance = time.Since(start)
	return res
}

// drainDonorsLocked runs the first-fit-decreasing donor drain: each
// donor's shards (largest score first) move onto the min-heap of
// below-band receivers until the donor re-enters the band.
//
// Receiver preference matches the established semantics: the
// lowest-scored container below the band floor that can take the shard
// without leaving the band ceiling or violating capacity/headroom or the
// shard's region constraint; if no below-floor container is eligible, the
// first eligible in-band container in ID order. Scores only change for
// the current donor (never in the heap — its score is above the ceiling)
// and for the removed receiver, so heap entries are never stale. The
// heap root is the (score, ID)-minimum, so the common case is O(log
// receivers) per move; when the root is ineligible (capacity or region)
// an allocation-free linear scan of the heap slice finds the minimum
// eligible entry — never slower than the legacy full-fleet scan.
func (m *Manager) drainDonorsLocked(res *RebalanceResult, alive, donors []*containerState,
	scores, capScore map[string]float64, ref config.Resources, high, low float64) {

	rh := rankHeap{es: make([]rankEntry, 0, len(alive))}
	inLow := make(map[string]bool, len(alive))
	for _, c := range alive {
		if scores[c.id] < low {
			rh.es = append(rh.es, rankEntry{container: c, key: scores[c.id]})
			inLow[c.id] = true
		}
	}
	rh.init()

	// maxSlack bounds what any receiver could still absorb: the largest
	// min(band ceiling, capacity−headroom) − score over the fleet, and the
	// container holding it. A shard whose score exceeds the bound cannot be
	// placed anywhere (regions only shrink the candidate set), so its scan
	// is skipped outright. Receiving only shrinks a container's slack, so
	// the bound stays valid within a donor unless the holder itself
	// receives; it is recomputed per donor because a drained donor rejoins
	// the candidate set with new slack. This is what keeps a saturated
	// fleet — donors present, every receiver full — at O(donor shards)
	// instead of O(donor shards × containers) per pass.
	maxSlack := func() (float64, string) {
		best, holder := math.Inf(-1), ""
		for _, c := range alive {
			limit := high
			if cs := capScore[c.id]; cs < limit {
				limit = cs
			}
			if sl := limit - scores[c.id]; sl > best {
				best, holder = sl, c.id
			}
		}
		return best, holder
	}

	type shardScore struct {
		id    ShardID
		score float64
	}
	for _, donor := range donors {
		// The donor's shards from the reverse index, largest first:
		// fewest moves to re-enter the band.
		owned := m.contShards[donor.id]
		shards := make([]shardScore, 0, len(owned))
		for s := range owned {
			shards = append(shards, shardScore{id: s, score: score(m.applied[s], ref)})
		}
		sort.Slice(shards, func(i, j int) bool {
			if shards[i].score != shards[j].score {
				return shards[i].score > shards[j].score
			}
			return shards[i].id < shards[j].id
		})
		slack, slackHolder := maxSlack()

		for _, sh := range shards {
			if scores[donor.id] <= high {
				break
			}
			if sh.score == 0 {
				break // only zero-load shards left; moving them is churn
			}
			if sh.score > slack {
				continue // no container fleet-wide has room; skip the scan
			}

			eligible := func(e rankEntry) bool {
				return m.regionOKLocked(sh.id, e.container) &&
					e.key+sh.score <= high &&
					e.key+sh.score <= capScore[e.container.id]
			}
			var recv *containerState
			if len(rh.es) > 0 {
				if eligible(rh.es[0]) {
					recv = rh.removeAt(0).container
				} else {
					// Root can't take the shard: scan the heap slice for
					// the (score, ID)-minimum eligible entry in place.
					best := -1
					for i := range rh.es {
						if eligible(rh.es[i]) && (best < 0 || rh.less(i, best)) {
							best = i
						}
					}
					if best >= 0 {
						recv = rh.removeAt(best).container
					}
				}
			}
			if recv == nil {
				// Fallback: first in-band container in ID order that can
				// absorb the shard.
				for _, c := range alive {
					if c.id == donor.id || scores[c.id] < low {
						continue
					}
					cs := scores[c.id]
					if !m.regionOKLocked(sh.id, c) ||
						cs+sh.score > high || cs+sh.score > capScore[c.id] {
						continue
					}
					recv = c
					break
				}
			}
			if recv == nil {
				continue
			}
			m.moveLocked(sh.id, donor.id, recv.id)
			scores[donor.id] -= sh.score
			scores[recv.id] += sh.score
			if inLow[recv.id] {
				// The receiver came off the heap; re-enter it with its
				// new score if it is still below the floor.
				if scores[recv.id] < low {
					rh.push(rankEntry{container: recv, key: scores[recv.id]})
				} else {
					inLow[recv.id] = false
				}
			}
			res.Moves++
			res.Moved = append(res.Moved, Move{Shard: sh.id, From: donor.id, To: recv.id})
			if recv.id == slackHolder {
				slack, slackHolder = maxSlack()
			}
		}
		// A drained donor can drop below the floor and become a receiver
		// for later donors.
		if scores[donor.id] < low && !inLow[donor.id] {
			rh.push(rankEntry{container: donor, key: scores[donor.id]})
			inLow[donor.id] = true
		}
	}
}
