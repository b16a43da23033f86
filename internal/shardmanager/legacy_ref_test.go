package shardmanager

// This file is a test-only port of the pre-incremental Rebalance (the
// implementation this package shipped before the heap-driven rewrite):
// per-pass rebuilds of container load and shard lists from the full
// assignment map, and an O(containers) receiver scan per move. The
// equivalence test pins the rewritten pass to this reference — identical
// move sequences and final mappings — so the incremental state machine
// provably computes the same bin-packing.

import (
	"sort"

	"repro/internal/config"
)

type refContainer struct {
	id       string
	capacity config.Resources
	region   string
}

// refState is a self-contained snapshot of everything the legacy pass
// read: fleet, mapping, per-shard loads and region constraints, plus the
// (defaults-filled) options.
type refState struct {
	opts       Options
	containers map[string]*refContainer
	assignment map[ShardID]string
	loads      map[ShardID]config.Resources
	regions    map[ShardID]string
}

func (st *refState) regionOK(s ShardID, c *refContainer) bool {
	want := st.regions[s]
	return want == "" || want == c.region
}

func (st *refState) sortedContainers() []*refContainer {
	out := make([]*refContainer, 0, len(st.containers))
	for _, c := range st.containers {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// legacyRebalance is the verbatim legacy balancing pass over a refState
// (every shard is expected to be assigned — the callers assert that). It
// mutates st.assignment to the final mapping and returns the executed
// moves in order. The one deliberate difference: repatriation iterates
// constrained shards in shard order instead of random map order — each
// repatriation is independent (first eligible container in ID order), so
// the final mapping is unchanged and the sequence becomes comparable.
func legacyRebalance(st *refState) []Move {
	var moved []Move
	alive := st.sortedContainers()
	if len(alive) == 0 {
		return nil
	}

	if len(st.regions) > 0 {
		constrained := make([]ShardID, 0, len(st.regions))
		for sh := range st.regions {
			constrained = append(constrained, sh)
		}
		sort.Slice(constrained, func(i, j int) bool { return constrained[i] < constrained[j] })
		for _, sh := range constrained {
			cid, ok := st.assignment[sh]
			if !ok {
				continue
			}
			c := st.containers[cid]
			if c == nil || st.regionOK(sh, c) {
				continue
			}
			for _, cand := range alive {
				if st.regionOK(sh, cand) {
					st.assignment[sh] = cand.id
					moved = append(moved, Move{Shard: sh, From: cid, To: cand.id})
					break
				}
			}
		}
	}

	var ref config.Resources
	for _, c := range alive {
		ref = ref.Add(c.capacity)
	}
	ref = ref.Scale(1 / float64(len(alive)))

	type shardLoad struct {
		id    ShardID
		load  config.Resources
		score float64
	}
	contLoad := make(map[string]config.Resources, len(alive))
	contShards := make(map[string][]shardLoad, len(alive))
	for s, cid := range st.assignment {
		l := st.loads[s]
		contLoad[cid] = contLoad[cid].Add(l)
		contShards[cid] = append(contShards[cid], shardLoad{id: s, load: l, score: score(l, ref)})
	}

	scores := make(map[string]float64, len(alive))
	var total float64
	for _, c := range alive {
		scores[c.id] = score(contLoad[c.id], ref)
		total += scores[c.id]
	}
	mean := total / float64(len(alive))
	band := st.opts.UtilizationBand
	high := mean * (1 + band)
	low := mean * (1 - band)

	donors := make([]string, 0)
	for _, c := range alive {
		if scores[c.id] > high {
			donors = append(donors, c.id)
		}
	}
	sort.Slice(donors, func(i, j int) bool {
		if scores[donors[i]] != scores[donors[j]] {
			return scores[donors[i]] > scores[donors[j]]
		}
		return donors[i] < donors[j]
	})

	capScore := make(map[string]float64, len(alive))
	for _, c := range alive {
		capScore[c.id] = score(c.capacity, ref) * (1 - headroom)
	}

	for _, donor := range donors {
		shards := contShards[donor]
		sort.Slice(shards, func(i, j int) bool {
			if shards[i].score != shards[j].score {
				return shards[i].score > shards[j].score
			}
			return shards[i].id < shards[j].id
		})
		for _, sh := range shards {
			if scores[donor] <= high {
				break
			}
			if sh.score == 0 {
				break
			}
			recv := ""
			recvScore := 0.0
			for _, c := range alive {
				if c.id == donor {
					continue
				}
				if !st.regionOK(sh.id, c) {
					continue
				}
				cs := scores[c.id]
				if cs >= low && recv != "" {
					continue
				}
				if cs+sh.score > high {
					continue
				}
				if cs+sh.score > capScore[c.id] {
					continue
				}
				if recv == "" || cs < recvScore {
					recv, recvScore = c.id, cs
				}
			}
			if recv == "" {
				continue
			}
			st.assignment[sh.id] = recv
			scores[donor] -= sh.score
			scores[recv] += sh.score
			moved = append(moved, Move{Shard: sh.id, From: donor, To: recv})
		}
	}
	return moved
}
