package engine

import (
	"fmt"
	"sync"
)

// CheckpointStore is the durable store of per-(job, partition) input
// offsets, standing in for the checkpoint directory Turbine jobs write to.
// Each task of a job checkpoints the offsets of the partitions it owns, so
// a failed task recovers independently by restoring its own checkpoint and
// resuming its Scribe partitions (paper §II).
//
// The store also tracks partition ownership leases. Turbine's task
// management must never run two active instances of the same task (§IV);
// with disjoint partition ownership that reduces to "no partition has two
// live owners". Start enforces it and records violations, so tests and
// experiments can assert the invariant end to end.
type CheckpointStore struct {
	mu         sync.Mutex
	offsets    map[string]map[int]int64  // job -> partition -> offset
	stateBytes map[string]map[int]int64  // job -> partition -> state size (stateful ops)
	owners     map[string]map[int]string // job -> partition -> live owner task ID
	violations int
}

// NewCheckpointStore returns an empty store.
func NewCheckpointStore() *CheckpointStore {
	return &CheckpointStore{
		offsets:    make(map[string]map[int]int64),
		stateBytes: make(map[string]map[int]int64),
		owners:     make(map[string]map[int]string),
	}
}

// Start begins one task instance under a single lock: it takes the
// ownership lease of every listed partition of job for instance and
// returns the partitions' checkpointed offsets, in the order given. It is
// all or nothing — if any partition is leased to a different instance,
// Start takes none, records one duplication violation and fails. Leases
// instance already holds are kept.
func (s *CheckpointStore) Start(job string, partitions []int, instance string) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	owners := s.owners[job]
	for _, p := range partitions {
		if cur, ok := owners[p]; ok && cur != instance {
			s.violations++
			return nil, fmt.Errorf("engine: partition %d of job %s already owned by %s (requested by %s)", p, job, cur, instance)
		}
	}
	if owners == nil {
		owners = make(map[int]string, len(partitions))
		s.owners[job] = owners
	}
	checkpointed := s.offsets[job]
	offsets := make([]int64, len(partitions))
	for i, p := range partitions {
		owners[p] = instance
		offsets[i] = checkpointed[p]
	}
	return offsets, nil
}

// Stop ends one task instance under a single lock: it persists offsets
// (parallel to partitions) and gives up every lease instance holds on
// them. A lease owned by someone else (or not held) is left alone:
// stopping is idempotent because a container can be forcefully killed
// after a DROP_SHARD timed out (§IV-A2) and the kill path re-releases.
func (s *CheckpointStore) Stop(job string, partitions []int, instance string, offsets []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	checkpointed := s.offsets[job]
	if checkpointed == nil {
		checkpointed = make(map[int]int64, len(partitions))
		s.offsets[job] = checkpointed
	}
	owners := s.owners[job]
	for i, p := range partitions {
		checkpointed[p] = offsets[i]
		if owners[p] == instance {
			delete(owners, p)
		}
	}
}

// ForceReleaseTask drops every lease held by taskID in job. Used when a
// container dies without a clean shutdown: the fail-over protocol
// guarantees the old tasks are no longer processing before new owners
// acquire (§IV-C).
func (s *CheckpointStore) ForceReleaseTask(job, taskID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if owners := s.owners[job]; owners != nil {
		for p, owner := range owners {
			if owner == taskID {
				delete(owners, p)
			}
		}
	}
}

// Owner returns the live owner of (job, partition), if any.
func (s *CheckpointStore) Owner(job string, partition int) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	owners := s.owners[job]
	if owners == nil {
		return "", false
	}
	id, ok := owners[partition]
	return id, ok
}

// Violations returns how many duplicate-ownership attempts were recorded.
func (s *CheckpointStore) Violations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.violations
}

// Offset returns the checkpointed offset for (job, partition); zero if the
// partition has never been checkpointed.
func (s *CheckpointStore) Offset(job string, partition int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.offsets[job][partition]
}

// SetOffset persists the offset for (job, partition).
func (s *CheckpointStore) SetOffset(job string, partition int, offset int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.offsets[job]
	if m == nil {
		m = make(map[int]int64)
		s.offsets[job] = m
	}
	m[partition] = offset
}

// StateSize returns the persisted state size for (job, partition).
func (s *CheckpointStore) StateSize(job string, partition int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stateBytes[job][partition]
}

// SetStateSize persists the state size for (job, partition). Stateful
// operators write it alongside offsets; parallelism changes move this
// state between tasks, which is why they are "complex" synchronizations.
func (s *CheckpointStore) SetStateSize(job string, partition int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.stateBytes[job]
	if m == nil {
		m = make(map[int]int64)
		s.stateBytes[job] = m
	}
	m[partition] = bytes
}

// JobState returns the total persisted state size across a job's
// partitions. The State Syncer uses it to cost checkpoint redistribution.
func (s *CheckpointStore) JobState(job string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, b := range s.stateBytes[job] {
		total += b
	}
	return total
}

// LiveOwners returns the number of partitions of job with a live lease.
func (s *CheckpointStore) LiveOwners(job string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.owners[job])
}

// DeleteJob removes all checkpoints, state, and leases for job.
func (s *CheckpointStore) DeleteJob(job string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.offsets, job)
	delete(s.stateBytes, job)
	delete(s.owners, job)
}
