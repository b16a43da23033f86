package engine

import (
	"fmt"
	"strconv"
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
//
// Layout: one record per job, holding dense slices indexed by partition
// number — offset, state size, lease owner — and the count of live
// leases. Partitions are small consecutive integers (AssignPartitions
// deals out 0..n-1), so a record is a few cache lines and every call is
// one lock and one map lookup however many partitions it names: a task
// pays one call to start, one per interval to persist its progress
// (Checkpoint), one to stop and one to restart in place (Handover); the
// job monitor pays one per job (Consumed). A record grows to the largest
// partition number it has been asked to hold and reads beyond it see the
// zero value, so a partition nobody wrote is indistinguishable from one
// that was never mentioned. A lease owner is an Incarnation, two integers,
// so the records hold no pointers and a lease check compares numbers;
// Owner formats the owner's name only when asked.
// Partition numbers are non-negative and owners non-zero: Start refuses
// anything else, so nothing a started task later passes can be.
type CheckpointStore struct {
	mu         sync.Mutex
	jobs       map[string]*jobCheckpoint
	violations int
}

// Incarnation names one instance of one task — the lease owner the
// duplicate-instance invariant (§IV) is about: two live processes for
// one task are two incarnations. Index is the task's index within its
// job and Seq a number no other incarnation in the process shares
// (NewTask and Respec draw it from instanceSeq). The zero Incarnation is
// no owner.
type Incarnation struct {
	Seq   uint64
	Index int
}

// name returns the incarnation's name in job, "<job>#<index>@<seq>".
func (in Incarnation) name(job string) string {
	var name [64]byte // most names fit and cost the one string
	b := append(name[:0], job...)
	b = strconv.AppendInt(append(b, '#'), int64(in.Index), 10)
	b = strconv.AppendUint(append(b, '@'), in.Seq, 10)
	return string(b)
}

// jobCheckpoint is one job's record. The three slices always have the same
// length; a zero owners[p] means partition p has no live lease, and live
// counts the entries that do.
type jobCheckpoint struct {
	offsets []int64
	state   []int64 // state size, stateful operators only
	owners  []Incarnation
	live    int
}

// NewCheckpointStore returns an empty store.
func NewCheckpointStore() *CheckpointStore {
	return &CheckpointStore{jobs: make(map[string]*jobCheckpoint)}
}

// release drops partition p's lease if owner holds it.
func (r *jobCheckpoint) release(p int, owner Incarnation) {
	if owner != (Incarnation{}) && r.owners[p] == owner {
		r.owners[p] = Incarnation{}
		r.live--
	}
}

// recordLocked returns job's record, created and grown as needed to hold
// every listed partition.
func (s *CheckpointStore) recordLocked(job string, partitions []int) *jobCheckpoint {
	need := 0
	for _, p := range partitions {
		need = max(need, p+1)
	}
	r := s.jobs[job]
	if r == nil {
		r = &jobCheckpoint{}
		s.jobs[job] = r
	}
	if n := len(r.offsets); need > n {
		r.offsets = append(r.offsets, make([]int64, need-n)...)
		r.state = append(r.state, make([]int64, need-n)...)
		r.owners = append(r.owners, make([]Incarnation, need-n)...)
	}
	return r
}

// Start begins one task instance under a single lock: it takes the
// ownership lease of every listed partition of job for owner and writes
// the partitions' checkpointed offsets into into, in the order given
// (into must be at least as long as partitions). It is all or nothing —
// if any partition is leased to a different incarnation, Start takes
// none, leaves into alone, records one duplication violation and fails.
// Leases owner already holds are kept.
func (s *CheckpointStore) Start(job string, partitions []int, owner Incarnation, into []int64) error {
	into = into[:len(partitions)]
	if owner == (Incarnation{}) {
		return fmt.Errorf("engine: job %s: a lease needs an owner", job)
	}
	for _, p := range partitions {
		if p < 0 {
			return fmt.Errorf("engine: job %s has no partition %d (requested by %s)", job, p, owner.name(job))
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recordLocked(job, partitions)
	for _, p := range partitions {
		if cur := r.owners[p]; cur != (Incarnation{}) && cur != owner {
			s.violations++
			return fmt.Errorf("engine: partition %d of job %s already owned by %s (requested by %s)", p, job, cur.name(job), owner.name(job))
		}
	}
	for i, p := range partitions {
		if r.owners[p] == (Incarnation{}) {
			r.live++
		}
		r.owners[p] = owner
		into[i] = r.offsets[p]
	}
	return nil
}

// Checkpoint persists one task's progress under a single lock — its one
// write per processing interval. offsets, parallel to partitions, become
// the partitions' checkpointed offsets unless nil (an interval that
// consumed nothing has nothing new to persist). stateBytes, unless
// negative, is recorded as the state size of every listed partition:
// stateful operators write it alongside offsets, and parallelism changes
// move this state between tasks, which is why they are "complex"
// synchronizations. Leases are neither required nor changed.
func (s *CheckpointStore) Checkpoint(job string, partitions []int, offsets []int64, stateBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recordLocked(job, partitions)
	for i, p := range partitions {
		if offsets != nil {
			r.offsets[p] = offsets[i]
		}
		if stateBytes >= 0 {
			r.state[p] = stateBytes
		}
	}
}

// Stop ends one task instance under a single lock: it persists offsets
// (parallel to partitions) and gives up every lease owner holds on them. A lease owned by someone else (or not held) is left alone:
// stopping is idempotent because a container can be forcefully killed
// after a DROP_SHARD timed out (§IV-A2) and the kill path re-releases.
func (s *CheckpointStore) Stop(job string, partitions []int, owner Incarnation, offsets []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recordLocked(job, partitions)
	for i, p := range partitions {
		r.offsets[p] = offsets[i]
		r.release(p, owner)
	}
}

// Handover restarts one task instance in place under a single lock: it
// persists offsets (parallel to partitions) and moves the lease of every
// listed partition from incarnation from to incarnation to (non-zero),
// taking any that nobody holds. That is what Stop by from and then Start
// by to would leave, but no lease is free or held twice in between. It is
// all or nothing: if a third incarnation holds any of the partitions,
// Handover changes nothing and returns false, and the caller's Stop and
// Start record the violation.
func (s *CheckpointStore) Handover(job string, partitions []int, from, to Incarnation, offsets []int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recordLocked(job, partitions)
	for _, p := range partitions {
		if cur := r.owners[p]; cur != (Incarnation{}) && cur != from {
			return false
		}
	}
	for i, p := range partitions {
		if r.owners[p] == (Incarnation{}) {
			r.live++
		}
		r.owners[p] = to
		r.offsets[p] = offsets[i]
	}
	return true
}

// ForceReleaseTask drops every lease held by owner in job, and none of
// its successors'. Used when a container dies without a clean shutdown:
// the fail-over protocol guarantees the old tasks are no longer
// processing before new owners acquire (§IV-C).
func (s *CheckpointStore) ForceReleaseTask(job string, owner Incarnation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.jobs[job]; r != nil {
		for p := range r.owners {
			r.release(p, owner)
		}
	}
}

// Owner returns the name of the live owner of (job, partition),
// "<job>#<index>@<seq>", if any.
func (s *CheckpointStore) Owner(job string, partition int) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.jobs[job]
	if r == nil || partition < 0 || partition >= len(r.owners) || r.owners[partition] == (Incarnation{}) {
		return "", false
	}
	return r.owners[partition].name(job), true
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
	r := s.jobs[job]
	if r == nil || partition < 0 || partition >= len(r.offsets) {
		return 0
	}
	return r.offsets[partition]
}

// Consumed returns the sum of the checkpointed offsets of partitions
// 0..partitions-1 of job: the bytes the job has read from an input
// category of that many partitions. Written minus Consumed is the
// total_bytes_lagged of the lag equation (1); the job monitor reads it
// once per job per interval.
func (s *CheckpointStore) Consumed(job string, partitions int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.jobs[job]
	if r == nil {
		return 0
	}
	var total int64
	for _, off := range r.offsets[:max(0, min(partitions, len(r.offsets)))] {
		total += off
	}
	return total
}

// StateSize returns the persisted state size for (job, partition).
func (s *CheckpointStore) StateSize(job string, partition int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.jobs[job]
	if r == nil || partition < 0 || partition >= len(r.state) {
		return 0
	}
	return r.state[partition]
}

// JobState returns the total persisted state size across a job's
// partitions. The State Syncer uses it to cost checkpoint redistribution.
func (s *CheckpointStore) JobState(job string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.jobs[job]
	if r == nil {
		return 0
	}
	var total int64
	for _, b := range r.state {
		total += b
	}
	return total
}

// LiveOwners returns the number of partitions of job with a live lease.
func (s *CheckpointStore) LiveOwners(job string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.jobs[job]; r != nil {
		return r.live
	}
	return 0
}

// DeleteJob removes all checkpoints, state, and leases for job.
func (s *CheckpointStore) DeleteJob(job string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, job)
}
