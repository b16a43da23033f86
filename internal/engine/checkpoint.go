package engine

import (
	"fmt"
	"slices"
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
// live owners". A task's Start enforces it and records violations, so
// tests and experiments can assert the invariant end to end.
//
// Layout: one record per job, holding dense slices indexed by partition
// number — offset, lease owner, and (once a stateful task writes one)
// state size — and the count of live leases. Partitions are small
// consecutive integers (AssignPartitions deals out 0..n-1), so a record is
// a few cache lines. A task's Start finds its job's record by name under
// the store's lock and hands the record back from that same critical
// section; the task keeps it, and its per-interval checkpoint (Advance),
// its Stop and its in-place restarts (Handover) reach the record through
// it with no name lookup. DeleteJob retires a job's record: the next Start
// of the name creates a fresh one, and a task still holding the retired
// record writes only into it, never into its namesake's. The job monitor
// pays one lookup per job (Consumed). A record grows to the largest
// partition number it has been asked to hold and reads beyond it see the
// zero value, so a partition nobody wrote is indistinguishable from one
// that was never mentioned. A lease owner is an Incarnation, two integers,
// so a lease check compares numbers; Owner formats the owner's name only
// when asked.
// Partition numbers are non-negative and owners non-zero: start refuses
// anything else, so nothing a started task later passes can be.
type CheckpointStore struct {
	mu         sync.Mutex
	jobs       map[string]*jobCheckpoint
	violations int
	// detached is the record of no job, the handle NewTask gives a task
	// until its first Start: it only leads to the store.
	detached jobCheckpoint
}

// Incarnation names one instance of one task — the lease owner the
// duplicate-instance invariant (§IV) is about: two live processes for
// one task are two incarnations. Index is the task's index within its
// job and Seq a number no other incarnation in the process shares
// (NewTask and Handover draw it from instanceSeq). The zero Incarnation is
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

// jobCheckpoint is one job's record. offsets and owners always have the
// same length; state is nil until a stateful task writes a state size,
// then grown as needed, and a partition beyond it has state size zero. A
// zero owners[p] means partition p has no live lease, and live counts the
// entries that do. store is the store the record belongs to; every field
// below it is guarded by store.mu. A retired record (DeleteJob) is no
// longer the job's: writes to it change nothing anyone can read.
type jobCheckpoint struct {
	store   *CheckpointStore
	offsets []int64
	state   []int64 // state size, stateful operators only
	owners  []Incarnation
	live    int
	retired bool
}

// NewCheckpointStore returns an empty store.
func NewCheckpointStore() *CheckpointStore {
	s := &CheckpointStore{jobs: make(map[string]*jobCheckpoint)}
	s.detached.store = s
	return s
}

// release drops partition p's lease if owner holds it.
func (r *jobCheckpoint) release(p int, owner Incarnation) {
	if owner != (Incarnation{}) && r.owners[p] == owner {
		r.owners[p] = Incarnation{}
		r.live--
	}
}

// span returns one more than the largest listed partition.
func span(partitions []int) int {
	need := 0
	for _, p := range partitions {
		need = max(need, p+1)
	}
	return need
}

// recordLocked returns job's record, created and grown as needed to hold
// every listed partition.
func (s *CheckpointStore) recordLocked(job string, partitions []int) *jobCheckpoint {
	r := s.jobs[job]
	if r == nil {
		r = &jobCheckpoint{store: s}
		s.jobs[job] = r
	}
	if need, n := span(partitions), len(r.offsets); need > n {
		r.offsets = append(r.offsets, make([]int64, need-n)...)
		r.owners = append(r.owners, make([]Incarnation, need-n)...)
	}
	return r
}

// start begins one task instance under a single lock: it takes the
// ownership lease of every listed partition of job for owner, writes the
// partitions' checkpointed offsets into into, in the order given (into
// must be at least as long as partitions), and returns the job's record,
// which the caller keeps for its later writes. It is all or nothing — if
// any partition is leased to a different incarnation, start takes none,
// leaves into alone, records one duplication violation and fails. Leases
// owner already holds are kept.
func (s *CheckpointStore) start(job string, partitions []int, owner Incarnation, into []int64) (*jobCheckpoint, error) {
	into = into[:len(partitions)]
	if owner == (Incarnation{}) {
		return nil, fmt.Errorf("engine: job %s: a lease needs an owner", job)
	}
	for _, p := range partitions {
		if p < 0 {
			return nil, fmt.Errorf("engine: job %s has no partition %d (requested by %s)", job, p, owner.name(job))
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recordLocked(job, partitions)
	for _, p := range partitions {
		if cur := r.owners[p]; cur != (Incarnation{}) && cur != owner {
			s.violations++
			return nil, fmt.Errorf("engine: partition %d of job %s already owned by %s (requested by %s)", p, job, cur.name(job), owner.name(job))
		}
	}
	for i, p := range partitions {
		if r.owners[p] == (Incarnation{}) {
			r.live++
		}
		r.owners[p] = owner
		into[i] = r.offsets[p]
	}
	return r, nil
}

// checkpoint persists one task's progress under a single lock — its one
// write per processing interval. offsets, parallel to partitions, become
// the partitions' checkpointed offsets unless nil (an interval that
// consumed nothing has nothing new to persist). stateBytes, unless
// negative, is recorded as the state size of every listed partition:
// stateful operators write it alongside offsets, and parallelism changes
// move this state between tasks, which is why they are "complex"
// synchronizations. Leases are neither required nor changed. The record
// must hold every listed partition (start grew it to).
func (r *jobCheckpoint) checkpoint(partitions []int, offsets []int64, stateBytes int64) {
	r.store.mu.Lock()
	defer r.store.mu.Unlock()
	if stateBytes >= 0 {
		if need, n := span(partitions), len(r.state); need > n {
			r.state = append(r.state, make([]int64, need-n)...)
		}
	}
	for i, p := range partitions {
		if offsets != nil {
			r.offsets[p] = offsets[i]
		}
		if stateBytes >= 0 {
			r.state[p] = stateBytes
		}
	}
}

// stop ends one task instance under a single lock: it persists offsets
// (parallel to partitions) and gives up every lease owner holds on them.
// A lease owned by someone else (or not held) is left alone: stopping is
// idempotent because a container can be forcefully killed after a
// DROP_SHARD timed out (§IV-A2) and the kill path re-releases.
func (r *jobCheckpoint) stop(partitions []int, owner Incarnation, offsets []int64) {
	r.store.mu.Lock()
	defer r.store.mu.Unlock()
	for i, p := range partitions {
		r.offsets[p] = offsets[i]
		r.release(p, owner)
	}
}

// handoverLocked restarts one task instance in place: it persists offsets
// (parallel to partitions) and moves the lease of every listed partition
// from incarnation from to incarnation to (non-zero), taking any that
// nobody holds. That is what a stop by from and then a start by to would
// leave, but no lease is free or held twice in between. It is all or
// nothing: if the record is retired or a third incarnation holds any of
// the partitions, it changes nothing and returns false, and the caller's
// stop and start record the violation.
func (r *jobCheckpoint) handoverLocked(partitions []int, from, to Incarnation, offsets []int64) bool {
	if r.retired {
		return false
	}
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

// Respec is one in-place restart for Handover: Task, running, is to take
// Spec, a spec of the same job over the same partitions, and Profile.
// Handover sets Done to whether it did.
type Respec struct {
	Task    *Task
	Spec    *TaskSpec
	Profile *Profile
	Done    bool
}

// Handover restarts every task of batch in place: each leaves what Stop,
// then NewTask(Spec, Profile, …) and Start of the successor would — a new
// incarnation under a fresh number, holding every lease of the old one,
// resuming from the offsets the old one checkpointed, with no OOM or
// stats history — and the offsets buffer is kept, since Start would
// reload exactly those offsets into it. The whole batch is one critical
// section of the store: one lock, and one draw of the batch's incarnation
// numbers, handed out in batch order. So no lease is free or held twice at
// any instant, and a Refresh that restarts a release wave's tasks pays one
// lock, not one per task. An entry whose task is not running, is not
// started on this store, or is offered a spec of another job or other
// partitions — or whose record is retired or has a lease a third instance
// holds — leaves its task as it was with Done false: the caller stops and
// starts it instead. It returns how many it restarted. The tasks of a
// batch must be distinct; each task's lock is held for the whole batch.
func (s *CheckpointStore) Handover(batch []Respec) int {
	valid := uint64(0)
	for k := range batch {
		r := &batch[k]
		t := r.Task
		t.mu.Lock()
		r.Done = t.running && t.rec.store == s && r.Spec.Job == t.spec.Job &&
			slices.Equal(r.Spec.Partitions, t.spec.Partitions)
		if r.Done {
			valid++
		}
	}
	seq := instanceSeq.Add(valid) - valid
	n := 0
	s.mu.Lock()
	for k := range batch {
		r := &batch[k]
		if !r.Done {
			continue
		}
		t := r.Task
		seq++
		next := Incarnation{Seq: seq, Index: r.Spec.Index}
		offsets, _ := positions(t.pos)
		if r.Done = t.rec.handoverLocked(r.Spec.Partitions, t.incarnation(), next, offsets); r.Done {
			t.spec, t.seq, t.profile = r.Spec, next.Seq, r.Profile
			t.last, t.oomBackoff, t.oomCount, t.restarts = Stats{}, false, 0, 0
			n++
		}
	}
	s.mu.Unlock()
	for k := range batch {
		batch[k].Task.mu.Unlock()
	}
	return n
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

// DeleteJob removes all checkpoints, state, and leases for job. Its
// record is retired, not reused: a task still holding it cannot write
// into the record a later job of the same name starts.
func (s *CheckpointStore) DeleteJob(job string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.jobs[job]; r != nil {
		r.retired = true
		delete(s.jobs, job)
	}
}
