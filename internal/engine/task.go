package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/scribe"
)

// Stats is one task's observable behaviour over an Advance interval. Task
// Managers post these to the metric system; the Auto Scaler and load
// balancer see nothing else.
type Stats struct {
	// ProcessedBytes consumed from input this interval.
	ProcessedBytes int64
	// Rate is ProcessedBytes normalized to bytes/second.
	Rate float64
	// CPUCores actually used (≈ rate / P per the linear CPU model, §VI).
	CPUCores float64
	// MemoryBytes in use at the end of the interval.
	MemoryBytes int64
	// DiskBytes in use (joins spill their window; others negligible).
	DiskBytes int64
	// NetworkBps consumed: input read rate plus output write rate.
	NetworkBps int64
	// BacklogBytes still unread across the task's partitions.
	BacklogBytes int64
	// OOMKilled reports the task was killed for exceeding its memory
	// limit during this interval (and restarted).
	OOMKilled bool
}

// instanceSeq numbers the incarnations of every task in the process: the
// duplicate-instance invariant (§IV) is about two live *processes* for one
// task, so ownership leases are per-incarnation, not per-identity. The
// first number it hands out is 1; 0 is no incarnation.
var instanceSeq atomic.Uint64

// Task is one simulated stream processing task: the unit Turbine
// schedules, moves, restarts, and scales. Drive it with Advance.
type Task struct {
	bus *scribe.Bus
	// rec is the task's job's checkpoint record, as its last Start
	// returned it (the store's detached record before the first): its
	// checkpoints, Stop and in-place restarts write through it with no
	// lookup by name, and rec.store is the checkpoint store.
	rec *jobCheckpoint

	mu sync.Mutex
	// spec, seq and profile are the current incarnation's: NewTask sets
	// them and CheckpointStore.Handover replaces all three. spec is shared
	// with whoever published it and never written; seq, from instanceSeq,
	// is unique per incarnation, and with spec.Index it is the Incarnation
	// that owns the task's leases. Its name, "<job>#<index>@<seq>", is formatted
	// only by Instance.
	spec    *TaskSpec
	seq     uint64
	profile *Profile
	running bool
	// oomBackoff skips processing for one interval after an OOM kill,
	// modelling the restart cost.
	oomBackoff bool
	// pos is two arrays parallel to spec.Partitions, back to back in one
	// allocation made by the first Start (nil before it): the task's read
	// offsets, then Advance's scratch for the bus snapshot of end
	// offsets, kept here so a steady-state Advance allocates nothing at
	// any partition count. positions splits it.
	pos      []int64
	last     Stats
	oomCount int
	restarts int
}

// NewTask builds a task from its spec, which it keeps by reference: the
// spec must not change afterwards (the Task Service's index publishes
// immutable specs, and a fleet of tasks holding copies was the largest
// per-task heap term). The profile is the true behaviour of the binary
// (shared by all tasks of a job); bus and ckpt are the Scribe bus and
// checkpoint store it reads, writes, and recovers through.
func NewTask(spec *TaskSpec, profile *Profile, bus *scribe.Bus, ckpt *CheckpointStore) *Task {
	return &Task{
		spec:    spec,
		seq:     instanceSeq.Add(1),
		profile: profile,
		bus:     bus,
		rec:     &ckpt.detached,
	}
}

// incarnation returns the lease owner the current incarnation is.
func (t *Task) incarnation() Incarnation {
	return Incarnation{Seq: t.seq, Index: t.spec.Index}
}

// Instance returns the name of the task's current incarnation,
// "<job>#<index>@<seq>", unique in the process.
func (t *Task) Instance() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.incarnation().name(t.spec.Job)
}

// Spec returns the spec the current incarnation was started from. It is
// the publisher's own spec, shared and read-only; a value copy of it would
// still share its JobSpec template.
func (t *Task) Spec() *TaskSpec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spec
}

// Start acquires the ownership lease for every owned partition, restores
// checkpointed offsets, and begins processing. If any lease is held by
// another live task, Start takes none and fails — this is the mechanism
// that prevents two active instances of the same task (§IV).
func (t *Task) Start() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.running {
		return nil
	}
	pos := t.pos
	if pos == nil {
		pos = make([]int64, 2*len(t.spec.Partitions))
	}
	offsets, _ := positions(pos)
	rec, err := t.rec.store.start(t.spec.Job, t.spec.Partitions, t.incarnation(), offsets)
	if err != nil {
		return fmt.Errorf("start %s: %w", t.spec.ID(), err)
	}
	// Kept only now: until a Start succeeds, Backlog reads the checkpoint.
	t.pos, t.rec = pos, rec
	t.running = true
	return nil
}

// positions splits a task's pos into its read offsets and the scratch
// for end offsets.
func positions(pos []int64) (offsets, ends []int64) {
	n := len(pos) / 2
	return pos[:n:n], pos[n:]
}

// Stop checkpoints final offsets, releases all leases, and halts
// processing. Stop is idempotent.
func (t *Task) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.running {
		return
	}
	offsets, _ := positions(t.pos)
	t.rec.stop(t.spec.Partitions, t.incarnation(), offsets)
	t.running = false
}

// Kill releases leases without a clean checkpoint of in-flight work; used
// when a container dies or a DROP_SHARD times out and Turbine forcefully
// kills the task (§IV-A2). Offsets persisted by earlier Advances remain,
// so recovery loses no data — it re-reads from the last checkpoint.
func (t *Task) Kill() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.running {
		return
	}
	t.rec.store.ForceReleaseTask(t.spec.Job, t.incarnation())
	t.running = false
}

// Running reports whether the task is processing.
func (t *Task) Running() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.running
}

// OOMCount returns how many times the task was OOM-killed since creation.
func (t *Task) OOMCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.oomCount
}

// Restarts returns how many OOM restarts the task performed.
func (t *Task) Restarts() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.restarts
}

// LastStats returns the stats from the most recent Advance.
func (t *Task) LastStats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last
}

// Backlog returns unread bytes across the task's partitions at its current
// offsets (checkpointed offsets when stopped).
func (t *Task) Backlog() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.backlogLocked()
}

// backlogLocked takes a fresh bus snapshot and sums the lag behind it.
func (t *Task) backlogLocked() int64 {
	offsets, ends := positions(t.pos)
	if t.pos == nil {
		// Never started: what a first Start would resume from.
		offsets, ends = positions(make([]int64, 2*len(t.spec.Partitions)))
		for i, p := range t.spec.Partitions {
			offsets[i] = t.rec.store.Offset(t.spec.Job, p)
		}
	}
	t.bus.Ends(t.spec.InputCategory, t.spec.Partitions, ends)
	return lag(ends, offsets)
}

// lag sums the unread bytes of readers at offsets behind the end offsets
// ends: end − offset per partition, floored at zero (a reader ahead of
// the log has no backlog).
func lag(ends, offsets []int64) int64 {
	var total int64
	for i, end := range ends {
		if b := end - offsets[i]; b > 0 {
			total += b
		}
	}
	return total
}

// maxRateLocked returns the task's maximum stable processing rate in
// bytes/second: P · min(threads, allocated cores). A zero CPU allocation
// means no cgroup CPU cap.
func (t *Task) maxRateLocked() float64 {
	eff := float64(t.spec.Threads)
	if t.spec.Resources.CPUCores > 0 && t.spec.Resources.CPUCores < eff {
		eff = t.spec.Resources.CPUCores
	}
	return t.profile.PerThreadRate * eff
}

// Advance processes up to dt of simulated time: it drains owned partitions
// at up to maxRateLocked, writes output, checkpoints offsets, updates memory
// usage, and OOM-kills itself if the memory limit is exceeded under
// enforcement. It returns the interval's stats.
func (t *Task) Advance(dt time.Duration) Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	secs := dt.Seconds()
	if !t.running || secs <= 0 {
		t.last = Stats{BacklogBytes: t.backlogLocked()}
		return t.last
	}
	if t.oomBackoff {
		// Restart interval after an OOM kill: no processing.
		t.oomBackoff = false
		t.restarts++
		t.last = Stats{BacklogBytes: t.backlogLocked(), MemoryBytes: t.profile.BaseMemoryBytes}
		return t.last
	}

	// One bus read for the whole interval: everything below — backlogs,
	// quotas, new offsets, the backlog left over — is arithmetic on this
	// snapshot of the partitions' end offsets.
	parts := t.spec.Partitions
	offsets, ends := positions(t.pos)
	t.bus.Ends(t.spec.InputCategory, parts, ends)
	capacity := int64(t.maxRateLocked() * secs)
	totalBacklog := lag(ends, offsets)
	var consumed int64
	drained := totalBacklog > 0 && capacity > 0
	if drained {
		// Proportional drain: budget each partition by its share of backlog
		// so a hot partition doesn't starve the others.
		toConsume := min(capacity, totalBacklog)
		remaining := toConsume
		for i := range parts {
			backlog := max(ends[i]-offsets[i], 0)
			var quota int64
			if i == len(parts)-1 {
				quota = remaining // last partition absorbs rounding
			} else {
				quota = int64(float64(toConsume) * float64(backlog) / float64(totalBacklog))
			}
			n := min(quota, remaining, backlog)
			offsets[i] += n
			consumed += n
			remaining -= n
		}
	}

	rate := float64(consumed) / secs
	cpu := rate / t.profile.PerThreadRate
	mem := t.profile.MemoryAt(rate)
	disk := t.profile.DiskAt(rate)
	network := int64(rate * (1 + t.profile.OutputRatio))

	if t.spec.OutputCategory != "" && t.profile.OutputRatio > 0 && consumed > 0 {
		out := int64(float64(consumed) * t.profile.OutputRatio)
		nOut := t.bus.Partitions(t.spec.OutputCategory)
		if nOut > 0 {
			// Deterministic spread: write to the partition matching the
			// task index.
			_ = t.bus.Append(t.spec.OutputCategory, t.spec.Index%nOut, out, 0)
		}
	}

	// One checkpoint write for the whole interval: the offsets if anything
	// was drained and, for stateful tasks, their working set (key tables,
	// join windows) split across owned partitions — the State Syncer costs
	// redistribution from these sizes.
	statePerPart := int64(-1)
	if t.spec.Operator.Stateful() && len(parts) > 0 {
		if working := mem - t.profile.BaseMemoryBytes; working > 0 {
			statePerPart = working / int64(len(parts))
		}
	}
	var persist []int64 // nil: nothing drained, the checkpointed offsets stand
	if drained {
		persist = offsets
	}
	if drained || statePerPart >= 0 {
		t.rec.checkpoint(parts, persist, statePerPart)
	}

	st := Stats{
		ProcessedBytes: consumed,
		Rate:           rate,
		CPUCores:       cpu,
		MemoryBytes:    mem,
		DiskBytes:      disk,
		NetworkBps:     network,
		BacklogBytes:   lag(ends, offsets),
	}

	limit := t.spec.Resources.MemoryBytes
	if limit > 0 && mem > limit && t.spec.Enforcement != config.EnforceNone && t.spec.Enforcement != "" {
		// cgroup/JVM enforcement kills the task; stats are preserved and
		// posted so the Auto Scaler sees the OOM (§V-A).
		st.OOMKilled = true
		t.oomCount++
		t.oomBackoff = true
	}

	t.last = st
	return st
}
