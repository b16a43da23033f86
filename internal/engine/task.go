package engine

import (
	"fmt"
	"strconv"
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

// instanceSeq distinguishes instances of the same task identity: the
// duplicate-instance invariant (§IV) is about two live *processes* for one
// task, so ownership leases are per-instance, not per-identity.
var instanceSeq atomic.Uint64

// Task is one simulated stream processing task: the unit Turbine
// schedules, moves, restarts, and scales. Drive it with Advance.
type Task struct {
	spec     *TaskSpec // shared with whoever published it; never written
	instance string    // unique per Task object: "<job>#<index>@<seq>"
	profile  *Profile
	bus      *scribe.Bus
	ckpt     *CheckpointStore

	mu      sync.Mutex
	running bool
	// oomBackoff skips processing for one interval after an OOM kill,
	// modelling the restart cost.
	oomBackoff bool
	// offsets and ends run parallel to spec.Partitions and share one
	// allocation, made by the first Start (both nil before it). offsets
	// is the task's read position; ends is Advance's scratch for the
	// bus snapshot, kept here so a steady-state Advance allocates
	// nothing at any partition count.
	offsets  []int64
	ends     []int64
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
	var name [64]byte // most instance names fit and cost the one string
	b := append(name[:0], spec.Job...)
	b = strconv.AppendInt(append(b, '#'), int64(spec.Index), 10)
	b = strconv.AppendUint(append(b, '@'), instanceSeq.Add(1), 10)
	return &Task{
		spec:     spec,
		instance: string(b),
		profile:  profile,
		bus:      bus,
		ckpt:     ckpt,
	}
}

// Instance returns the unique identity of this task instance.
func (t *Task) Instance() string { return t.instance }

// Spec returns the spec the task was started from. It is the publisher's
// own spec, shared and read-only; a value copy of it would still share
// its JobSpec template.
func (t *Task) Spec() *TaskSpec { return t.spec }

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
	offsets, ends := t.offsets, t.ends
	if offsets == nil {
		offsets, ends = newOffsetsAndEnds(len(t.spec.Partitions))
	}
	if err := t.ckpt.Start(t.spec.Job, t.spec.Partitions, t.instance, offsets); err != nil {
		return fmt.Errorf("start %s: %w", t.spec.ID(), err)
	}
	// Kept only now: until a Start succeeds, Backlog reads the checkpoint.
	t.offsets, t.ends = offsets, ends
	t.running = true
	return nil
}

// newOffsetsAndEnds cuts a task's two per-partition arrays out of one
// allocation.
func newOffsetsAndEnds(n int) (offsets, ends []int64) {
	buf := make([]int64, 2*n)
	return buf[:n:n], buf[n:]
}

// Stop checkpoints final offsets, releases all leases, and halts
// processing. Stop is idempotent.
func (t *Task) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.running {
		return
	}
	t.ckpt.Stop(t.spec.Job, t.spec.Partitions, t.instance, t.offsets)
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
	t.ckpt.ForceReleaseTask(t.spec.Job, t.instance)
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
	offsets, ends := t.offsets, t.ends
	if offsets == nil {
		// Never started: what a first Start would resume from.
		offsets, ends = newOffsetsAndEnds(len(t.spec.Partitions))
		for i, p := range t.spec.Partitions {
			offsets[i] = t.ckpt.Offset(t.spec.Job, p)
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

// MaxRate returns the task's maximum stable processing rate in
// bytes/second: P · min(threads, allocated cores). A zero CPU allocation
// means no cgroup CPU cap.
func (t *Task) MaxRate() float64 {
	eff := float64(t.spec.Threads)
	if t.spec.Resources.CPUCores > 0 && t.spec.Resources.CPUCores < eff {
		eff = t.spec.Resources.CPUCores
	}
	return t.profile.PerThreadRate * eff
}

// Advance processes up to dt of simulated time: it drains owned partitions
// at up to MaxRate, writes output, checkpoints offsets, updates memory
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
	parts, offsets, ends := t.spec.Partitions, t.offsets, t.ends
	t.bus.Ends(t.spec.InputCategory, parts, ends)
	capacity := int64(t.MaxRate() * secs)
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
		t.ckpt.Checkpoint(t.spec.Job, parts, persist, statePerPart)
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
