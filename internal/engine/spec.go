// Package engine models the stream processing engine whose tasks Turbine
// manages (paper §II).
//
// A Turbine job runs N tasks of the same binary in parallel; each task
// reads a disjoint subset of the input Scribe partitions, maintains its own
// state and checkpoints, and writes to an output category. This package
// provides:
//
//   - JobSpec and TaskSpec: everything needed to run one task (the Task
//     Service generates these from job configurations, §IV) — a JobSpec
//     template the tasks of one job share, and per task its index,
//     partitions and checkpoint directory — compared by value (Equal) to
//     decide whether a running task must restart;
//   - Task: a simulated task runtime driven by Advance(dt), with a
//     calibrated processing-rate and memory model, OOM behaviour, and
//     checkpoint persistence — per interval one snapshot of its
//     partitions' end offsets from the bus and one write to the
//     checkpoint store, whatever the partition count;
//   - CheckpointStore: durable per-(job,partition) offsets plus ownership
//     leases, one dense record per job, which make the paper's "no two
//     active instances of the same task" invariant (§IV) directly
//     testable — a second acquisition of a live lease is a recorded
//     violation.
//
// The rate model is intentionally simple and matches the paper's estimator
// assumptions (§V-B): a task with k threads and a per-thread maximum
// stable processing rate P drains at most P·min(k, allocatedCores) bytes
// per second. CPU usage is proportional to throughput; memory follows the
// operator type (tailers buffer a few seconds of messages, aggregations
// hold their key set, joins hold their window).
package engine

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/config"
)

// JobSpec is the part of a task spec every task of one job shares: the
// template the Task Service fills in once per job (paper §IV) and every
// TaskSpec of the job points at. Like the specs that point at it, a
// published template is immutable.
type JobSpec struct {
	Job            string                   `json:"job"`
	TaskCount      int                      `json:"taskCount"`
	PackageName    string                   `json:"packageName"`
	PackageVersion string                   `json:"packageVersion"`
	Threads        int                      `json:"threads"`
	Operator       config.Operator          `json:"operator"`
	InputCategory  string                   `json:"inputCategory"`
	OutputCategory string                   `json:"outputCategory,omitempty"`
	Resources      config.Resources         `json:"resources"`
	Enforcement    config.MemoryEnforcement `json:"enforcement,omitempty"`
	Priority       int                      `json:"priority,omitempty"`
}

// TaskSpec includes all configuration necessary to run a task, such as
// package version, arguments, and number of threads (paper §IV): its
// job's shared template plus the three fields that differ per task.
// Embedding the template pointer keeps every job-level field a selector
// of the spec (spec.PackageVersion) and in its JSON form. Specs are value
// objects, compared with Equal. A spec published in a Task Service
// snapshot is immutable and shared by pointer — between index versions
// and with every task started from it — and so is its template: a value
// copy of a spec still shares the template, so a consumer that changes a
// job-level field copies the JobSpec too.
type TaskSpec struct {
	*JobSpec
	Index         int    `json:"index"`      // 0-based within job
	Partitions    []int  `json:"partitions"` // owned input partitions
	CheckpointDir string `json:"checkpointDir,omitempty"`
}

// ID returns the stable task identity "job#index". Identity survives spec
// changes (e.g. a package bump), which is what lets the MD5 shard mapping
// keep a task on its shard across updates.
func (s *TaskSpec) ID() string { return TaskID(s.Job, s.Index) }

// TaskID formats the stable identity of task index of the named job. It is
// called for every task on every refresh and shard lookup, so it avoids
// fmt's reflection path.
func TaskID(job string, index int) string { return job + "#" + strconv.Itoa(index) }

// JobOfTaskID recovers the job name from an identity TaskID built; an ID
// without the separator is returned whole.
func JobOfTaskID(id string) string {
	if i := strings.LastIndexByte(id, '#'); i >= 0 {
		return id[:i]
	}
	return id
}

// Equal reports whether s and o describe the same task, field for field;
// it is what decides that a running task keeps going across a snapshot
// refresh rather than restarting. Specs the index carried over from its
// previous version are the same object, so most calls return on the
// pointer, and the tasks of one group build share one template, so most
// of the rest compare it by pointer too. Nil and empty Partitions are
// equal, strings compare as bytes, and a NaN resource would equal
// nothing, itself included — config.JobConfig.Validate keeps non-finite
// resources out of the system.
func (s *TaskSpec) Equal(o *TaskSpec) bool {
	if s == o {
		return true
	}
	return s.Index == o.Index &&
		s.CheckpointDir == o.CheckpointDir &&
		slices.Equal(s.Partitions, o.Partitions) &&
		(s.JobSpec == o.JobSpec || *s.JobSpec == *o.JobSpec)
}

// AssignPartitions splits partition indices [0,total) into taskCount
// contiguous, disjoint, exhaustive ranges and returns the range of task
// index. Lower-indexed tasks receive the remainder partitions, so range
// sizes differ by at most one.
func AssignPartitions(total, taskCount, index int) []int {
	if total <= 0 || taskCount <= 0 || index < 0 || index >= taskCount {
		return nil
	}
	base := total / taskCount
	rem := total % taskCount
	start := index*base + min(index, rem)
	size := base
	if index < rem {
		size++
	}
	out := make([]int, 0, size)
	for p := start; p < start+size; p++ {
		out = append(out, p)
	}
	return out
}

// ValidatePartitionAssignment checks that the per-task partition sets for
// one job are disjoint and exhaustive over [0,total).
func ValidatePartitionAssignment(total int, perTask [][]int) error {
	seen := make(map[int]int, total) // partition -> owning task index
	for i, parts := range perTask {
		for _, p := range parts {
			if p < 0 || p >= total {
				return fmt.Errorf("engine: task %d owns out-of-range partition %d (total %d)", i, p, total)
			}
			if prev, dup := seen[p]; dup {
				return fmt.Errorf("engine: partition %d owned by both task %d and task %d", p, prev, i)
			}
			seen[p] = i
		}
	}
	if len(seen) != total {
		missing := make([]int, 0)
		for p := 0; p < total; p++ {
			if _, ok := seen[p]; !ok {
				missing = append(missing, p)
			}
		}
		sort.Ints(missing)
		return fmt.Errorf("engine: partitions %v unowned", missing)
	}
	return nil
}
