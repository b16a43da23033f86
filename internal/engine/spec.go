// Package engine models the stream processing engine whose tasks Turbine
// manages (paper §II).
//
// A Turbine job runs N tasks of the same binary in parallel; each task
// reads a disjoint subset of the input Scribe partitions, maintains its own
// state and checkpoints, and writes to an output category. This package
// provides:
//
//   - TaskSpec: everything needed to run one task (the Task Service
//     generates these from job configurations, §IV), compared by value
//     (Equal) to decide whether a running task must restart;
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

// TaskSpec includes all configuration necessary to run a task, such as
// package version, arguments, and number of threads (paper §IV). Specs are
// value objects, compared with Equal. A spec published in a Task Service
// snapshot is immutable and shared by pointer — between index versions and
// with every task started from it — so consumers copy before changing one.
type TaskSpec struct {
	Job            string                   `json:"job"`
	Index          int                      `json:"index"` // 0-based within job
	TaskCount      int                      `json:"taskCount"`
	PackageName    string                   `json:"packageName"`
	PackageVersion string                   `json:"packageVersion"`
	Threads        int                      `json:"threads"`
	Operator       config.Operator          `json:"operator"`
	InputCategory  string                   `json:"inputCategory"`
	Partitions     []int                    `json:"partitions"` // owned input partitions
	OutputCategory string                   `json:"outputCategory,omitempty"`
	Resources      config.Resources         `json:"resources"`
	Enforcement    config.MemoryEnforcement `json:"enforcement,omitempty"`
	CheckpointDir  string                   `json:"checkpointDir,omitempty"`
	Priority       int                      `json:"priority,omitempty"`
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
// pointer. Nil and empty Partitions are equal, strings compare as bytes,
// and a NaN resource would equal nothing, itself included —
// config.JobConfig.Validate keeps non-finite resources out of the system.
func (s *TaskSpec) Equal(o *TaskSpec) bool {
	if s == o {
		return true
	}
	return s.Job == o.Job &&
		s.Index == o.Index &&
		s.TaskCount == o.TaskCount &&
		s.PackageName == o.PackageName &&
		s.PackageVersion == o.PackageVersion &&
		s.Threads == o.Threads &&
		s.Operator == o.Operator &&
		s.InputCategory == o.InputCategory &&
		slices.Equal(s.Partitions, o.Partitions) &&
		s.OutputCategory == o.OutputCategory &&
		s.Resources == o.Resources &&
		s.Enforcement == o.Enforcement &&
		s.CheckpointDir == o.CheckpointDir &&
		s.Priority == o.Priority
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
