// Package engine models the stream processing engine whose tasks Turbine
// manages (paper §II).
//
// A Turbine job runs N tasks of the same binary in parallel; each task
// reads a disjoint subset of the input Scribe partitions, maintains its own
// state and checkpoints, and writes to an output category. This package
// provides:
//
//   - TaskSpec: everything needed to run one task (the Task Service
//     generates these from job configurations, §IV);
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
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/config"
)

// TaskSpec includes all configuration necessary to run a task, such as
// package version, arguments, and number of threads (paper §IV). Specs are
// value objects: two specs are the same iff their hashes are equal. Specs
// must not be mutated after their first Hash() call — the hash is memoized
// on the spec (and travels with copies), which is what keeps the Task
// Service's snapshot read path from re-marshaling every spec on every
// touch.
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

	// memoHash caches the content hash after the first Hash() call.
	// Unexported, so it is invisible to json.Marshal and cannot perturb
	// the hash itself.
	memoHash string
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

// hashComputations counts actual (non-memoized) hash computations; tests
// and benchmarks use it to verify the at-most-once-per-spec guarantee.
var hashComputations atomic.Int64

// HashComputations returns the process-wide count of TaskSpec hash
// computations that actually marshaled and digested a spec (memoized reads
// excluded). Intended for tests and benchmarks.
func HashComputations() int64 { return hashComputations.Load() }

// Hash returns a content hash of the full spec; Task Managers use it to
// detect that a task's configuration changed and it must be restarted. It
// is the hex MD5 of the spec's encoding/json form (see appendJSON).
//
// The result is memoized on the spec: the encode + MD5 runs once, on the
// first call, and every later call (including on copies of the spec)
// returns the stored digest. The Task Service hashes every spec at
// snapshot-generation time, so published snapshots are read-only with
// respect to this memo and concurrent readers never write it.
func (s *TaskSpec) Hash() string {
	if s.memoHash != "" {
		return s.memoHash
	}
	bp := preimagePool.Get().(*[]byte)
	*bp = s.appendJSON((*bp)[:0])
	sum := md5.Sum(*bp)
	preimagePool.Put(bp)
	hashComputations.Add(1)
	var digest [2 * md5.Size]byte
	hex.Encode(digest[:], sum[:])
	s.memoHash = string(digest[:])
	return s.memoHash
}

// preimagePool recycles the buffers Hash encodes into.
var preimagePool = sync.Pool{New: func() any { return new([]byte) }}

// appendJSON appends exactly the bytes json.Marshal(s) produces — field
// order, omitempty and number formats as the struct tags and
// encoding/json define them — without reflection. The bytes are the hash
// pre-image, so they may never change: FuzzSpecHashPreimage compares them
// with json.Marshal and TestTaskIDAndHash pins one digest.
func (s *TaskSpec) appendJSON(b []byte) []byte {
	b = appendJSONString(append(b, `{"job":`...), s.Job)
	b = strconv.AppendInt(append(b, `,"index":`...), int64(s.Index), 10)
	b = strconv.AppendInt(append(b, `,"taskCount":`...), int64(s.TaskCount), 10)
	b = appendJSONString(append(b, `,"packageName":`...), s.PackageName)
	b = appendJSONString(append(b, `,"packageVersion":`...), s.PackageVersion)
	b = strconv.AppendInt(append(b, `,"threads":`...), int64(s.Threads), 10)
	b = appendJSONString(append(b, `,"operator":`...), string(s.Operator))
	b = appendJSONString(append(b, `,"inputCategory":`...), s.InputCategory)
	b = append(b, `,"partitions":`...)
	if s.Partitions == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range s.Partitions {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(p), 10)
		}
		b = append(b, ']')
	}
	if s.OutputCategory != "" {
		b = appendJSONString(append(b, `,"outputCategory":`...), s.OutputCategory)
	}
	// Each present resource is written with a trailing comma; the last one
	// is taken back before the brace.
	b = append(b, `,"resources":{`...)
	open := len(b)
	if r := s.Resources.CPUCores; r != 0 {
		b = append(appendJSONFloat(append(b, `"cpuCores":`...), r), ',')
	}
	if n := s.Resources.MemoryBytes; n != 0 {
		b = append(strconv.AppendInt(append(b, `"memoryBytes":`...), n, 10), ',')
	}
	if n := s.Resources.DiskBytes; n != 0 {
		b = append(strconv.AppendInt(append(b, `"diskBytes":`...), n, 10), ',')
	}
	if n := s.Resources.NetworkBps; n != 0 {
		b = append(strconv.AppendInt(append(b, `"networkBps":`...), n, 10), ',')
	}
	if len(b) > open {
		b = b[:len(b)-1]
	}
	b = append(b, '}')
	if s.Enforcement != "" {
		b = appendJSONString(append(b, `,"enforcement":`...), string(s.Enforcement))
	}
	if s.CheckpointDir != "" {
		b = appendJSONString(append(b, `,"checkpointDir":`...), s.CheckpointDir)
	}
	if s.Priority != 0 {
		b = strconv.AppendInt(append(b, `,"priority":`...), int64(s.Priority), 10)
	}
	return append(b, '}')
}

// appendJSONString appends s as encoding/json quotes it. Printable ASCII
// apart from the characters json.Marshal escapes (quote, backslash and
// the HTML-sensitive < > &) is copied as it stands; a string holding
// anything else — control bytes, non-ASCII, invalid UTF-8 — is rare in a
// spec and goes through json.Marshal itself, so its escaping rules are
// not restated here.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f in encoding/json's float64 format: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 with a
// one-digit exponent written as e-9, not e-09. JSON has no NaN or
// infinity; a spec carrying one cannot be hashed and panics, as
// json.Marshal's error did.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic(fmt.Sprintf("engine: marshal task spec: unsupported float value %v", f))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
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
