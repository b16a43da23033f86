// SnapshotIndex: the immutable, versioned form of a task-spec snapshot.
//
// The scheduling read path is O(managers × total-specs) if every Task
// Manager re-derives its task set by scanning the full snapshot and
// re-hashing every task ID each fetch cycle. The index moves all of that
// work to snapshot-generation time, once per regeneration:
//
//   - every task's identity and shard (MD5 of the task ID) are computed
//     once and stored alongside the spec;
//   - specs are bucketed by shard, so a Task Manager's Refresh iterates
//     only the buckets of shards it owns.
//
// Published indexes are immutable, and regeneration is O(changed jobs):
// each job's group precomputes its own shard sub-buckets at build time,
// and the published shard index is a stripe-wise copy-on-write structure
// over a power-of-two-chunked shard space. A regeneration records, per
// changed job and shard it touches, what the job's entries in that
// shard's bucket become; publishing clones only the chunks holding such a
// shard and rebuilds each touched bucket once, in one new array, however
// many jobs changed in it. Every untouched chunk is shared with the
// previous index by pointer, every untouched bucket of a cloned chunk by
// slice, every untouched job's specs by pointer — which is what lets
// consumers tell "unchanged" by identity (SameBucket, the pointer fast
// path of engine.TaskSpec.Equal) before they compare a single field.
// Versions are monotonic and move only when snapshot content changes.
package taskservice

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/shardmanager"
)

// IndexedSpec is one task spec with its derived scheduling state
// precomputed: stable identity and shard. The Spec pointer targets the
// index's internal storage, and so does the JobSpec template it points
// at — callers must treat both as read-only. A value copy (`spec :=
// *is.Spec`) isolates the per-task fields only; a caller that changes a
// job-level field copies the template as well (Specs does both).
// The same holds for a bucket of them (ShardSpecs): a consumer may retain
// the slice across index versions and compare it with SameBucket, and may
// never write through it.
type IndexedSpec struct {
	ID    string
	Shard shardmanager.ShardID
	Spec  *engine.TaskSpec
}

// SameBucket reports whether a and b are one and the same published
// bucket: equal length and the same backing array. It rests on the
// immutability contract of this file — rebuildBucket builds every bucket
// in a fresh array and nothing writes an array once an index holding it
// is published — plus the caller's own reference, which keeps a retained
// bucket's address from being recycled. So same array ⇒ same content,
// and a consumer that reconciled against a can skip b. Conversely, one
// Service's successive indexes rebuild only the buckets that hold a job
// whose specs changed — across journal overflows and Restores too — so a
// bucket no changed job touches keeps its array. A new Service shares no
// array with an old one.
func SameBucket(a, b []IndexedSpec) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// JobRun returns the bounds [lo, hi) of job's entries in a bucket. A
// bucket keeps each job's entries in one run, runs in ascending job-name
// order, so the run starts where a binary search puts the name. The name
// is read off each entry's own ID ("job#index") rather than through its
// Spec pointer: one cache miss less per probe.
func JobRun(bucket []IndexedSpec, job string) (lo, hi int) {
	lo = sort.Search(len(bucket), func(i int) bool { return engine.JobOfTaskID(bucket[i].ID) >= job })
	hi = lo
	for hi < len(bucket) && engine.JobOfTaskID(bucket[hi].ID) == job {
		hi++
	}
	return lo, hi
}

// groupShard is one job's contribution to one shard's bucket: the
// job's specs that hash onto that shard, in task-index order. They are
// the window of the group's indexed array that ends at end and starts
// where the previous groupShard's ends (jobGroup.window).
type groupShard struct {
	shard shardmanager.ShardID
	end   int
}

// jobGroup is the generated spec set of one job, cached between snapshot
// regenerations. A group is immutable once built; rev records the Job
// Store running-entry revision it was built from. spec is the template
// every one of specs points at, so one allocation holds the job-level
// fields of all its tasks. indexed holds the tasks in (shard, task
// index) order, and shards windows it: the group's per-shard sub-buckets
// (sorted by shard), ready to be spliced into the published index.
type jobGroup struct {
	job     string
	rev     int64
	spec    engine.JobSpec
	specs   []engine.TaskSpec // by task index
	indexed []IndexedSpec     // by (shard, task index); Spec pointers target specs
	shards  []groupShard      // windows of indexed, sorted by shard
}

// window returns the specs of g.shards[k]: a capped window of g.indexed,
// so an append through it can never reach the next shard's entries.
func (g *jobGroup) window(k int) []IndexedSpec {
	lo, hi := 0, g.shards[k].end
	if k > 0 {
		lo = g.shards[k-1].end
	}
	return g.indexed[lo:hi:hi]
}

// sameSpecs reports whether g and o hold equal specs in the same order —
// a group rebuilt to what it already was (a commit that rewrote the same
// config under a new revision). Only rebuilt groups ever get here: a
// reused one is the same pointer.
func (g *jobGroup) sameSpecs(o *jobGroup) bool {
	return slices.EqualFunc(g.indexed, o.indexed, func(a, b IndexedSpec) bool { return a.Spec.Equal(b.Spec) })
}

// sortByShard puts a group's indexed specs in (shard, task index) order.
func sortByShard(indexed []IndexedSpec) {
	slices.SortFunc(indexed, func(a, b IndexedSpec) int {
		if c := cmp.Compare(a.Shard, b.Shard); c != 0 {
			return c
		}
		return cmp.Compare(a.Spec.Index, b.Spec.Index)
	})
}

// buildGroupShards lists the shards of a group's indexed specs, already
// in (shard, task index) order, each with the end of its window: the only
// allocation is the list.
func buildGroupShards(indexed []IndexedSpec) []groupShard {
	if len(indexed) == 0 {
		return nil
	}
	n := 1
	for i := 1; i < len(indexed); i++ {
		if indexed[i].Shard != indexed[i-1].Shard {
			n++
		}
	}
	shards := make([]groupShard, 0, n)
	for hi := 1; hi <= len(indexed); hi++ {
		if hi == len(indexed) || indexed[hi].Shard != indexed[hi-1].Shard {
			shards = append(shards, groupShard{shard: indexed[hi-1].Shard, end: hi})
		}
	}
	return shards
}

// The shard space is divided into fixed-width chunks of 2^chunkShift
// shards; the index holds one pointer per chunk. Copy-on-write works at
// chunk granularity: splicing a job whose tasks touch k shards clones at
// most k chunks (a few KB each) plus the chunk-pointer slice, while
// every other chunk is shared with the previous index. 64 shards per
// chunk keeps a chunk clone at ~1.5 KB and the pointer slice at ~12 KB
// for the 100K-shard scale tier.
const (
	chunkShift = 6
	chunkWidth = 1 << chunkShift
)

// shardChunk holds the buckets of one chunk of the shard space. A chunk
// reachable from a published index is immutable.
type shardChunk struct {
	buckets [chunkWidth][]IndexedSpec
}

func numChunks(numShards int) int {
	return (numShards + chunkWidth - 1) / chunkWidth
}

// SnapshotIndex is an immutable, versioned task-spec snapshot with a
// precomputed shard→specs index. All methods are safe for concurrent use
// by any number of Task Managers; nothing a caller can reach through the
// accessors may be mutated.
type SnapshotIndex struct {
	version   int
	numShards int
	groups    []*jobGroup // included groups, sorted by job name
	total     int
	chunks    []*shardChunk // chunked shard space; nil chunk = all buckets empty
}

// Version returns the snapshot version: monotonic, and moved only when
// snapshot content changed relative to the previously published index.
func (idx *SnapshotIndex) Version() int { return idx.version }

// NumShards returns the shard-space size the index was bucketed with. It
// must equal the Shard Manager's shard count for ShardSpecs to be
// meaningful; Task Managers verify this and start nothing on a mismatch.
func (idx *SnapshotIndex) NumShards() int { return idx.numShards }

// Len returns the total number of task specs in the snapshot.
func (idx *SnapshotIndex) Len() int { return idx.total }

// ShardSpecs returns the specs whose tasks hash to the given shard,
// ordered by job name, then task index. The returned slice is shared and
// read-only; it stays valid (and unchanged) for as long as the caller
// holds it, and successive indexes return the identical slice for a shard
// none of whose jobs changed (see SameBucket).
func (idx *SnapshotIndex) ShardSpecs(s shardmanager.ShardID) []IndexedSpec {
	ci := int(s) >> chunkShift
	if ci < 0 || ci >= len(idx.chunks) {
		return nil
	}
	c := idx.chunks[ci]
	if c == nil {
		return nil
	}
	return c.buckets[int(s)&(chunkWidth-1)]
}

// JobShards appends to dst the shards whose buckets hold an entry of job,
// ascending, and returns the extended slice: nothing for a job the
// snapshot does not include (unknown, stopped, quiesced). It is the
// inverse of ShardSpecs for one job — a binary search over the sorted
// groups, then that group's own shard list — so a consumer holding this
// index finds a job's tasks in O(log jobs + shards of the job) instead of
// searching every bucket it holds.
func (idx *SnapshotIndex) JobShards(dst []shardmanager.ShardID, job string) []shardmanager.ShardID {
	i, found := slices.BinarySearchFunc(idx.groups, job, func(g *jobGroup, job string) int {
		return strings.Compare(g.job, job)
	})
	if !found {
		return dst
	}
	for _, gs := range idx.groups[i].shards {
		dst = append(dst, gs.shard)
	}
	return dst
}

// Each calls fn for every spec in the snapshot, in job order and within
// a job in (shard, task index) order, without copying anything. The Task
// Manager reads buckets, never the whole snapshot; this is for audits
// that need every spec once (the frozen benchmark harness is the one
// caller outside tests).
func (idx *SnapshotIndex) Each(fn func(IndexedSpec)) {
	for _, g := range idx.groups {
		for _, is := range g.indexed {
			fn(is)
		}
	}
}

// Specs returns a defensive deep copy of every task spec, in job order,
// then task index: one cloned JobSpec per job, which the copies of its
// tasks share. Callers own the result; mutating it cannot corrupt the
// index or any other caller's view. Hot-path consumers should use
// ShardSpecs instead.
func (idx *SnapshotIndex) Specs() []engine.TaskSpec {
	out := make([]engine.TaskSpec, 0, idx.total)
	for _, g := range idx.groups {
		tmpl := new(engine.JobSpec)
		*tmpl = g.spec
		for i := range g.specs {
			spec := g.specs[i]
			spec.JobSpec = tmpl
			spec.Partitions = append([]int(nil), spec.Partitions...)
			out = append(out, spec)
		}
	}
	return out
}

// indexDraft is the working state of one publish: the chunk-pointer
// slice cloned from the base index, and the bucket edits the
// regeneration has recorded so far. Nothing is rebuilt until publish, so
// a bucket that several changed jobs share is rebuilt once, not once per
// job. A draft is created lazily, on the first content-changing group
// update of a regeneration; if nothing changes, no draft exists and the
// previous index stays published.
type indexDraft struct {
	chunks []*shardChunk
	total  int
	edits  []bucketEdit
}

// bucketEdit says that from this regeneration on, job's entries in
// shard's bucket are exactly repl (nil: none). A regeneration visits each
// job once, so a (shard, job) pair has at most one edit. lo and hi are
// publish's scratch: where job's old run sits in the bucket being
// rebuilt.
type bucketEdit struct {
	shard  shardmanager.ShardID
	job    string
	repl   []IndexedSpec
	lo, hi int
}

// newDraft starts a draft over base (nil base = empty index, e.g. the
// very first publish), with room for editHint edits: the regeneration's
// estimate, so that the edit list is allocated once rather than grown.
func newDraft(base *SnapshotIndex, numShards, editHint int) *indexDraft {
	d := &indexDraft{
		chunks: make([]*shardChunk, numChunks(numShards)),
		edits:  make([]bucketEdit, 0, editHint),
	}
	if base != nil {
		copy(d.chunks, base.chunks)
		d.total = base.total
	}
	return d
}

// applyGroup replaces oldG's contribution to the draft with newG's;
// either may be nil (pure insert / pure remove). It walks the union of
// both groups' sorted shard lists, so the work is proportional to the
// shards the job actually touches.
//
// Callers apply each job at most once per draft, in ascending job-name
// order (regenerateLocked walks its sorted, duplicate-free change set):
// publish relies on it, taking an edit's position in the list as its
// job's rank.
func (d *indexDraft) applyGroup(job string, oldG, newG *jobGroup) {
	var os, ns []groupShard
	if oldG != nil {
		os = oldG.shards
		d.total -= len(oldG.indexed)
	}
	if newG != nil {
		ns = newG.shards
		d.total += len(newG.indexed)
	}
	i, j := 0, 0
	for i < len(os) || j < len(ns) {
		e := bucketEdit{job: job}
		switch {
		case j >= len(ns) || (i < len(os) && os[i].shard < ns[j].shard):
			e.shard = os[i].shard
			i++
		case i >= len(os) || ns[j].shard < os[i].shard:
			e.shard, e.repl = ns[j].shard, newG.window(j)
			j++
		default:
			e.shard, e.repl = ns[j].shard, newG.window(j)
			i++
			j++
		}
		d.edits = append(d.edits, e)
	}
}

// publish applies the recorded edits and freezes the draft into an
// immutable index. The edits are walked in (shard, job) order, which
// makes those of one bucket adjacent and those of one chunk consecutive:
// each touched chunk is privatized (cloned) exactly once and each touched
// bucket rebuilt exactly once. Chunks never touched stay shared with the
// base index by pointer, untouched buckets of a cloned chunk by slice.
//
// The order comes from sorting one integer per edit, shard<<32 | position
// (shard IDs and edit counts are far below 2^32): edits arrived in
// job-name order (see applyGroup), so within a shard position order is
// job order. No edit is moved and no name compared.
func (d *indexDraft) publish(version, numShards int, groups []*jobGroup) *SnapshotIndex {
	order := make([]uint64, len(d.edits))
	for i := range d.edits {
		order[i] = uint64(d.edits[i].shard)<<32 | uint64(i)
	}
	slices.Sort(order)
	owned := -1 // the chunk this walk privatized last
	for lo := 0; lo < len(order); {
		shard := order[lo] >> 32
		hi := lo + 1
		for hi < len(order) && order[hi]>>32 == shard {
			hi++
		}
		ci, li := int(shard)>>chunkShift, int(shard)&(chunkWidth-1)
		if ci != owned {
			nc := &shardChunk{}
			if old := d.chunks[ci]; old != nil {
				*nc = *old
			}
			d.chunks[ci] = nc
			owned = ci
		}
		d.chunks[ci].buckets[li] = rebuildBucket(d.chunks[ci].buckets[li], d.edits, order[lo:hi])
		lo = hi
	}
	return &SnapshotIndex{
		version:   version,
		numShards: numShards,
		groups:    groups,
		total:     d.total,
		chunks:    d.chunks,
	}
}

// rebuildBucket returns bucket b with the entries of every edited job
// replaced by that edit's repl, in one new array — always a new one, so
// that SameBucket tells the old bucket from the result; nil if nothing is
// left, the one representation of an empty bucket. The bucket's edits are
// edits[uint32(k)] for each k of order, in ascending job order, one per
// job. The result keeps the bucket's invariant: entries grouped by job in
// ascending job-name order. b is never modified — it may be shared with a
// published index.
//
// The first pass locates each edited job's run in b (JobRun, searching
// on from the previous one) and sizes the result exactly; the second
// copies the stretches between the runs and the replacements.
func rebuildBucket(b []IndexedSpec, edits []bucketEdit, order []uint64) []IndexedSpec {
	size, from := len(b), 0
	for _, k := range order {
		e := &edits[uint32(k)]
		lo, hi := JobRun(b[from:], e.job)
		e.lo, e.hi = from+lo, from+hi
		size += len(e.repl) - (hi - lo)
		from = e.hi
	}
	if size == 0 {
		return nil
	}
	out := make([]IndexedSpec, 0, size)
	from = 0
	for _, k := range order {
		e := &edits[uint32(k)]
		out = append(append(out, b[from:e.lo]...), e.repl...)
		from = e.hi
	}
	return append(out, b[from:]...)
}
