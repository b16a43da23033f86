// Package taskservice implements Turbine's Task Service (paper §IV): the
// read path that converts running job configurations into individual task
// specs.
//
// The Task Service retrieves the list of jobs from the Job Store and
// dynamically generates task specs considering each job's parallelism
// level and applying template substitutions. Every local Task Manager
// periodically fetches the *full* snapshot of task specs — keeping the
// full list is what lets Task Managers perform load balancing and
// fail-over even when the Task Service or the Job Management layer is
// unavailable or degraded (§IV-D).
//
// Snapshots are cached for a TTL (90 seconds in production and here);
// combined with the State Syncer's 30-second rounds and the Task Managers'
// 60-second fetches this yields the paper's 1–2 minute end-to-end
// scheduling latency for cluster-wide updates.
//
// Snapshots are published as immutable SnapshotIndex values through an
// atomic pointer, so a fetch NEVER blocks behind an in-flight
// regeneration: readers get the last published snapshot immediately
// (stale-but-available, the same degraded-mode stance §IV-D takes for
// Task Managers), and exactly one regeneration runs at a time behind a
// separate mutex.
//
// Regeneration itself is O(changed jobs), not O(fleet): the service
// holds a cursor into the Job Store's running-entry change journal and
// visits only the jobs the journal names (plus quiesce toggles),
// recording each content change as edits of the previous index's
// copy-on-write shard chunks that the publish applies bucket by bucket
// (see index.go). If the cursor falls off the journal's bounded ring (or
// the store was Restored), the change set is simply bigger — every
// running job and every cached group — and goes through the same splice:
// a job whose running-entry revision is unchanged keeps its group, and a
// bucket whose content is unchanged keeps its array. A remote Task
// Service runs the same Service over a FeedClient's replica of the
// running table instead of the Job Store (see feed.go).
package taskservice

import (
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/jobstore"
	"repro/internal/shardmanager"
	"repro/internal/simclock"
	"repro/internal/workpool"
)

// runningTable is what a Service reads: the running configurations by
// name, their revisions, and which names changed since a cursor. The
// primary Job Store is one (storeTable); a FeedClient's replica of it is
// the other.
type runningTable interface {
	runningIndex
	// runningConfig returns a job's running configuration, nil if it is
	// not running or its document is not a JobConfig. The result is shared
	// and must not be modified.
	runningConfig(name string) *config.JobConfig
}

// runningIndex is the part of a running table the Job Store serves as it
// is.
type runningIndex interface {
	// ChangesSince appends the changes after cursor to buf and returns the
	// cursor to pass next; ok=false means the cursor fell off the record
	// of changes, and every running job must be treated as changed.
	ChangesSince(cursor uint64, buf []jobstore.Change) (changes []jobstore.Change, next uint64, ok bool)
	// RunningNames lists the running jobs, sorted.
	RunningNames() []string
	// RunningRevision returns the revision of a job's running entry, which
	// changes on every commit of it.
	RunningRevision(name string) (int64, bool)
}

// storeTable reads the running table of the primary Job Store, decoding
// a job's running document when its group is rebuilt.
type storeTable struct{ *jobstore.Store }

func (t storeTable) runningConfig(name string) *config.JobConfig {
	// Shared read: JobConfigFromDoc only decodes, so the running doc
	// needs no defensive copy — at refresh scale the clones dominated.
	r, ok := t.GetRunningShared(name)
	if !ok {
		return nil
	}
	cfg, err := config.JobConfigFromDoc(r.Config)
	if err != nil {
		return nil
	}
	return cfg
}

// Service generates and caches task-spec snapshots.
type Service struct {
	table     runningTable
	clock     simclock.Clock
	ttl       time.Duration
	numShards int

	// pub is the published snapshot: readers load it with one atomic
	// read. Invalidation (Quiesce, Invalidate, operator nudges) replaces
	// it with a valid=false copy so the next fetch regenerates, but the
	// stale index stays reachable for readers arriving mid-regeneration.
	pub atomic.Pointer[publishedSnap]

	// regenMu serializes regeneration and guards every field below. It
	// is never held on the reader fast path.
	regenMu        sync.Mutex
	groups         map[string]*jobGroup // per-job cache, keyed by job name; persistent across rounds
	included       []*jobGroup          // groups currently in the snapshot, sorted by job name
	includedShared bool                 // included is referenced by the published index (copy before write)
	cursor         uint64               // position in the running table's changes
	changeBuf      []jobstore.Change    // reused ChangesSince buffer
	touched        []string             // reused: this regeneration's job names, sorted, unique
	genCount       int
	version        int
	quiesced       map[string]struct{}
	quiesceDirty   map[string]struct{} // quiesce flags toggled since the last regeneration

	// Parallel group-rebuild machinery (guarded by regenMu): changed
	// jobs' spec groups are generated on a persistent worker pool before
	// the sequential splice pass, which then hits a warm cache. The
	// scratch slices and the pre-bound worker closure are reused across
	// regenerations, like the State Syncer's round scratch.
	wp           *workpool.Pool
	rebuildPar   int
	rebuildNames []string
	rebuildRevs  []int64
	rebuilt      []*jobGroup
	buildFn      func(int)
}

// publishedSnap bundles the published index with its cache metadata so
// readers can check freshness with a single atomic load.
type publishedSnap struct {
	idx   *SnapshotIndex
	at    time.Time
	valid bool
}

// New returns a Service over store. ttl is the snapshot cache lifetime; a
// non-positive ttl defaults to the production 90 seconds. numShards is
// the Shard Manager's shard-space size, used to precompute the snapshot's
// shard→specs index; non-positive defaults to the production 1024.
func New(store *jobstore.Store, clock simclock.Clock, ttl time.Duration, numShards int) *Service {
	return newService(storeTable{store}, clock, ttl, numShards)
}

func newService(table runningTable, clock simclock.Clock, ttl time.Duration, numShards int) *Service {
	if ttl <= 0 {
		ttl = 90 * time.Second
	}
	if numShards <= 0 {
		numShards = 1024
	}
	par := runtime.GOMAXPROCS(0)
	if par > 16 {
		par = 16
	}
	s := &Service{
		table:        table,
		clock:        clock,
		ttl:          ttl,
		numShards:    numShards,
		groups:       make(map[string]*jobGroup),
		quiesced:     make(map[string]struct{}),
		quiesceDirty: make(map[string]struct{}),
		rebuildPar:   par,
	}
	s.buildFn = func(i int) {
		s.rebuilt[i] = s.buildGroup(s.rebuildNames[i], s.rebuildRevs[i])
	}
	return s
}

// Quiesce suppresses a job's task specs until Unquiesce: no Task Manager
// will start (or restart) its tasks. The State Syncer quiesces a job
// through the stop/redistribute phases of a complex synchronization, so
// that stale snapshots cannot resurrect old-parallelism tasks while new
// ones are being started — the paper's "only then starts the new tasks"
// ordering (§III-B). The published snapshot is invalidated so the
// suppression is visible to the very next snapshot fetch; the job's
// cached spec group is kept (quiescing splices the group out of the
// index, it does not discard generated specs).
func (s *Service) Quiesce(job string) {
	s.regenMu.Lock()
	defer s.regenMu.Unlock()
	s.quiesced[job] = struct{}{}
	s.quiesceDirty[job] = struct{}{}
	// Invalidate while holding regenMu: no regeneration can publish a
	// fresh-valid snapshot between the flag write and the invalidation.
	s.invalidatePub()
}

// Unquiesce lifts the suppression after the new running configuration has
// been committed.
func (s *Service) Unquiesce(job string) {
	s.regenMu.Lock()
	defer s.regenMu.Unlock()
	delete(s.quiesced, job)
	s.quiesceDirty[job] = struct{}{}
	s.invalidatePub()
}

// Index returns the current snapshot as an immutable SnapshotIndex,
// serving the published index within the TTL and regenerating
// incrementally past it. The index's version changes only when the
// content was regenerated AND differs from the previous snapshot; Task
// Managers use it to skip reconciliation when nothing changed.
//
// Readers never stall behind a regeneration: if another fetch is already
// rebuilding, Index returns the last published snapshot immediately.
// Only the very first fetch (nothing published yet) waits for the build.
func (s *Service) Index() *SnapshotIndex {
	if p := s.pub.Load(); p != nil && p.valid && s.clock.Now().Sub(p.at) < s.ttl {
		return p.idx
	}
	if !s.regenMu.TryLock() {
		// A regeneration is in flight. Serve the last published snapshot
		// rather than queue every Task Manager behind the rebuild; the
		// in-flight publish will be picked up by the next fetch.
		if p := s.pub.Load(); p != nil && p.idx != nil {
			return p.idx
		}
		// Nothing ever published: the first build must be waited out.
		s.regenMu.Lock()
	}
	defer s.regenMu.Unlock()
	now := s.clock.Now()
	if p := s.pub.Load(); p != nil && p.valid && now.Sub(p.at) < s.ttl {
		return p.idx // the regeneration we queued behind already published
	}
	idx := s.regenerateLocked()
	s.pub.Store(&publishedSnap{idx: idx, at: now, valid: true})
	return idx
}

// Snapshot returns the full list of task specs for every running job,
// along with the snapshot version. The returned slice is a defensive deep
// copy owned by the caller: mutating it cannot corrupt the snapshot or any
// other caller's view. Task Managers use the cheaper Index form.
func (s *Service) Snapshot() ([]engine.TaskSpec, int) {
	idx := s.Index()
	return idx.Specs(), idx.Version()
}

// publishedIdx returns the currently published index (stale or not), or
// nil before the first publish.
func (s *Service) publishedIdx() *SnapshotIndex {
	if p := s.pub.Load(); p != nil {
		return p.idx
	}
	return nil
}

// invalidatePub marks the published snapshot stale (keeping it readable)
// so the next fetch regenerates.
func (s *Service) invalidatePub() {
	for {
		p := s.pub.Load()
		if p == nil || !p.valid {
			return
		}
		if s.pub.CompareAndSwap(p, &publishedSnap{idx: p.idx, at: p.at}) {
			return
		}
	}
}

// regenerateLocked publishes the snapshot for everything that changed
// since the last regeneration: the jobs the change journal names — or,
// if the cursor fell off it, every running job and every cached group —
// plus the quiesce toggles. Each of them is visited once, in name order:
// its group is forgotten if the job no longer runs and rebuilt if its
// running-entry revision moved, and a content change of its part of the
// snapshot is recorded in a copy-on-write draft of the previous index.
// If nothing content-changing happened, no draft is created and the
// previously published index (and version) is returned unchanged; the
// very first publish is a draft over nothing. Caller holds regenMu.
func (s *Service) regenerateLocked() *SnapshotIndex {
	changes, next, ok := s.table.ChangesSince(s.cursor, s.changeBuf[:0])
	s.changeBuf = changes
	s.cursor = next
	names := s.touched[:0]
	if ok {
		for _, ch := range changes {
			names = append(names, ch.Name)
		}
	} else {
		// The cursor fell off the journal (a burst bigger than the ring, or
		// a store Restore): every running job is a change, and so is every
		// cached group the listing lacks, so that a dropped job's group is
		// forgotten. Adding only those keeps the sort below near-linear.
		// The listing happens after ChangesSince, so anything it misses
		// has seq > cursor and is replayed next round.
		running := s.table.RunningNames() // sorted
		names = append(names, running...)
		for name := range s.groups {
			if _, listed := slices.BinarySearch(running, name); !listed {
				names = append(names, name)
			}
		}
	}
	for name := range s.quiesceDirty {
		names = append(names, name)
	}
	clear(s.quiesceDirty)
	slices.Sort(names)
	names = slices.Compact(names)
	s.touched = names

	// Rebuild every stale group up front, in parallel: group generation
	// (decode, spec expansion, bucketing) is pure per-job work, so it fans
	// out across the pool while the order-sensitive inclusion pass below
	// stays sequential — and finds a warm cache.
	s.rebuildNames = s.rebuildNames[:0]
	s.rebuildRevs = s.rebuildRevs[:0]
	for _, name := range names {
		rev, live := s.table.RunningRevision(name)
		if g := s.groups[name]; live && (g == nil || g.rev != rev) {
			s.rebuildNames = append(s.rebuildNames, name)
			s.rebuildRevs = append(s.rebuildRevs, rev)
		}
	}
	editHint := s.rebuildGroups()

	prev := s.publishedIdx()
	var d *indexDraft
	draft := func() *indexDraft {
		if d == nil {
			d = newDraft(prev, s.numShards, editHint)
		}
		return d
	}
	for _, name := range names {
		if rev, live := s.table.RunningRevision(name); !live {
			delete(s.groups, name)
		} else if g := s.groups[name]; g == nil || g.rev != rev {
			// Recommitted since the prebuild read it.
			s.groups[name] = s.buildGroup(name, rev)
		}
		s.updateInclusion(name, draft)
	}
	s.genCount++

	if d == nil {
		if prev != nil {
			// Byte-identical content: keep the published index (and
			// version) so Task Managers skip reconciliation.
			return prev
		}
		draft() // the first publish, of nothing: an empty index
	}
	s.version++
	idx := d.publish(s.version, s.numShards, s.included)
	s.includedShared = true
	return idx
}

// updateInclusion reconciles one job's membership in the included-group
// list (and the index draft) with its current group and quiesce state.
// Only content-changing transitions create or touch the draft; a group
// rebuilt to equal specs swaps the cached pointer without publishing
// anything.
func (s *Service) updateInclusion(name string, draft func() *indexDraft) {
	g := s.groups[name]
	include := g != nil && len(g.indexed) > 0
	if include {
		if _, q := s.quiesced[name]; q {
			include = false
		}
	}
	pos, found := s.findIncluded(name)
	switch {
	case !found && !include:
		// Absent and staying absent (stopped, zero tasks, quiesced, or a
		// drop of a job that was never included).
	case found && include && s.included[pos] == g:
		// Same group pointer: revision unchanged (a no-op toggle, or an
		// untouched job in an overflow's change set).
	case found && include:
		old := s.included[pos]
		s.ensureIncludedOwned(0)
		s.included[pos] = g
		if old.sameSpecs(g) {
			// Rebuilt to identical content (e.g. a commit that rewrote
			// the same config under a new revision): no splice, no
			// version movement.
			return
		}
		draft().applyGroup(name, old, g)
	case found:
		old := s.included[pos]
		s.ensureIncludedOwned(0)
		s.included = append(s.included[:pos], s.included[pos+1:]...)
		draft().applyGroup(name, old, nil)
	default:
		s.ensureIncludedOwned(1)
		s.included = append(s.included, nil)
		copy(s.included[pos+1:], s.included[pos:])
		s.included[pos] = g
		draft().applyGroup(name, nil, g)
	}
}

// findIncluded binary-searches the sorted included list for a job name.
func (s *Service) findIncluded(name string) (int, bool) {
	lo, hi := 0, len(s.included)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.included[mid].job < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.included) && s.included[lo].job == name
}

// ensureIncludedOwned clones the included list before its first mutation
// of a regeneration if the published index still references it —
// published indexes are immutable, so their group list can never be
// edited in place. grow reserves headroom for pending inserts.
func (s *Service) ensureIncludedOwned(grow int) {
	if !s.includedShared {
		return
	}
	fresh := make([]*jobGroup, len(s.included), len(s.included)+grow+8)
	copy(fresh, s.included)
	s.included = fresh
	s.includedShared = false
}

// rebuildGroups generates the queued (name, rev) spec groups on the
// persistent worker pool and installs them in the cache. Small batches
// run inline — fan-out only pays for itself on churn-sized batches.
// Caller holds regenMu; buildGroup is pure per-job work (store reads
// plus private allocation), so workers never contend. It returns how many
// shards the new groups touch in all: the index edits they make if each
// replaces a group of the same shards, which is what a release does.
func (s *Service) rebuildGroups() (shards int) {
	n := len(s.rebuildNames)
	if n == 0 {
		return 0
	}
	if cap(s.rebuilt) < n {
		s.rebuilt = make([]*jobGroup, n)
	} else {
		s.rebuilt = s.rebuilt[:n]
	}
	par := s.rebuildPar
	if par > n {
		par = n
	}
	if par <= 1 || n < 16 {
		for i := 0; i < n; i++ {
			s.buildFn(i)
		}
	} else {
		if s.wp == nil {
			s.wp = workpool.New(s.rebuildPar - 1)
		}
		s.wp.Run(n, par, s.buildFn)
	}
	for i, name := range s.rebuildNames {
		s.groups[name] = s.rebuilt[i]
		shards += len(s.rebuilt[i].shards)
		s.rebuilt[i] = nil
	}
	return shards
}

// buildGroup generates one job's spec group: expand the running config
// into specs over the group's own template and precompute each task's
// identity, shard, and per-shard sub-buckets. Jobs whose running document
// is not a JobConfig or that are administratively stopped produce an
// empty group.
//
// A task's identity and shard depend only on the job's name and the task
// index, so a rebuild that keeps the task count (a package release, a
// resource change) takes the cached group's indexed sequence — IDs,
// shards and (shard, task index) order — and repoints each entry at the
// new spec of its index: no formatting, no MD5, no sort. Pool workers
// call buildGroup concurrently; they only read s.groups, which
// rebuildGroups writes after the pool has drained.
func (s *Service) buildGroup(job string, rev int64) *jobGroup {
	g := &jobGroup{job: job, rev: rev}
	cfg := s.table.runningConfig(job)
	if cfg == nil || cfg.Stopped || cfg.TaskCount <= 0 {
		return g
	}
	g.specs = SpecsForJob(cfg, &g.spec)
	g.indexed = make([]IndexedSpec, len(g.specs))
	if old := s.groups[job]; old != nil && len(old.indexed) == len(g.specs) {
		for i, is := range old.indexed {
			is.Spec = &g.specs[is.Spec.Index]
			g.indexed[i] = is
		}
	} else {
		for i := range g.specs {
			spec := &g.specs[i]
			id := spec.ID()
			g.indexed[i] = IndexedSpec{ID: id, Shard: shardmanager.ShardOf(id, s.numShards), Spec: spec}
		}
		sortByShard(g.indexed)
	}
	g.shards = buildGroupShards(g.indexed)
	return g
}

// Invalidate drops the published snapshot's freshness so the next fetch
// regenerates (incrementally — per-job groups are kept, and untouched
// index chunks are reused). Used by tests and by operators forcing a
// fast propagation.
func (s *Service) Invalidate() {
	// Taking regenMu keeps the pre-atomic-pointer semantics: an
	// invalidation that lands while a regeneration is in flight waits it
	// out and then marks its snapshot stale, so the NEXT fetch
	// regenerates again rather than the invalidation being overwritten
	// by the in-flight publish.
	s.regenMu.Lock()
	defer s.regenMu.Unlock()
	s.invalidatePub()
}

// Generations reports how many times a snapshot was generated (not served
// from cache); tests use it to verify caching behaviour.
func (s *Service) Generations() int {
	s.regenMu.Lock()
	defer s.regenMu.Unlock()
	return s.genCount
}

// SpecsForJob expands one job configuration into its task specs: one spec
// per parallelism slot, with contiguous disjoint partition ranges and
// template substitutions applied. It sets *tmpl to the job's template and
// points every spec at it, so the caller decides where the one copy of
// the job-level fields lives.
func SpecsForJob(cfg *config.JobConfig, tmpl *engine.JobSpec) []engine.TaskSpec {
	*tmpl = engine.JobSpec{
		Job:            cfg.Name,
		TaskCount:      cfg.TaskCount,
		PackageName:    cfg.Package.Name,
		PackageVersion: cfg.Package.Version,
		Threads:        cfg.ThreadsPerTask,
		Operator:       cfg.Operator,
		InputCategory:  cfg.Input.Category,
		OutputCategory: cfg.Output.Category,
		Resources:      cfg.TaskResources,
		Enforcement:    cfg.Enforcement,
		Priority:       cfg.Priority,
	}
	specs := make([]engine.TaskSpec, 0, cfg.TaskCount)
	// One shared partition arena per job: AssignPartitions hands out
	// contiguous disjoint ranges of [0,total), so every spec's partition
	// slice can be a capped window into a single 0..total-1 arena instead
	// of a per-task allocation. Nothing downstream mutates spec
	// partitions (Specs() deep-copies; task runners only read), and the
	// three-index windows keep an append through one slice from ever
	// reaching a neighbour's range.
	var arena []int
	total := cfg.Input.Partitions
	if total > 0 && cfg.TaskCount > 0 {
		arena = make([]int, total)
		for p := range arena {
			arena[p] = p
		}
	}
	dir := parseTemplate(cfg.CheckpointDir, cfg.Name)
	for i := 0; i < cfg.TaskCount; i++ {
		specs = append(specs, engine.TaskSpec{
			JobSpec:       tmpl,
			Index:         i,
			Partitions:    partitionWindow(arena, total, cfg.TaskCount, i),
			CheckpointDir: dir.expand(i),
		})
	}
	return specs
}

// partitionWindow returns task index's contiguous partition range as a
// capped window into the shared arena. The start/size math — and the
// nil-vs-empty behaviour — must match engine.AssignPartitions exactly:
// nil for an invalid assignment but a non-nil empty slice for a valid
// zero-size one. TestPartitionWindowMatchesAssignPartitions cross-checks.
func partitionWindow(arena []int, total, taskCount, index int) []int {
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
	return arena[start : start+size : start+size]
}

// specTemplate is a task-spec template parsed once per job: the text
// between its $TASK references, with $JOB already expanded to the job
// name. Substitution is one pass over the template — a job name that
// itself contains "$TASK" is text, not a reference.
type specTemplate []string

func parseTemplate(template, job string) specTemplate {
	if template == "" {
		return nil
	}
	parts := strings.Split(template, "$TASK")
	for i, p := range parts {
		parts[i] = strings.ReplaceAll(p, "$JOB", job)
	}
	return parts
}

// expand applies the template to one task: $TASK becomes the task index.
// A template without $TASK expands to one string all tasks share.
func (t specTemplate) expand(index int) string {
	switch len(t) {
	case 0:
		return ""
	case 1:
		return t[0]
	}
	return strings.Join(t, strconv.Itoa(index))
}
