// Package taskmanager implements Turbine's local Task Manager (paper §IV):
// the agent inside every Turbine container that actually runs stream
// processing tasks.
//
// Each Task Manager periodically (every 60 seconds) fetches the FULL
// snapshot of task specs from the Task Service — as an immutable index
// that already carries each task's MD5-derived shard — and runs exactly
// the tasks whose shards the Shard Manager has assigned to its container.
// Keeping the full list means load balancing and fail-over keep working
// even when the Task Service or Job Management layer is degraded (§IV-D).
//
// The fetch is full; the reconciliation is O(changed). All per-task state
// is one record per owned shard: the index bucket the shard was last
// reconciled against and, position for position, the tasks started from
// it. The index publishes immutable buckets and shares every untouched
// one between versions, so a shard whose record still holds the very
// slice the current index publishes (taskservice.SameBucket), with every
// position running, is clean and costs one comparison; Refresh and
// AddShard touch only the other shards. Within one of those, a task
// keeps running while the spec published for it is Equal to the one it
// was started from (specs are compared, never hashed; the index shares
// the specs of unchanged jobs, so that is mostly a pointer comparison)
// and is restarted when it is not. A restart whose new spec still names
// the task's partitions — a package release, a resource change — happens
// in place: the running engine.Task takes the new spec and hands its
// leases to a fresh incarnation, and every such restart of one Refresh
// pass shares one checkpoint-store critical section
// (engine.CheckpointStore.Handover), allocating nothing. A bucket that
// keeps its tasks, as a release leaves it, is reconciled in its own slot
// array, one spec-pointer comparison per entry. Only a task whose
// partitions moved is stopped and started anew.
//
// Beside the table the manager retains one pointer: the index of its last
// Refresh that passed the gates. That Refresh moved every owned shard
// onto the bucket that index publishes, and nothing but a Refresh starts
// a task, so every shard with a running task holds the retained index's
// bucket — whatever the source has published or quiesced since. A task of
// job J can therefore only run here on owned ∩ retained.JobShards(J), and
// the per-job questions (StopJob, JobTaskCount) are one lookup in the
// retained index plus a search in each of the job's few buckets this
// container owns, not a search of every owned bucket. A published index
// references every job's specs, so the pointer is dropped whenever the
// manager runs nothing (reboot, container death, re-registration, the
// last task stopped): a manager that is stale but serving holds at most
// one old generation of the fleet's specs — for as long as it serves, which
// an unreachable Shard Manager bounds by the 40 s proactive reboot below —
// and an idle one holds none.
//
// Fail-over safety (§IV-C): the Task Manager heartbeats the Shard Manager,
// and a heartbeat that times out (shardmanager.ErrTimeout) is how a
// partition shows on this side. From the first unanswered beat Refresh
// starts nothing, and once the silence reaches the proactive timeout (40
// seconds), BEFORE the Shard Manager's fail-over interval (60 seconds),
// the manager reboots itself — stopping all of its tasks — so that when
// the Shard Manager gives its shards away, no two active instances of the
// same task can exist. If a heartbeat gets through before fail-over, its
// shards remain and tasks restart in place.
package taskmanager

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/scribe"
	"repro/internal/shardmanager"
	"repro/internal/simclock"
	"repro/internal/taskservice"
	"repro/internal/tupperware"
)

// TaskSource provides full task-spec snapshots (implemented by the Task
// Service) as immutable indexes. Its shard buckets let a manager look at
// only the shards it owns, and because successive indexes share every
// bucket that did not change, only at the ones whose content moved.
type TaskSource interface {
	Index() *taskservice.SnapshotIndex
}

// StalenessSource is an optional TaskSource extension for sources that
// mirror the Task Service over a network (taskservice.FeedClient):
// StaleFor is the mirror's staleness bound — how long since the feed
// last confirmed the served index is current. The Task Manager's
// proactive ConnectionTimeout gate consumes it: a source staler than
// the gate keeps serving what already runs, but Refresh starts nothing
// new — the same stale-but-serving degraded mode an unreachable Shard
// Manager triggers (§IV-C/§IV-D), applied to the spec-feed side of the
// control plane.
type StalenessSource interface {
	StaleFor() time.Duration
}

// ShardManagerClient is the subset of the Shard Manager the Task Manager
// talks to.
type ShardManagerClient interface {
	Register(id string, capacity config.Resources, h shardmanager.Handler)
	RegisterInRegion(id, region string, capacity config.Resources, h shardmanager.Handler)
	Heartbeat(id string) error
	// ReportShardLoads publishes a whole load-aggregation cycle in one
	// call — one Shard Manager round-trip instead of one per shard.
	ReportShardLoads(loads map[shardmanager.ShardID]config.Resources)
	NumShards() int
	// Mapping returns the stored shard→container mapping. It stays
	// readable while the Shard Manager service is unavailable — the
	// degraded mode a freshly restarted Task Manager recovers its shard
	// set from (§IV-D).
	Mapping() map[shardmanager.ShardID]string
}

// ProfileFunc resolves the true engine profile for a task's job; the
// cluster harness supplies it (the binary's behaviour travels with the
// job, not with Turbine). spec is a copy of the index's spec, so it still
// shares the index's read-only JobSpec.
type ProfileFunc func(spec engine.TaskSpec) *engine.Profile

// Options tune a Task Manager. Zero values take the paper's defaults.
type Options struct {
	// FetchInterval between task-spec snapshot fetches (default 60 s).
	FetchInterval time.Duration
	// HeartbeatInterval to the Shard Manager (default 10 s).
	HeartbeatInterval time.Duration
	// ConnectionTimeout is the proactive self-reboot deadline when the
	// Shard Manager is unreachable; it MUST be shorter than the Shard
	// Manager's fail-over interval (default 40 s < 60 s, §IV-C).
	ConnectionTimeout time.Duration
	// LoadReportInterval between shard-load reports (default 10 min).
	LoadReportInterval time.Duration
	// Region tags this container for regional placement constraints
	// (§IV-B); empty means unconstrained.
	Region string
	// Metrics, when set, turns shard-load reporting into windowed
	// aggregation (§IV-B's load-aggregator, smoothed the way the Auto
	// Scaler reads its signals): Advance records per-shard usage samples
	// into the store, and ReportLoads reports each shard's mean over
	// LoadReportInterval instead of the instantaneous point sample. Nil
	// keeps the instantaneous behavior.
	Metrics *metrics.Store
}

// DefaultConnectionTimeout is the proactive self-reboot deadline when
// the Shard Manager is unreachable (§IV-C). It must stay shorter than
// shardmanager.DefaultFailoverInterval: the container kills its own
// tasks before its shards can be failed over elsewhere, so two live
// instances of one task never overlap.
const DefaultConnectionTimeout = 40 * time.Second

func (o *Options) fillDefaults() {
	if o.FetchInterval <= 0 {
		o.FetchInterval = 60 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 10 * time.Second
	}
	if o.ConnectionTimeout <= 0 {
		o.ConnectionTimeout = DefaultConnectionTimeout
	}
	if o.LoadReportInterval <= 0 {
		o.LoadReportInterval = 10 * time.Minute
	}
}

// ValidateFailoverTiming checks the duplicate-task safety invariant of
// §IV-C at construction time: the Task Manager's proactive connection
// timeout must be strictly shorter than the Shard Manager's failover
// interval. If it were not, the Shard Manager could reassign a silent
// container's shards while that container is still running their tasks —
// two active instances of the same task. Zero values are resolved to the
// respective defaults before comparison, so partially-configured
// clusters are validated against what they will actually run.
func ValidateFailoverTiming(connectionTimeout, failoverInterval time.Duration) error {
	if connectionTimeout <= 0 {
		connectionTimeout = DefaultConnectionTimeout
	}
	if failoverInterval <= 0 {
		failoverInterval = shardmanager.DefaultFailoverInterval
	}
	if connectionTimeout >= failoverInterval {
		return fmt.Errorf("taskmanager: ConnectionTimeout (%v) must be shorter than the Shard Manager's FailoverInterval (%v): a container that self-reboots only at or after failover opens a duplicate-task window (§IV-C)",
			connectionTimeout, failoverInterval)
	}
	return nil
}

// ownedShard is everything the manager knows about one shard it owns.
// bucket is the index's own published slice the shard was last reconciled
// against — retained, never written — and tasks runs parallel to it:
// tasks[i] is the live task running bucket[i].Spec, nil where none
// runs. ID and job are read from the bucket, stats from the task.
//
// Invariant: while pending is false every entry of tasks is non-nil.
// Whatever empties a slot (StopJob, reboot, container death, a failed
// start) sets pending, so a shard is clean — Refresh has nothing to do
// for it — iff !pending and bucket is still the slice the current index
// publishes for it (taskservice.SameBucket). And while any entry of tasks
// is non-nil, bucket is the slice Manager.retained publishes for the
// shard.
type ownedShard struct {
	bucket  []taskservice.IndexedSpec
	tasks   []*engine.Task
	pending bool
}

// Stats are cumulative Task Manager counters.
type Stats struct {
	Started     int // in-place restarts included
	Stopped     int
	Restarted   int // spec changes, whether restarted in place or stopped and started
	StartErrors int // lease conflicts etc.
	Reboots     int // proactive self-reboots
	OOMKills    int
	// DegradedSkips counts Refresh passes skipped because the task source
	// could not be trusted — its staleness bound exceeded the
	// ConnectionTimeout gate, or its index was bucketed for a different
	// shard space than the Shard Manager's: running tasks kept serving,
	// nothing new started.
	DegradedSkips int
}

// Manager is one container's local Task Manager.
type Manager struct {
	id        string
	container *tupperware.Container
	clock     simclock.Clock
	source    TaskSource
	sm        ShardManagerClient
	bus       *scribe.Bus
	ckpt      *engine.CheckpointStore
	profile   ProfileFunc
	opts      Options

	mu      sync.Mutex
	shards  map[shardmanager.ShardID]*ownedShard
	running int // non-nil entries across every shard's tasks
	// retained is the index of the last Refresh that passed the gates, nil
	// while running is 0: every shard with a running task holds the bucket
	// it publishes.
	retained *taskservice.SnapshotIndex
	scratch  []shardmanager.ShardID // reused shard list: Refresh's unclean shards, a job's shards
	spare    []*engine.Task         // all nil: the slot array rebaseLocked fills next
	// respecs are the in-place restarts a Refresh pass queued, and
	// respecSlots the slot each task holds; both are empty between passes.
	respecs     []engine.Respec
	respecSlots []**engine.Task
	unreachable bool // last heartbeat timed out (partition-shaped), or the container died and has not heartbeat since
	lastContact time.Time
	rebootedEp  bool // already rebooted in this disconnection episode
	stats       Stats
	ooms        map[string]int // job -> OOM kills since the last DrainOOMs
	tickers     []simclock.Ticker

	// loadSeries caches each owned shard's metric row, cpu | mem | disk |
	// net, so the per-tick load sampling allocates nothing after the first
	// sample of a shard and the load report folds a shard in one read.
	loadSeries map[shardmanager.ShardID]*metrics.Row
}

// New builds a Task Manager for a container. Call Start to register with
// the Shard Manager and begin periodic work.
func New(container *tupperware.Container, clock simclock.Clock, source TaskSource,
	sm ShardManagerClient, bus *scribe.Bus, ckpt *engine.CheckpointStore,
	profile ProfileFunc, opts Options) *Manager {
	opts.fillDefaults()
	return &Manager{
		id:          container.ID(),
		container:   container,
		clock:       clock,
		source:      source,
		sm:          sm,
		bus:         bus,
		ckpt:        ckpt,
		profile:     profile,
		opts:        opts,
		shards:      make(map[shardmanager.ShardID]*ownedShard),
		lastContact: clock.Now(),
	}
}

// ID returns the container ID this manager serves.
func (m *Manager) ID() string { return m.id }

// Start registers with the Shard Manager and schedules the periodic
// loops: snapshot refresh, heartbeat, and load reporting.
func (m *Manager) Start() {
	m.sm.RegisterInRegion(m.id, m.opts.Region, m.container.Capacity(), m)
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.tickers) > 0 {
		return
	}
	m.tickers = append(m.tickers,
		m.clock.TickEvery(m.opts.FetchInterval, func() { m.Refresh() }),
		m.clock.TickEvery(m.opts.HeartbeatInterval, func() { m.heartbeat() }),
		m.clock.TickEvery(m.opts.LoadReportInterval, func() { m.ReportLoads() }),
	)
}

// Shutdown stops all periodic work and all tasks (clean stop).
func (m *Manager) Shutdown() {
	m.mu.Lock()
	tickers := m.tickers
	m.tickers = nil
	m.mu.Unlock()
	for _, t := range tickers {
		t.Stop()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stopAllLocked()
}

// AddShard implements shardmanager.Handler: the container now owns the
// shard. It only records the shard as pending; Refresh — the one
// reconcile path — starts its tasks from the latest snapshot, or leaves
// the record pending for the next pass if a gate holds it back.
func (m *Manager) AddShard(s shardmanager.ShardID) error {
	m.mu.Lock()
	m.ownLocked(s)
	m.mu.Unlock()
	m.Refresh()
	return nil
}

// ownLocked records shard s as owned and due for reconciliation.
func (m *Manager) ownLocked(s shardmanager.ShardID) {
	sh, owned := m.shards[s]
	if !owned {
		sh = &ownedShard{}
		m.shards[s] = sh
	}
	sh.pending = true
}

// DropShard implements shardmanager.Handler: stop the shard's tasks and
// forget the shard.
func (m *Manager) DropShard(s shardmanager.ShardID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sh, ok := m.shards[s]; ok {
		m.stats.Stopped += m.endShardLocked(sh, (*engine.Task).Stop)
		delete(m.shards, s)
	}
	return nil
}

// endShardLocked ends every running task of one shard with end
// (Task.Stop or Task.Kill), empties the slots, marks the shard pending
// if anything ran, and returns how many tasks it ended.
func (m *Manager) endShardLocked(sh *ownedShard, end func(*engine.Task)) int {
	n := 0
	for i, t := range sh.tasks {
		if t != nil {
			end(t)
			sh.tasks[i] = nil
			n++
		}
	}
	if n > 0 {
		sh.pending = true
		m.running -= n
		m.releaseIdleLocked()
	}
	return n
}

// releaseIdleLocked lets go of the retained index once nothing runs: no
// task is left for it to locate, and a manager that is idle for long — a
// dead container, one rebooted into a partition — must not keep a whole
// generation of the fleet's specs alive.
func (m *Manager) releaseIdleLocked() {
	if m.running == 0 {
		m.retained = nil
	}
}

// stopAllLocked cleanly stops every running task; the shard records stay,
// pending, so the tasks restart in place on the next Refresh that passes
// its gates.
func (m *Manager) stopAllLocked() {
	for _, sh := range m.shards {
		m.stats.Stopped += m.endShardLocked(sh, (*engine.Task).Stop)
	}
}

// Shards returns the shards this container currently owns, sorted.
func (m *Manager) Shards() []shardmanager.ShardID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]shardmanager.ShardID, 0, len(m.shards))
	for s := range m.shards {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// Refresh fetches the full task-spec snapshot index and reconciles the
// running task set with it: start tasks newly mapped to owned shards,
// stop tasks no longer in the snapshot, and restart tasks whose spec
// changed (engine.TaskSpec.Equal against the spec it runs). The work is
// proportional to what changed, not to what runs: each owned shard costs
// one bucket-identity comparison, and only shards that are not clean (see
// ownedShard) are reconciled — in ascending shard order, each bucket in
// its fixed (job, task index) order, so the same history starts the same
// tasks in the same sequence. A refresh does no MD5 work of its own;
// identity and shard come precomputed from the index, and a task of a job
// that did not change is recognised by its spec pointer.
//
// Reconciliation is two-phase over all visited shards: every task whose
// spec vanished or whose partitions changed is stopped before any task is
// started. A partition a new spec claims may be held by a task this same
// pass stops in a later shard (a repartitioned job spans shards);
// releasing first means the start finds the lease free instead of failing
// and waiting a whole fetch interval for its retry. A changed task that
// keeps its partitions is restarted in place between the phases, all of
// the pass's in one checkpoint-store call: its leases pass straight to its
// new instance, and no other spec of its job claims them.
func (m *Manager) Refresh() {
	if !m.container.Alive() {
		return
	}
	m.mu.Lock()
	unreachable := m.unreachable
	m.mu.Unlock()
	if unreachable {
		// Shard ownership cannot be confirmed while heartbeats to the
		// Shard Manager go unanswered: keep running what we run, but start
		// nothing new — a rebooted-but-disconnected container must stay
		// idle until a heartbeat gets through, or it could duplicate tasks
		// the Shard Manager has failed over elsewhere (§IV-C).
		return
	}
	if ss, ok := m.source.(StalenessSource); ok {
		if ss.StaleFor() >= m.opts.ConnectionTimeout {
			// The spec mirror has been unconfirmed for longer than the
			// proactive gate: specs it serves may predate a teardown or
			// redistribution the control plane already committed. Keep
			// running what runs (stale-but-serving), start nothing new.
			m.mu.Lock()
			m.stats.DegradedSkips++
			m.mu.Unlock()
			return
		}
	}
	idx := m.source.Index()

	m.mu.Lock()
	defer m.mu.Unlock()
	if idx.NumShards() != m.sm.NumShards() {
		// Mis-wired Task Service: its buckets are keyed by a different
		// shard space than the one ownership is expressed in, so no bucket
		// says what this container should run. Same contract as the gates
		// above: keep what runs, start nothing, count the skip.
		m.stats.DegradedSkips++
		return
	}
	// From here on every owned shard ends up on idx's bucket, rebased below
	// unless it already holds it.
	m.retained = idx
	defer m.releaseIdleLocked()
	visit := m.scratch[:0]
	for s, sh := range m.shards {
		if sh.pending || !taskservice.SameBucket(sh.bucket, idx.ShardSpecs(s)) {
			visit = append(visit, s)
		}
	}
	m.scratch = visit
	if len(visit) == 0 {
		return
	}
	slices.Sort(visit)
	for _, s := range visit {
		m.rebaseLocked(m.shards[s], idx.ShardSpecs(s))
	}
	m.respecLocked()
	for _, s := range visit {
		m.startMissingLocked(m.shards[s])
	}
}

// rebaseLocked is reconcile phase 1 for one shard: move the record onto
// the bucket the current index publishes, carrying over every task whose
// spec is still there, equal, and stopping the rest. Both buckets are in
// (job, task index) order, so one merge walk pairs them. A task whose spec
// changed but still names its partitions is queued for an in-place
// restart (respecLocked) and keeps its slot meanwhile; any other changed
// task, and one whose restart is refused there, is stopped and started
// again by phase 2. A bucket that keeps its tasks — the same IDs in the
// same order, as a package release or a resource change leaves every
// bucket it touches — pairs position for position, so the walk skips the
// ordering and reconciles the shard's slot array in place; any other
// bucket's slots go to the manager's spare array, and the old one becomes
// the spare.
func (m *Manager) rebaseLocked(sh *ownedShard, next []taskservice.IndexedSpec) {
	if taskservice.SameBucket(sh.bucket, next) {
		return // pending only: the slots already line up with next
	}
	old, oldTasks := sh.bucket, sh.tasks
	keep := keepsTasks(old, next)
	tasks := oldTasks
	if !keep {
		tasks = slices.Grow(m.spare[:0], len(next))[:len(next)]
	}
	i := 0
	for j := range next {
		c := 0 // a bucket that keeps its tasks pairs old[j] with next[j]
		if !keep {
			for c = 1; i < len(old); i++ {
				if c = entryOrder(&old[i], &next[j]); c >= 0 {
					break
				}
				m.stopVanishedLocked(oldTasks[i])
			}
		}
		if c != 0 {
			tasks[j] = nil // new to the shard: phase 2 starts it
			continue
		}
		t, spec := oldTasks[i], next[j].Spec
		if !keep {
			tasks[j] = t // in place, the slot holds it already
		}
		if t != nil && !old[i].Spec.Equal(spec) { // one pointer comparison unless the spec moved
			// Spec changed (package bump, resource change, repartition).
			m.stats.Restarted++
			if slices.Equal(spec.Partitions, old[i].Spec.Partitions) {
				m.respecs = append(m.respecs, engine.Respec{Task: t, Spec: spec, Profile: m.profile(*spec)})
				m.respecSlots = append(m.respecSlots, &tasks[j])
			} else {
				t.Stop() // phase 2 starts it with the new spec
				tasks[j] = nil
				m.running--
			}
		}
		i++
	}
	for ; i < len(old); i++ {
		m.stopVanishedLocked(oldTasks[i])
	}
	sh.bucket = next
	if !keep {
		sh.tasks = tasks
		clear(oldTasks[:cap(oldTasks)])
		m.spare = oldTasks
	}
}

// keepsTasks reports whether bucket next lists the tasks old does, in the
// same order. Successive index versions share an entry's ID string, so
// each comparison is mostly a pointer comparison.
func keepsTasks(old, next []taskservice.IndexedSpec) bool {
	if len(old) != len(next) {
		return false
	}
	for i := range next {
		if old[i].ID != next[i].ID {
			return false
		}
	}
	return true
}

// respecLocked restarts in place every task the pass's phase 1 queued, in
// one checkpoint-store critical section (engine.CheckpointStore.Handover),
// and stops each one it refused, emptying its slot for phase 2. The queue
// is cleared, so it pins no task or spec between passes.
func (m *Manager) respecLocked() {
	if len(m.respecs) == 0 {
		return
	}
	m.ckpt.Handover(m.respecs)
	for k, r := range m.respecs {
		if r.Done {
			m.stats.Started++
			continue
		}
		r.Task.Stop() // phase 2 starts it with the new spec
		*m.respecSlots[k] = nil
		m.running--
	}
	clear(m.respecs)
	clear(m.respecSlots)
	m.respecs, m.respecSlots = m.respecs[:0], m.respecSlots[:0]
}

// entryOrder orders bucket entries the way index buckets do: by job name,
// then task index. Successive index versions share an entry's ID string,
// so most pairs compare equal on it without looking at their specs.
func entryOrder(a, b *taskservice.IndexedSpec) int {
	if a.ID == b.ID {
		return 0
	}
	if c := strings.Compare(a.Spec.Job, b.Spec.Job); c != 0 {
		return c
	}
	return cmp.Compare(a.Spec.Index, b.Spec.Index)
}

// stopVanishedLocked stops a task whose spec left the shard's bucket (job
// dropped, quiesced, or scaled down). t is nil if the slot was empty.
func (m *Manager) stopVanishedLocked(t *engine.Task) {
	if t != nil {
		t.Stop()
		m.running--
		m.stats.Stopped++
	}
}

// startMissingLocked is reconcile phase 2 for one shard, and the only
// place tasks are started: fill every empty slot from its bucket entry.
// A start that fails (lease conflict or similar) leaves the slot empty
// and the shard pending, which is what makes the next Refresh retry it.
func (m *Manager) startMissingLocked(sh *ownedShard) {
	sh.pending = false
	for i, t := range sh.tasks {
		if t != nil {
			continue
		}
		spec := sh.bucket[i].Spec // the index's own immutable spec, shared
		task := engine.NewTask(spec, m.profile(*spec), m.bus, m.ckpt)
		if err := task.Start(); err != nil {
			m.stats.StartErrors++
			sh.pending = true
			continue
		}
		sh.tasks[i] = task
		m.running++
		m.stats.Started++
	}
}

// heartbeat maintains liveness with the Shard Manager and implements the
// proactive connection timeout.
func (m *Manager) heartbeat() {
	if !m.container.Alive() {
		return // dead containers don't heartbeat; SM will fail them over
	}
	err := m.sm.Heartbeat(m.id)
	if errors.Is(err, shardmanager.ErrTimeout) {
		// No contact this beat: the heartbeat timed out on the wire, which
		// is what a network partition looks like from this side. The
		// silence counts toward the proactive connection timeout (§IV-C).
		m.mu.Lock()
		m.unreachable = true
		silent := m.clock.Since(m.lastContact)
		needReboot := silent >= m.opts.ConnectionTimeout && !m.rebootedEp
		if needReboot {
			m.rebootedEp = true
		}
		m.mu.Unlock()
		if needReboot {
			m.reboot()
		}
		return
	}

	m.mu.Lock()
	m.lastContact = m.clock.Now()
	m.unreachable = false
	m.rebootedEp = false
	m.mu.Unlock()
	if errors.Is(err, shardmanager.ErrUnavailable) {
		// Degraded mode (§IV-D): the Shard Manager service itself is
		// down. We reached its endpoint, so this is NOT a partition of
		// this container; nothing can fail our shards over, so we keep
		// the stored mapping and keep processing. A freshly restarted
		// container with no local state recovers its shard set from the
		// stored mapping.
		m.mu.Lock()
		empty := len(m.shards) == 0
		m.mu.Unlock()
		if empty {
			m.adoptStoredMapping()
		}
		return
	}
	if err != nil {
		// The Shard Manager no longer knows us: we were failed over while
		// away. Re-register as a new, empty container (§IV-C).
		m.mu.Lock()
		m.stopAllLocked()
		clear(m.shards)
		m.mu.Unlock()
		m.sm.RegisterInRegion(m.id, m.opts.Region, m.container.Capacity(), m)
	}
}

// adoptStoredMapping loads the shards mapped to this container from the
// Shard Manager's stored mapping — the §IV-D degraded mode for a Task
// Manager that restarted while the service is down and owns nothing yet.
func (m *Manager) adoptStoredMapping() {
	adopted := false
	for s, owner := range m.sm.Mapping() {
		if owner != m.id {
			continue
		}
		m.mu.Lock()
		m.ownLocked(s)
		m.mu.Unlock()
		adopted = true
	}
	if adopted {
		m.Refresh()
	}
}

// reboot models the container rebooting itself after the proactive
// timeout: every task stops (leases released) but the local shard list is
// kept — if the Shard Manager still maps the shards here after reconnect,
// the tasks restart in place on the next refresh.
func (m *Manager) reboot() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stopAllLocked()
	m.stats.Reboots++
}

// StopJob cleanly stops every running task of one job on this container.
// The State Syncer's actuator calls it on every manager of the fleet as
// the first phase of a complex synchronization (§III-B) — a broadcast, so
// that "stop it wherever it runs" does not rest on a shard → container
// mapping that may be mid-failover — and it returns how many tasks it
// stopped. The job's tasks can only run on the shards the retained index
// lists for it (see the package comment), whatever the source has
// published or quiesced since: one lookup there, then a binary search
// (taskservice.JobRun) in each of those few buckets this container owns.
// A manager with nothing of the job answers after the lookup. Only shards
// where something stopped become pending: if the job is still in the
// snapshot at the next Refresh (the caller did not quiesce it), those
// tasks start again.
func (m *Manager) StopJob(job string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	m.eachJobSlotLocked(job, func(sh *ownedShard, i int) {
		if t := sh.tasks[i]; t != nil {
			t.Stop()
			sh.tasks[i] = nil
			sh.pending = true
			n++
		}
	})
	m.running -= n
	m.stats.Stopped += n
	m.releaseIdleLocked()
	return n
}

// eachJobSlotLocked calls fn for every task slot of job on this container,
// running or empty: the job's run (taskservice.JobRun) in the bucket of
// each shard the retained index lists for the job, where this container
// owns it.
func (m *Manager) eachJobSlotLocked(job string, fn func(sh *ownedShard, i int)) {
	if m.running == 0 {
		return // and no index is retained to look in
	}
	m.scratch = m.retained.JobShards(m.scratch[:0], job)
	for _, s := range m.scratch {
		sh, owned := m.shards[s]
		if !owned {
			continue
		}
		for i, end := taskservice.JobRun(sh.bucket, job); i < end; i++ {
			fn(sh, i)
		}
	}
}

// JobTaskCount returns how many tasks of one job run on this container,
// found the way StopJob finds them; nothing is allocated.
func (m *Manager) JobTaskCount(job string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	m.eachJobSlotLocked(job, func(sh *ownedShard, i int) {
		if sh.tasks[i] != nil {
			n++
		}
	})
	return n
}

// DrainOOMs adds the OOM kills counted on this container since the last
// call to into, by job, and forgets them. Kills are handed over, not
// accumulated: the monitor — the one reader — gets each exactly once, and
// a job's count cannot outlive the job into a namesake created later.
func (m *Manager) DrainOOMs(into map[string]int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for job, n := range m.ooms {
		into[job] += n
	}
	clear(m.ooms)
}

// OnContainerDead force-releases everything after the container's host
// died: the processes are gone, so their partition leases no longer
// represent active instances. The cluster harness calls this when it kills
// a host. The manager is left unreachable: a container revived just
// before its fetch tick still holds the shard list it died with, and the
// Shard Manager may have failed those shards over meanwhile — Refresh
// must start nothing until the first post-revival heartbeat has either
// confirmed the shards or learned of the failover and re-registered.
func (m *Manager) OnContainerDead() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.unreachable = true
	for _, sh := range m.shards {
		m.endShardLocked(sh, (*engine.Task).Kill)
	}
}

// Advance drives every running task by dt of simulated processing. The
// cluster harness calls it from the simulation loop. With Options.Metrics
// set, the same walk records each owned shard's summed usage into the
// metrics store — the samples ReportLoads later folds into a windowed
// mean. Shards with no running tasks record zeros, so idle periods pull
// the window average down instead of being invisible.
func (m *Manager) Advance(dt time.Duration) {
	if !m.container.Alive() {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clock.Now() // one reading stamps every shard's sample
	for s, sh := range m.shards {
		var u config.Resources
		for i, t := range sh.tasks {
			if t == nil {
				continue
			}
			st := t.Advance(dt)
			addUsage(&u, st)
			if st.OOMKilled {
				m.stats.OOMKills++
				if m.ooms == nil {
					m.ooms = make(map[string]int)
				}
				m.ooms[sh.bucket[i].Spec.Job]++
			}
		}
		if m.opts.Metrics != nil {
			m.shardSeriesLocked(s).RecordAt(now,
				u.CPUCores, float64(u.MemoryBytes), float64(u.DiskBytes), float64(u.NetworkBps))
		}
	}
}

// addUsage adds one task's last-observed consumption to u.
func addUsage(u *config.Resources, st engine.Stats) {
	u.CPUCores += st.CPUCores
	u.MemoryBytes += st.MemoryBytes
	u.DiskBytes += st.DiskBytes
	u.NetworkBps += st.NetworkBps
}

func (m *Manager) shardSeriesLocked(s shardmanager.ShardID) *metrics.Row {
	if row, ok := m.loadSeries[s]; ok {
		return row
	}
	if m.loadSeries == nil {
		m.loadSeries = make(map[shardmanager.ShardID]*metrics.Row)
	}
	prefix := fmt.Sprintf("tm.%s.shard.%d.", m.id, s)
	row := m.opts.Metrics.Row(prefix+"cpu", prefix+"mem", prefix+"disk", prefix+"net")
	m.loadSeries[s] = row
	return row
}

// EachTaskStats calls fn with the spec and last-observed stats of every
// running task, straight off the per-shard table: nothing is allocated.
// The order is unspecified (shards are visited in map order), so a fold
// over it must not depend on it. fn runs under the manager's lock: it must
// not call back into the manager, and spec is the index's immutable copy.
func (m *Manager) EachTaskStats(fn func(spec *engine.TaskSpec, st engine.Stats)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, sh := range m.shards {
		for i, t := range sh.tasks {
			if t != nil {
				fn(sh.bucket[i].Spec, t.LastStats())
			}
		}
	}
}

// RunningTaskIDs returns the IDs of tasks currently running, sorted.
func (m *Manager) RunningTaskIDs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, m.running)
	for _, sh := range m.shards {
		for i, t := range sh.tasks {
			if t != nil {
				out = append(out, sh.bucket[i].ID)
			}
		}
	}
	slices.Sort(out)
	return out
}

// TaskCount returns the number of running tasks.
func (m *Manager) TaskCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.running
}

// shardUsage sums the last-observed consumption of one shard's tasks.
func shardUsage(sh *ownedShard) config.Resources {
	var u config.Resources
	for _, t := range sh.tasks {
		if t != nil {
			addUsage(&u, t.LastStats())
		}
	}
	return u
}

// Usage returns the container's current resource consumption: the sum of
// its tasks' last-observed usage.
func (m *Manager) Usage() config.Resources {
	m.mu.Lock()
	defer m.mu.Unlock()
	var u config.Resources
	for _, sh := range m.shards {
		u = u.Add(shardUsage(sh))
	}
	return u
}

// ReportLoads aggregates per-shard loads and reports them to the Shard
// Manager in one batched call (the load-aggregator thread of §IV-B).
// With a metrics store configured, each shard reports its windowed mean
// over LoadReportInterval — balancing sees smoothed load, not whatever
// instant the reporter happened to fire at. Shards with no samples in the
// window (e.g. freshly adopted) fall back to the instantaneous sum.
func (m *Manager) ReportLoads() {
	if !m.container.Alive() {
		return
	}
	m.mu.Lock()
	loads := make(map[shardmanager.ShardID]config.Resources, len(m.shards))
	for s, sh := range m.shards {
		loads[s] = shardUsage(sh)
	}
	var windows map[shardmanager.ShardID]*metrics.Row
	if m.opts.Metrics != nil {
		windows = make(map[shardmanager.ShardID]*metrics.Row, len(m.shards))
		for s := range m.shards {
			windows[s] = m.shardSeriesLocked(s)
		}
	}
	m.mu.Unlock()

	var aggs [4]metrics.Agg // cpu | mem | disk | net
	for s, row := range windows {
		if row.WindowAggs(m.opts.LoadReportInterval, aggs[:]); aggs[0].Count > 0 {
			loads[s] = config.Resources{
				CPUCores:    aggs[0].Mean(),
				MemoryBytes: int64(aggs[1].Mean()),
				DiskBytes:   int64(aggs[2].Mean()),
				NetworkBps:  int64(aggs[3].Mean()),
			}
		}
	}
	m.sm.ReportShardLoads(loads)
}

// Stats returns cumulative counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
