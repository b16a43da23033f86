// Package cluster wires every Turbine component onto one simulated
// timeline: Tupperware hosts and containers, Task Managers, the Shard
// Manager, the Job Store/Service, the State Syncer, the Auto Scaler, the
// Capacity Manager, the Scribe bus, workload generators, and a job monitor
// that turns task-level observations into the job-level signals the Auto
// Scaler consumes.
//
// This is the substrate every experiment in EXPERIMENTS.md runs on. All
// periodic work — traffic ticks, task processing, 30 s sync rounds, 60 s
// snapshot fetches, 10 min load reports, 30 min rebalances — is scheduled
// on a single deterministic simclock.Sim, so a "week" of cluster time
// replays identically for a given configuration.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/autoscaler"
	"repro/internal/capacity"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/health"
	"repro/internal/jobservice"
	"repro/internal/jobstore"
	"repro/internal/metrics"
	"repro/internal/rootcause"
	"repro/internal/scribe"
	"repro/internal/shardmanager"
	"repro/internal/simclock"
	"repro/internal/statesyncer"
	"repro/internal/taskmanager"
	"repro/internal/taskservice"
	"repro/internal/tupperware"
	"repro/internal/workload"
)

// Config sizes and tunes a simulated cluster. Zero values take defaults.
type Config struct {
	Name              string
	Hosts             int
	HostCapacity      config.Resources
	ContainersPerHost int
	ContainerCapacity config.Resources
	NumShards         int
	// TickInterval drives workload emission and task processing
	// (default 1 minute — coarse enough for week-long experiments).
	TickInterval time.Duration
	// MonitorInterval drives job-signal computation and per-minute
	// metric recording (default 1 minute).
	MonitorInterval  time.Duration
	MetricsRetention time.Duration
	StartTime        time.Time
	// Clock, when set, is used instead of a fresh simclock at StartTime —
	// for harnesses (like the chaos soak) that must share one timeline
	// between the cluster and an external component such as the fault
	// injector. It must read StartTime when the cluster is built.
	Clock *simclock.Sim

	EnableScaler   bool
	EnableCapacity bool

	// SyncerShards is the number of lease-coordinated State Syncer Nodes
	// (Cluster.Syncer), each home to one contiguous stripe slice of the
	// fleet and stealing a peer's slice only when its lease expires. It
	// is a size, not a mode: 0 and 1 both mean one Node whose slice is
	// the whole fleet.
	SyncerShards int

	Syncer   statesyncer.Options
	Scaler   autoscaler.Options
	ShardMgr shardmanager.Options
	TaskMgr  taskmanager.Options

	// Regions, when set, tags hosts round-robin with these region names;
	// each host's containers register in its region, enabling §IV-B
	// regional placement constraints (the Scuba Tailer service ran in
	// three replicated regions, §VI).
	Regions []string
	// CapacityPool, when set, lets this cluster's effective capacity be
	// adjusted by cross-cluster transfers (§V-F: the Capacity Manager may
	// temporarily transfer resources between clusters during
	// datacenter-wide events). The cluster's Name keys its adjustment.
	CapacityPool *capacity.Pool

	// WrapShardDriver interposes on each shard slice's Node ↔ round-
	// engine transport, keyed by slice index — the fault injector's
	// partition/slow-shard/lease-expiry seam.
	WrapShardDriver func(slice int, d statesyncer.ShardDriver) statesyncer.ShardDriver

	// WrapActuator, WrapSM, and WrapTaskSource interpose on the
	// control-plane seams — the State Syncer's actuator boundary and each
	// container's Shard Manager and task-spec links. The chaos harness
	// installs the fault injector through them; nil means no wrapping.
	// WrapSM and WrapTaskSource receive the container ID so per-container
	// faults (e.g. one container's heartbeat blackout) can be keyed.
	WrapActuator   func(inner statesyncer.Actuator) statesyncer.Actuator
	WrapSM         func(id string, inner taskmanager.ShardManagerClient) taskmanager.ShardManagerClient
	WrapTaskSource func(id string, inner taskmanager.TaskSource) taskmanager.TaskSource

	// WrapSpecFeed interposes on the Job/Task Service spec-feed seam,
	// keyed by subscriber ID — the chaos harness injects poll timeouts,
	// partial batches, and resync storms here.
	WrapSpecFeed func(id string, inner taskservice.SpecFeed) taskservice.SpecFeed
}

func (c *Config) fillDefaults() {
	if c.Name == "" {
		c.Name = "cluster1"
	}
	if c.Hosts <= 0 {
		c.Hosts = 8
	}
	if c.HostCapacity.IsZero() {
		// §VI: 256 GB hosts with 48-56 cores.
		c.HostCapacity = config.Resources{CPUCores: 48, MemoryBytes: 256 << 30}
	}
	if c.ContainersPerHost <= 0 {
		c.ContainersPerHost = 1
	}
	if c.ContainerCapacity.IsZero() {
		per := 1.0 / float64(c.ContainersPerHost)
		c.ContainerCapacity = config.Resources{
			CPUCores:    c.HostCapacity.CPUCores * per * 0.9,
			MemoryBytes: int64(float64(c.HostCapacity.MemoryBytes) * per * 0.9),
		}
	}
	if c.NumShards <= 0 {
		c.NumShards = 256
	}
	if c.SyncerShards <= 0 {
		c.SyncerShards = 1
	}
	if c.TickInterval <= 0 {
		c.TickInterval = time.Minute
	}
	if c.MonitorInterval <= 0 {
		c.MonitorInterval = time.Minute
	}
	if c.MetricsRetention <= 0 {
		c.MetricsRetention = 15 * 24 * time.Hour
	}
	if c.StartTime.IsZero() {
		c.StartTime = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.Scaler.ContainerCapacity.IsZero() {
		c.Scaler.ContainerCapacity = c.ContainerCapacity
	}
}

// JobSpec is everything needed to run one job on the cluster: its Turbine
// configuration, the true behaviour of its binary, and its traffic.
type JobSpec struct {
	Config *config.JobConfig
	// Profile defaults to engine.DefaultProfile(Config.Operator).
	Profile *engine.Profile
	// Pattern drives the job's input traffic; nil means no generated
	// traffic (the test writes to the bus directly).
	Pattern workload.Pattern
	// AvgMsgSize for message accounting (0 = bytes only).
	AvgMsgSize int64
	// InputWeights skews traffic across partitions (imbalanced input).
	InputWeights []float64
}

type tmEntry struct {
	tm        *taskmanager.Manager
	container *tupperware.Container
	host      string
}

// Cluster is a fully wired simulated Turbine deployment.
type Cluster struct {
	Cfg     Config
	Clk     *simclock.Sim
	Bus     *scribe.Bus
	Ckpt    *engine.CheckpointStore
	Store   *jobstore.Store
	Jobs    *jobservice.Service
	TaskSvc *taskservice.Service
	// Feed is the Job Service's spec-feed server: remote Task Services
	// subscribe to it (NewRemoteTaskService) by polling it in process.
	Feed *jobservice.SpecFeedServer
	SM   *shardmanager.Manager
	TW   *tupperware.Cluster
	// Syncer is the State Syncer: Cfg.SyncerShards lease-coordinated
	// Nodes, indexed by home slice.
	Syncer  Syncers
	Scaler  *autoscaler.Scaler
	CapMgr  *capacity.Manager
	Metrics *metrics.Store
	Health  *health.Reporter

	tms []tmEntry
	act statesyncer.Actuator // possibly wrapped; reused by RestartSyncerNode

	mu        sync.Mutex
	records   map[string]*jobRecord // everything kept under a job's name
	allocated allocatedMemo
	started   bool
	alerts    []string

	monitorTicks uint64 // monitor ticks so far; touched only by monitorTick

	// Cluster-level series handles, resolved once: the monitor appends to
	// them every interval, so it skips the store's name lookup.
	seriesTaskCount *metrics.Series
	seriesInputRate *metrics.Series
	seriesDropped   *metrics.Series
}

// Syncers is a State Syncer deployment: one Node per shard slice.
type Syncers []*statesyncer.Node

// Stats sums the Nodes' cumulative round counters.
func (ns Syncers) Stats() statesyncer.Stats {
	var sum statesyncer.Stats
	for _, n := range ns {
		sum = sum.Add(n.Stats())
	}
	return sum
}

// jobRecord is everything the cluster keeps under a job's name, in one
// map entry, so that forgetting a job is one delete and a job later
// created under the same name starts as a new one. (OOM kills are not
// here: the Task Managers hand them over tick by tick.)
type jobRecord struct {
	// Registered by AddJob; nil means the default profile, no generated
	// traffic. These and the next two groups are guarded by Cluster.mu.
	profile   *engine.Profile
	generator *workload.Generator

	// The store-wide commit revision of the running entry last observed,
	// 0 before the job was first seen running. The revision, unlike the
	// per-job version, never repeats: a job deleted and re-created under
	// the same name starts again at version 1 but commits at a new
	// revision.
	revision  int64
	changedAt time.Time // when this running commit was first observed

	// The last monitor tick's signals — replaced whole every tick, the
	// pointee never written — and the running tasks it counted.
	signals       *autoscaler.Signals
	observedTasks int

	// The rest is touched only by monitorTick.
	monitoredTick uint64       // the monitor tick that last saw the job running
	inputCategory string       // category inputWritten counts
	inputWritten  int64        // its bytes written, as of that tick
	row           *metrics.Row // the job's per-minute series, resolved on first use
}

// jobSeriesNames names a job's per-minute series in the store: the columns
// of its row, inputRate | backlog | taskCount | configuredTasks.
func jobSeriesNames(job string) [4]string {
	return [4]string{
		autoscaler.InputRateSeries(job),
		"job/" + job + "/backlog",
		"job/" + job + "/taskCount",
		"job/" + job + "/configuredTasks",
	}
}

// allocatedMemo caches Allocated's sum, keyed by the journal head it was
// computed at.
type allocatedMemo struct {
	valid bool
	head  uint64
	sum   config.Resources
}

// recordLocked returns the job's record, creating it if there is none.
func (c *Cluster) recordLocked(job string) *jobRecord {
	rec := c.records[job]
	if rec == nil {
		rec = &jobRecord{}
		c.records[job] = rec
	}
	return rec
}

// runningRecord returns a running job's record and its running
// configuration, the store's typed one; false if the job is not running
// or its running document is no JobConfig. The configuration is shared:
// callers must not mutate it.
func (c *Cluster) runningRecord(job string) (*jobRecord, *config.JobConfig, bool) {
	cfg, revision, ok := c.Store.RunningEntry(job)
	if !ok || cfg == nil {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.recordLocked(job)
	if rec.revision != revision {
		rec.revision, rec.changedAt = revision, c.Clk.Now()
	}
	return rec, cfg, true
}

// dropJobLocked forgets a job: its record, its metric series (row and
// stored points) and the Auto Scaler's per-job state.
func (c *Cluster) dropJobLocked(job string) {
	if rec := c.records[job]; rec != nil && rec.generator != nil {
		rec.generator.Stop()
	}
	delete(c.records, job)
	for _, name := range jobSeriesNames(job) {
		c.Metrics.Delete(name)
	}
	if c.Scaler != nil {
		c.Scaler.Forget(job)
	}
}

// SecondsSinceConfigChange reports how long ago the job's running
// configuration last changed (as observed by the monitor); negative when
// unknown.
func (c *Cluster) SecondsSinceConfigChange(job string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.records[job]
	if rec == nil || rec.revision == 0 {
		return -1
	}
	return c.Clk.Now().Sub(rec.changedAt).Seconds()
}

// New builds (but does not start) a cluster.
func New(cfg Config) (*Cluster, error) {
	cfg.fillDefaults()
	clk := cfg.Clock
	if clk == nil {
		clk = simclock.NewSim(cfg.StartTime)
	}
	c := &Cluster{
		Cfg:     cfg,
		Clk:     clk,
		Bus:     scribe.NewBus(),
		Ckpt:    engine.NewCheckpointStore(),
		Store:   jobstore.New(),
		TW:      tupperware.NewCluster(),
		records: make(map[string]*jobRecord),
	}
	c.Jobs = jobservice.New(c.Store)
	c.Feed = jobservice.NewSpecFeed(c.Store)
	// Remote Task Services churn; evict subscribers silent for 15 min so
	// the feed registry tracks the live fleet, not its history.
	c.Feed.SetSubscriberTTL(c.Clk)
	c.Metrics = metrics.NewStore(c.Clk, cfg.MetricsRetention)
	c.seriesTaskCount = c.Metrics.Handle("cluster/taskCount")
	c.seriesInputRate = c.Metrics.Handle("cluster/inputRate")
	c.seriesDropped = c.Metrics.Handle("cluster/metricsDropped")
	// The Task Service's snapshot index buckets specs by shard; it must be
	// built with the same shard-space size the Shard Manager assigns.
	c.TaskSvc = taskservice.New(c.Store, c.Clk, 90*time.Second, cfg.NumShards)
	smOpts := cfg.ShardMgr
	smOpts.NumShards = cfg.NumShards
	// Refuse mis-ordered failover timing at construction (§IV-C): a
	// ConnectionTimeout at or beyond the FailoverInterval would let the
	// Shard Manager reassign a silent container's shards while it still
	// runs their tasks.
	if err := taskmanager.ValidateFailoverTiming(cfg.TaskMgr.ConnectionTimeout, smOpts.FailoverInterval); err != nil {
		return nil, err
	}
	c.SM = shardmanager.New(c.Clk, smOpts)
	c.act = statesyncer.Actuator(&actuator{c})
	if cfg.WrapActuator != nil {
		c.act = cfg.WrapActuator(c.act)
	}
	for k := 0; k < cfg.SyncerShards; k++ {
		c.Syncer = append(c.Syncer, c.newSyncerNode(k))
	}

	profileFn := func(spec engine.TaskSpec) *engine.Profile {
		c.mu.Lock()
		defer c.mu.Unlock()
		if rec := c.records[spec.Job]; rec != nil && rec.profile != nil {
			return rec.profile
		}
		return engine.DefaultProfile(spec.Operator)
	}

	for h := 0; h < cfg.Hosts; h++ {
		host := fmt.Sprintf("%s-h%04d", cfg.Name, h)
		if err := c.TW.AddHost(host, cfg.HostCapacity); err != nil {
			return nil, err
		}
		for k := 0; k < cfg.ContainersPerHost; k++ {
			id := fmt.Sprintf("%s-tc%04d-%d", cfg.Name, h, k)
			ct, err := c.TW.AllocateOn(host, id, cfg.ContainerCapacity)
			if err != nil {
				return nil, err
			}
			tmOpts := cfg.TaskMgr
			if len(cfg.Regions) > 0 {
				tmOpts.Region = cfg.Regions[h%len(cfg.Regions)]
			}
			if tmOpts.Metrics == nil {
				// Shard-load reports fold a windowed mean off the cluster
				// metrics store instead of instantaneous samples.
				tmOpts.Metrics = c.Metrics
			}
			var smc taskmanager.ShardManagerClient = c.SM
			if cfg.WrapSM != nil {
				smc = cfg.WrapSM(id, smc)
			}
			var src taskmanager.TaskSource = c.TaskSvc
			if cfg.WrapTaskSource != nil {
				src = cfg.WrapTaskSource(id, src)
			}
			tm := taskmanager.New(ct, c.Clk, src, smc, c.Bus, c.Ckpt, profileFn, tmOpts)
			c.tms = append(c.tms, tmEntry{tm: tm, container: ct, host: host})
		}
	}

	// Health evaluations pace with the monitor: they read the signals it
	// computes, and coarse long-horizon simulations stretch both.
	c.Health = health.New(c, c.Metrics, c.Clk, health.Options{Interval: cfg.MonitorInterval})
	if cfg.EnableCapacity {
		c.CapMgr = capacity.New(c.Clk, c.Jobs, c, c)
	}
	var auth autoscaler.Authorizer
	if c.CapMgr != nil {
		auth = c.CapMgr
	}
	if cfg.EnableScaler {
		scOpts := cfg.Scaler
		if scOpts.OnAlert == nil {
			scOpts.OnAlert = func(a autoscaler.Alert) {
				c.mu.Lock()
				c.alerts = append(c.alerts, fmt.Sprintf("%s: %s", a.Job, a.Reason))
				c.mu.Unlock()
			}
		}
		c.Scaler = autoscaler.New(c.Jobs, c, c.Metrics, c.Clk, c, auth, scOpts)
	}
	return c, nil
}

// Start registers every component's periodic work on the clock and places
// the initial shard assignment.
func (c *Cluster) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()

	for _, e := range c.tms {
		e.tm.Start()
	}
	c.SM.AssignUnassigned()
	c.SM.Start()
	for _, n := range c.Syncer {
		n.Start()
	}
	if c.Scaler != nil {
		c.Scaler.Start()
	}
	if c.CapMgr != nil {
		c.CapMgr.Start()
	}
	c.Health.Start()
	c.Clk.TickEvery(c.Cfg.TickInterval, c.advanceTick)
	c.Clk.TickEvery(c.Cfg.MonitorInterval, c.monitorTick)
}

// advanceTick is the task processing tick: every Task Manager drives its
// tasks through one TickInterval of simulated work.
func (c *Cluster) advanceTick() {
	for _, e := range c.tms {
		e.tm.Advance(c.Cfg.TickInterval)
	}
}

// Run advances the simulation by d.
func (c *Cluster) Run(d time.Duration) { c.Clk.RunFor(d) }

// AddJob provisions a job, creates its input category, registers its
// profile and traffic generator, and (if Pattern is set) starts emitting.
// The job's tasks start once the State Syncer commits the running config
// and Task Managers pick up the specs — the paper's 1–2 minute end-to-end
// path.
func (c *Cluster) AddJob(spec JobSpec) error {
	cfg := spec.Config
	if strings.Contains(cfg.Name, "#") {
		return fmt.Errorf("cluster: job name %q must not contain '#'", cfg.Name)
	}
	if err := c.Bus.CreateCategory(cfg.Input.Category, cfg.Input.Partitions); err != nil {
		return err
	}
	if cfg.Output.Category != "" && c.Bus.Partitions(cfg.Output.Category) == 0 {
		// Default sizing; a pipeline planner may have already created the
		// category with an explicit fan-in for the downstream stage.
		if err := c.Bus.CreateCategory(cfg.Output.Category, cfg.Input.Partitions); err != nil {
			return err
		}
	}
	if err := c.Jobs.Provision(cfg); err != nil {
		return err
	}
	profile := spec.Profile
	if profile == nil {
		profile = engine.DefaultProfile(cfg.Operator)
	}
	var g *workload.Generator
	if spec.Pattern != nil {
		g = workload.NewGenerator(c.Bus, c.Clk, cfg.Input.Category, spec.Pattern, spec.AvgMsgSize)
		if len(spec.InputWeights) > 0 {
			g.SetWeights(spec.InputWeights)
		}
		g.Start(c.Cfg.TickInterval)
	}
	c.mu.Lock()
	rec := c.recordLocked(cfg.Name)
	rec.profile, rec.generator = profile, g
	c.mu.Unlock()
	return nil
}

// RemoveJob deletes a job; the syncer tears it down on its next round.
func (c *Cluster) RemoveJob(name string) error {
	c.mu.Lock()
	c.dropJobLocked(name)
	c.mu.Unlock()
	return c.Jobs.Delete(name)
}

// Generator returns the traffic generator of a job, for experiments that
// reshape traffic mid-run.
func (c *Cluster) Generator(job string) (*workload.Generator, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec := c.records[job]; rec != nil && rec.generator != nil {
		return rec.generator, true
	}
	return nil, false
}

// KillHost marks a host dead: its containers stop heartbeating and their
// task processes die (leases force-released).
func (c *Cluster) KillHost(host string) error {
	if err := c.TW.SetHostHealthy(host, false); err != nil {
		return err
	}
	for _, e := range c.tms {
		if e.host == host {
			e.tm.OnContainerDead()
		}
	}
	return nil
}

// RestoreHost brings a host back; its containers re-register with the
// Shard Manager as fresh capacity on their next heartbeat.
func (c *Cluster) RestoreHost(host string) error {
	return c.TW.SetHostHealthy(host, true)
}

// newSyncerNode builds the syncer Node whose home is slice k, wired to
// the cluster's store, actuator, clock, and (if set) shard-driver wrap.
func (c *Cluster) newSyncerNode(k int) *statesyncer.Node {
	return statesyncer.NewNode(c.Store, c.act, c.Clk, statesyncer.NodeOptions{
		Shards:     c.Cfg.SyncerShards,
		Index:      k,
		ID:         fmt.Sprintf("%s-syncer-%d", c.Cfg.Name, k),
		Syncer:     c.Cfg.Syncer,
		WrapDriver: c.Cfg.WrapShardDriver,
	})
}

// KillSyncerNode crash-kills one syncer Node: its ticks stop, in-flight
// writes are suppressed, and its slice leases run down until a peer
// steals them (or, with no peer, until its replacement re-acquires).
func (c *Cluster) KillSyncerNode(k int) {
	if k >= 0 && k < len(c.Syncer) {
		c.Syncer[k].Kill()
	}
}

// RestartSyncerNode models one State Syncer process crash-restarting:
// the old Node is killed (its ticks stop, its in-memory state is lost)
// and a fresh one is built over the same durable Job Store and actuator.
// With viaSnapshot the store is additionally round-tripped through
// Snapshot/Restore first, modeling a replacement booting from the
// database's serialized state rather than warm memory. The replacement
// starts ticking if the cluster is running and re-claims its home slice
// through the ordinary lease path: it keeps its predecessor's ID, so an
// unstolen lease is re-acquired on its first tick; if a peer stole the
// slice meanwhile, the newcomer waits for that lease to lapse rather
// than forcing it.
func (c *Cluster) RestartSyncerNode(k int, viaSnapshot bool) error {
	if k < 0 || k >= len(c.Syncer) {
		return fmt.Errorf("cluster: no syncer node %d", k)
	}
	c.Syncer[k].Kill()
	if viaSnapshot {
		data, err := c.Store.Snapshot()
		if err != nil {
			return fmt.Errorf("cluster: snapshot for syncer restart: %w", err)
		}
		if err := c.Store.Restore(data); err != nil {
			return fmt.Errorf("cluster: restore for syncer restart: %w", err)
		}
	}
	c.Syncer[k] = c.newSyncerNode(k)
	c.mu.Lock()
	started := c.started
	c.mu.Unlock()
	if started {
		c.Syncer[k].Start()
	}
	return nil
}

// SyncerNodeFor returns the index of the syncer Node currently
// responsible for the job: the holder of its slice's lease if one is
// recorded, the slice's home Node otherwise.
func (c *Cluster) SyncerNodeFor(job string) int {
	slice := statesyncer.SliceOfName(job, len(c.Syncer))
	if l, ok := c.Store.ShardLeaseOf(slice); ok {
		for k, node := range c.Syncer {
			if node.ID() == l.Holder {
				return k
			}
		}
	}
	return slice
}

// actuator implements statesyncer.Actuator over the Task Manager fleet.
type actuator struct{ c *Cluster }

func (a *actuator) StopJobTasks(job string) error {
	// Quiesce first: from this instant no Task Manager can start (or
	// restart) the job's tasks from any snapshot, so the stop below is
	// not raced by stale-cache resurrections (§III-B ordering).
	a.c.TaskSvc.Quiesce(job)
	for _, e := range a.c.tms {
		e.tm.StopJob(job)
	}
	if n := a.c.Ckpt.LiveOwners(job); n > 0 {
		return fmt.Errorf("cluster: %d partitions of %s still owned after stop", n, job)
	}
	return nil
}

func (a *actuator) ResumeJob(job string) error {
	a.c.TaskSvc.Unquiesce(job)
	return nil
}

func (a *actuator) RedistributeCheckpoints(job string, partitions, oldCount, newCount int) error {
	// Checkpoints are per-partition (§II), so redistribution is a pure
	// re-mapping — but it is only safe once no task owns a partition,
	// which is exactly the ordering the State Syncer guarantees.
	if n := a.c.Ckpt.LiveOwners(job); n > 0 {
		return fmt.Errorf("cluster: cannot redistribute %s: %d live owners", job, n)
	}
	return nil
}

// taskObs is one running task as the monitor saw it: which task of its
// job, and how fast it processed.
type taskObs struct {
	index int
	rate  float64
}

// jobObs gathers a job's running tasks for one monitor tick. Jobs of a few
// tasks — the long tail — fit the inline array, which tasks points into: a
// jobObs is used where it was made, never copied.
type jobObs struct {
	few      [4]taskObs
	tasks    []taskObs
	memPeak  int64
	diskPeak int64
}

// monitorTick is the job monitor tick: it assembles per-job signals from
// task-level stats, records per-minute metrics, and refreshes the scaler's
// view.
func (c *Cluster) monitorTick() {
	names := c.Store.RunningNames()
	now := c.Clk.Now() // one reading stamps everything the tick records
	observed := make(map[string]*jobObs, len(names))
	// The tick's observations are cut from one slab sized by the running
	// table. It is never appended to beyond that: the map points into it.
	// Tasks of a job that has left the table (a teardown in progress) are
	// the overflow.
	slab := make([]jobObs, 0, len(names))
	running := 0
	observe := func(spec *engine.TaskSpec, st engine.Stats) {
		running++
		o := observed[spec.Job]
		if o == nil {
			if len(slab) < cap(slab) {
				slab = slab[:len(slab)+1]
				o = &slab[len(slab)-1]
			} else {
				o = &jobObs{}
			}
			o.tasks = o.few[:0]
			observed[spec.Job] = o
		}
		o.tasks = append(o.tasks, taskObs{index: spec.Index, rate: st.Rate})
		o.memPeak = max(o.memPeak, st.MemoryBytes)
		o.diskPeak = max(o.diskPeak, st.DiskBytes)
	}
	ooms := make(map[string]int) // job -> OOM kills since the last tick
	for _, e := range c.tms {
		e.tm.EachTaskStats(observe)
		e.tm.DrainOOMs(ooms)
	}

	dt := c.Cfg.MonitorInterval.Seconds()
	totalTasks := 0
	var totalInput float64
	c.monitorTicks++

	// The tick's signals, their records and the task rates are each cut
	// from one allocation; none is appended to beyond the capacity
	// reserved here, and none is reused by a later tick: a scan, or a
	// JobSignals caller, may still hold them while the next tick runs.
	sigs := make([]autoscaler.Signals, 0, len(names))
	recs := make([]*jobRecord, 0, len(names))
	rates := make([]float64, 0, running)
	var idle jobObs
	for _, job := range names {
		rec, cfg, ok := c.runningRecord(job)
		if !ok {
			continue
		}
		rec.monitoredTick = c.monitorTicks
		cat := cfg.Input.Category
		written := c.Bus.TotalWritten(cat)
		if rec.inputCategory != cat {
			rec.inputCategory, rec.inputWritten = cat, 0
		}
		last := rec.inputWritten
		rec.inputWritten = written
		inputRate := float64(written-last) / dt
		if last == 0 && written > 0 {
			// First observation: avoid counting the entire history as one
			// interval's rate.
			inputRate = float64(written) / dt
			if g, ok := c.Generator(job); ok {
				inputRate = g.Rate()
			}
		}

		backlog := max(written-c.Ckpt.Consumed(job, cfg.Input.Partitions), 0)

		// Managers hand their tasks over in map order, and float addition
		// does not commute to the last bit: fold in task-index order, so a
		// seed replays to identical signals. The sort is stable and the
		// managers are visited in a fixed order, so even two instances of
		// one index (a lease violation in progress) fold the same way.
		o := observed[job]
		if o == nil {
			o = &idle
		}
		slices.SortStableFunc(o.tasks, func(a, b taskObs) int { return cmp.Compare(a.index, b.index) })
		var processing float64
		from := len(rates)
		for _, t := range o.tasks {
			processing += t.rate
			rates = append(rates, t.rate)
		}
		var taskRates []float64
		if len(rates) > from {
			taskRates = rates[from:len(rates):len(rates)] // capped: an append by a reader copies
		}
		sigs = append(sigs, autoscaler.Signals{
			InputRate:      inputRate,
			ProcessingRate: processing,
			BacklogBytes:   backlog,
			TaskRates:      taskRates,
			OOMs:           ooms[job],
			MemPeakBytes:   o.memPeak,
			DiskPeakBytes:  o.diskPeak,
			TaskCount:      cfg.TaskCount,
			Threads:        cfg.ThreadsPerTask,
			TaskResources:  cfg.TaskResources,
			Stateful:       cfg.Operator.Stateful(),
			Enforcement:    cfg.Enforcement,
			Priority:       cfg.Priority,
			MaxTaskCount:   cfg.MaxTaskCount,
			Partitions:     cfg.Input.Partitions,
			SLOSeconds:     cfg.SLOSeconds,
		})
		recs = append(recs, rec)
		totalTasks += len(o.tasks)
		totalInput += inputRate

		if rec.row == nil {
			// Under the lock dropJobLocked deletes the four names under, so
			// the row is registered against all of them or none.
			cols := jobSeriesNames(job)
			c.mu.Lock()
			rec.row = c.Metrics.Row(cols[:]...)
			c.mu.Unlock()
		}
		rec.row.RecordAt(now, inputRate, float64(backlog), float64(len(o.tasks)), float64(cfg.TaskCount))
	}

	c.mu.Lock()
	for i, rec := range recs {
		rec.signals, rec.observedTasks = &sigs[i], len(sigs[i].TaskRates) // a rate per running task
	}
	if len(c.records) > len(recs) {
		// Some record is not of a job monitored this tick: a job added but
		// not yet running (keep it), or one that left the running table
		// since the last tick or since its config was last read. RemoveJob
		// forgets a job at once, but until the syncer's teardown every
		// monitor tick, config read and scaler scan remembers it again:
		// forget it for good.
		for job, rec := range c.records {
			if rec.revision != 0 && rec.monitoredTick != c.monitorTicks {
				c.dropJobLocked(job)
			}
		}
	}
	c.mu.Unlock()

	c.seriesTaskCount.RecordAt(now, float64(totalTasks))
	c.seriesInputRate.RecordAt(now, totalInput)
	// Points silently discarded by the store's out-of-order guard signal a
	// buggy reporter; surface the counter as a series so experiments and
	// operators see it move.
	c.seriesDropped.RecordAt(now, float64(c.Metrics.Dropped()))
}

// JobHealth implements health.Source: assemble the §VII health inputs for
// every running job.
func (c *Cluster) JobHealth() []health.JobHealth {
	names := c.Store.RunningNames()
	out := make([]health.JobHealth, 0, len(names))
	for _, job := range names {
		rec, cfg, ok := c.runningRecord(job)
		if !ok {
			continue
		}
		h := health.JobHealth{
			Name:         job,
			DesiredTasks: cfg.TaskCount,
			SLOSeconds:   cfg.SLOSeconds,
			Stopped:      cfg.Stopped,
		}
		c.mu.Lock()
		sig, tasks := rec.signals, rec.observedTasks
		c.mu.Unlock()
		if sig != nil {
			// Running count from the monitor's last observation — O(1) per
			// job instead of scanning the Task Manager fleet.
			h.RunningTasks = tasks
			h.TimeLagged = sig.TimeLagged(0)
			h.OOMs = sig.OOMs
		} else {
			h.RunningTasks = c.JobRunningTasks(job)
		}
		_, h.Quarantined = c.Store.Quarantined(job)
		out = append(out, h)
	}
	return out
}

// DiagnoseJob assembles a root-cause observation for one job and runs the
// auto root-causer's rule chain over it (§III's extension service).
func (c *Cluster) DiagnoseJob(job string) (rootcause.Diagnosis, error) {
	sig, ok := c.JobSignals(job)
	if !ok {
		return rootcause.Diagnosis{}, fmt.Errorf("cluster: no signals for job %q", job)
	}
	obs := rootcause.Observation{
		Signals:            sig,
		SecondsSinceUpdate: c.SecondsSinceConfigChange(job),
	}
	if c.Scaler != nil {
		if p, ok := c.Scaler.PEstimate(job); ok {
			obs.PEstimate = p
		}
	}
	// Single-task signature: exactly one task processing far below the
	// rest while the job overall is busy (§V-D hardware issues).
	if len(sig.TaskRates) > 2 {
		med := metrics.Percentile(sig.TaskRates, 50)
		if med > 0 {
			low := 0
			for _, r := range sig.TaskRates {
				if r < 0.1*med {
					low++
				}
			}
			obs.SingleTaskAffected = low == 1
		}
	}
	return rootcause.Diagnose(job, obs), nil
}

// JobNames lists the running jobs, sorted.
func (c *Cluster) JobNames() []string {
	return c.Store.RunningNames()
}

// Signals implements autoscaler.SignalSource: the running jobs, sorted, and
// the monitor's last signals of each, gathered under one lock. The monitor
// replaces a job's signals whole every tick and never writes one it has
// published, so the scaler reads them without a copy.
func (c *Cluster) Signals() ([]string, []*autoscaler.Signals) {
	jobs := c.Store.RunningNames()
	sigs := make([]*autoscaler.Signals, len(jobs))
	c.mu.Lock()
	for i, job := range jobs {
		if rec := c.records[job]; rec != nil {
			sigs[i] = rec.signals
		}
	}
	c.mu.Unlock()
	return jobs, sigs
}

// JobSignals returns a copy of the monitor's last signals for one job.
func (c *Cluster) JobSignals(job string) (autoscaler.Signals, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec := c.records[job]; rec != nil && rec.signals != nil {
		return *rec.signals, true
	}
	return autoscaler.Signals{}, false
}

// RebalanceInput implements autoscaler.InputRebalancer: even out the
// job's partition weights (the control plane's lever over input skew).
func (c *Cluster) RebalanceInput(job string) error {
	g, ok := c.Generator(job)
	if !ok {
		return fmt.Errorf("cluster: no generator for job %s", job)
	}
	g.SetWeights(nil)
	return nil
}

// TotalCapacity implements capacity.UsageSource: the sum of healthy
// container capacities plus any cross-cluster transfer currently lent to
// (or borrowed from) this cluster.
func (c *Cluster) TotalCapacity() config.Resources {
	var total config.Resources
	for _, e := range c.tms {
		if e.container.Alive() {
			total = total.Add(e.container.Capacity())
		}
	}
	if c.Cfg.CapacityPool != nil {
		total = total.Add(c.Cfg.CapacityPool.Adjustment(c.Cfg.Name))
	}
	return total
}

// Allocated implements capacity.UsageSource: the sum of running jobs'
// reservations. The Capacity Manager asks on every scale-up it
// authorises, and the sum is a function of the running configs alone, so
// it is memoised on the Job Store's journal head, which every commit of
// new content, drop and Restore moves. The head is read before the table: a write landing
// in between is summed under the old head, and its journal entry then
// moves the head and retires the memo.
func (c *Cluster) Allocated() config.Resources {
	head := c.Store.JournalHead()
	c.mu.Lock()
	if m := c.allocated; m.valid && m.head == head {
		c.mu.Unlock()
		return m.sum
	}
	c.mu.Unlock()
	var total config.Resources
	for _, info := range c.ListJobs() {
		if !info.Stopped {
			total = total.Add(info.Footprint)
		}
	}
	c.mu.Lock()
	c.allocated = allocatedMemo{valid: true, head: head, sum: total}
	c.mu.Unlock()
	return total
}

// ListJobs implements capacity.JobLister.
func (c *Cluster) ListJobs() []capacity.JobInfo {
	var out []capacity.JobInfo
	for _, job := range c.Store.RunningNames() {
		_, cfg, ok := c.runningRecord(job)
		if !ok {
			continue
		}
		out = append(out, capacity.JobInfo{
			Name:      job,
			Priority:  cfg.Priority,
			Footprint: cfg.TaskResources.Scale(float64(cfg.TaskCount)),
			Stopped:   cfg.Stopped,
		})
	}
	return out
}

// --- Observability for experiments -----------------------------------

// HostUtil is one host's live utilization snapshot.
type HostUtil struct {
	Host    string
	CPUFrac float64
	MemFrac float64
	Tasks   int
}

// HostUtilizations reports per-host CPU/memory utilization and task
// counts across healthy hosts (figures 6 and 7).
func (c *Cluster) HostUtilizations() []HostUtil {
	byHost := make(map[string]*HostUtil)
	for _, h := range c.TW.Hosts() {
		if h.Healthy {
			byHost[h.Name] = &HostUtil{Host: h.Name}
		}
	}
	for _, e := range c.tms {
		hu, ok := byHost[e.host]
		if !ok || !e.container.Alive() {
			continue
		}
		u := e.tm.Usage()
		hu.CPUFrac += u.CPUCores / c.Cfg.HostCapacity.CPUCores
		hu.MemFrac += float64(u.MemoryBytes) / float64(c.Cfg.HostCapacity.MemoryBytes)
		hu.Tasks += e.tm.TaskCount()
	}
	out := make([]HostUtil, 0, len(byHost))
	for _, h := range c.TW.Hosts() {
		if hu, ok := byHost[h.Name]; ok {
			out = append(out, *hu)
		}
	}
	return out
}

// TotalRunningTasks counts live tasks across the fleet.
func (c *Cluster) TotalRunningTasks() int {
	n := 0
	for _, e := range c.tms {
		n += e.tm.TaskCount()
	}
	return n
}

// JobRunningTasks counts live tasks of one job.
func (c *Cluster) JobRunningTasks(job string) int {
	n := 0
	for _, e := range c.tms {
		n += e.tm.JobTaskCount(job)
	}
	return n
}

// JobBacklog returns the job's unread input bytes.
func (c *Cluster) JobBacklog(job string) int64 {
	_, cfg, ok := c.runningRecord(job)
	if !ok {
		return 0
	}
	written := c.Bus.TotalWritten(cfg.Input.Category)
	return max(written-c.Ckpt.Consumed(job, cfg.Input.Partitions), 0)
}

// TaskFootprints returns the last-observed stats of every running task,
// for fleet-level distributions (figure 5).
func (c *Cluster) TaskFootprints() []engine.Stats {
	var out []engine.Stats
	for _, e := range c.tms {
		e.tm.EachTaskStats(func(_ *engine.TaskSpec, st engine.Stats) { out = append(out, st) })
	}
	return out
}

// Violations reports duplicate-instance lease violations observed so far
// (must stay zero in every healthy experiment).
func (c *Cluster) Violations() int { return c.Ckpt.Violations() }

// Alerts returns operator alerts raised by the scaler.
func (c *Cluster) Alerts() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.alerts...)
}

// TaskManagers exposes the fleet for protocol-level experiments.
func (c *Cluster) TaskManagers() []*taskmanager.Manager {
	out := make([]*taskmanager.Manager, len(c.tms))
	for i, e := range c.tms {
		out[i] = e.tm
	}
	return out
}

// NewRemoteTaskService returns a Task Service that mirrors this
// cluster's Job Store over the spec-feed seam instead of reading it
// directly: a FeedClient polling Feed in process, with the same lease
// TTL and shard-space size as the built-in TaskSvc so a converged
// mirror's index is byte-identical to the local one. The WrapSpecFeed
// hook (fault injection) interposes on the feed when configured.
func (c *Cluster) NewRemoteTaskService(id string) *taskservice.FeedClient {
	return c.NewRemoteTaskServiceOver(id, c.Feed)
}

// NewRemoteTaskServiceOver is NewRemoteTaskService over a caller-chosen
// transport — a taskservice.DialFeed aimed at a FeedListener serving
// this cluster's Feed gives the multi-process topology; the WrapSpecFeed
// hook still interposes above the transport either way.
func (c *Cluster) NewRemoteTaskServiceOver(id string, feed taskservice.SpecFeed) *taskservice.FeedClient {
	if c.Cfg.WrapSpecFeed != nil {
		feed = c.Cfg.WrapSpecFeed(id, feed)
	}
	return taskservice.NewFeedClient(feed, id, c.Clk, 90*time.Second, c.Cfg.NumShards)
}

// Hosts returns the host names, sorted.
func (c *Cluster) Hosts() []string {
	hosts := c.TW.Hosts()
	out := make([]string, len(hosts))
	for i, h := range hosts {
		out[i] = h.Name
	}
	return out
}
