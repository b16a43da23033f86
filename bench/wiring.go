package main

// wiring.go is the only file of the harness that calls into the program
// (repro/internal/...). Everything else drives the control plane through
// the plain-Go methods defined here, so the harness's dependency surface
// is reviewable in one place. It wires the real components from their
// public constructors and takes every per-layer number from outside: by
// timing calls into public functions and by decorators on the public
// seams (statesyncer.Actuator, taskservice.SpecFeed,
// taskmanager.ShardManagerClient, shardmanager.Handler and the
// cluster.Config.Wrap* hooks).

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/autoscaler"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/jobservice"
	"repro/internal/jobstore"
	"repro/internal/scribe"
	"repro/internal/shardmanager"
	"repro/internal/simclock"
	"repro/internal/statesyncer"
	"repro/internal/taskmanager"
	"repro/internal/taskservice"
	"repro/internal/tupperware"
	"repro/internal/wire"
	"repro/internal/workload"
)

// fleetSize sizes the hand-wired control plane.
type fleetSize struct {
	Jobs        int
	TasksPerJob int
	Partitions  int
	Containers  int
	Shards      int
}

func (s fleetSize) tasks() int { return s.Jobs * s.TasksPerJob }

// jobWant is the harness's oracle for one job: what it last committed
// and therefore what the job's tasks must be running.
type jobWant struct {
	version string
	tasks   int
	cpu     float64
	mem     int64
	stopped bool
}

type changeKind int

const (
	changePackage   changeKind = iota // simple sync: package release
	changeResources                   // simple sync: per-task resource bump
	changeTaskCount                   // complex sync: parallelism ±1
	changeStopped                     // complex sync: stop-bit toggle
)

// commitOp is one planned expected-config commit: the job, the kind of
// change, and the oracle state once it has been actuated.
type commitOp struct {
	job  int
	kind changeKind
	want jobWant
}

// taskKey identifies a task without building its "job#index" string.
type taskKey struct {
	job   string
	index int
}

// startedSpec is what a manager's profile hook saw when it last started
// a task: the observable part of the spec the task runs.
type startedSpec struct {
	version string
	tasks   int
	cpu     float64
	mem     int64
}

// managerHandle is one container's Task Manager plus what the harness
// observes about it from outside.
type managerHandle struct {
	tm      *taskmanager.Manager
	host    string
	started map[taskKey]startedSpec // written under the manager's own lock (profile hook)
}

// setupTimes splits set-up by production stage, in seconds.
type setupTimes struct {
	Provision, FirstRound, Resync, Index, Assign, StartTasks, Total float64
}

// fleet is the control plane wired the way production runs it:
// jobservice → statesyncer → spec feed over TCP → mirror Task Service →
// Task Managers registered with the Shard Manager over a Tupperware pool.
type fleet struct {
	size  fleetSize
	tr    *tracer
	clk   *simclock.Sim
	store *jobstore.Store
	jobs  *jobservice.Service
	sync  *statesyncer.Syncer
	act   *fleetActuator
	srv   *jobservice.SpecFeedServer
	lis   *jobservice.FeedListener
	dial  *taskservice.DialTransport
	feed  *timedFeed
	mir   *taskservice.FeedClient
	local *taskservice.Service // oracle: the same index built straight off the primary store
	sm    *shardmanager.Manager
	smc   *timedSM
	tw    *tupperware.Cluster
	ckpt  *engine.CheckpointStore
	tms   []*managerHandle
	byID  map[string]*managerHandle

	names     []string
	want      []jobWant
	wantTasks int

	commits, rejected int
	roundsFailed      int
	journalOverflows  int
	lastJournalHead   uint64
	setup             setupTimes
	tmBase            taskmanager.Stats // manager counters at the end of set-up
	smBase            shardmanager.Stats
	syncBase          statesyncer.Stats
	feedBase          taskservice.FeedClientStats
	srvBase           jobservice.FeedStats
	generationsBase   int
	journalBase       uint64
}

var tailerProfile = engine.DefaultProfile(config.OpTailer)

const (
	baseCPU = 0.5
	baseMem = 512 << 20
	// heartbeatStep is how far the harness moves the fleet's clock
	// between ops: one Task Manager heartbeat interval.
	heartbeatStep = 10 * time.Second
)

func jobName(i int) string { return "fleet/j" + fmt.Sprintf("%05d", i) }

// buildFleet constructs the fleet in production order — provision, first
// syncer round, feed resync, index build, shard assignment — and returns
// once every task runs. The stage split lands in f.setup.
func buildFleet(size fleetSize, tr *tracer) (*fleet, error) {
	start := time.Now()
	clk := simclock.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	f := &fleet{
		size:  size,
		tr:    tr,
		clk:   clk,
		store: jobstore.New(),
		tw:    tupperware.NewCluster(),
		ckpt:  engine.NewCheckpointStore(),
		byID:  make(map[string]*managerHandle, size.Containers),
		names: make([]string, size.Jobs),
		want:  make([]jobWant, size.Jobs),
	}
	f.jobs = jobservice.New(f.store)
	f.srv = jobservice.NewSpecFeed(f.store)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen for spec feed: %w", err)
	}
	f.lis = jobservice.ServeFeed(f.srv, lis, jobservice.ListenerOptions{})
	f.dial = taskservice.DialFeed(f.lis.Addr().String(), taskservice.DialOptions{Clock: clk})
	f.feed = &timedFeed{inner: f.dial, tr: tr}
	f.mir = taskservice.NewFeedClient(f.feed, "bench-mirror", clk, 0, size.Shards)
	f.local = taskservice.New(f.store, clk, 0, size.Shards)
	f.act = &fleetActuator{f: f}
	f.sync = statesyncer.New(f.store, f.act, clk, statesyncer.Options{})
	// A 1 % band (default 10 %) makes the Shard Manager hand shards back
	// to a restored container: one dead container of N leaves the
	// survivors only N/(N-1) over the mean.
	f.sm = shardmanager.New(clk, shardmanager.Options{NumShards: size.Shards, UtilizationBand: 0.01})
	f.smc = &timedSM{ShardManagerClient: f.sm, tr: tr}

	// Four times an even spread of the base reservation: placement is
	// never capacity-bound, resource bumps and a dead container included.
	perContainer := 4 * float64(size.tasks()) / float64(size.Containers)
	capacity := config.Resources{CPUCores: baseCPU * perContainer, MemoryBytes: int64(baseMem * perContainer)}
	bus := scribe.NewBus()
	tmOpts := taskmanager.Options{
		// The harness calls Refresh and reports loads itself; only the
		// heartbeat loop runs off the clock.
		FetchInterval:      1000 * time.Hour,
		LoadReportInterval: 1000 * time.Hour,
		HeartbeatInterval:  heartbeatStep,
	}
	for i := 0; i < size.Containers; i++ {
		host := "h" + fmt.Sprintf("%04d", i)
		if err := f.tw.AddHost(host, capacity); err != nil {
			return nil, err
		}
		ct, err := f.tw.AllocateOn(host, "tc"+fmt.Sprintf("%04d", i), capacity)
		if err != nil {
			return nil, err
		}
		h := &managerHandle{host: host, started: make(map[taskKey]startedSpec)}
		profile := func(spec engine.TaskSpec) *engine.Profile {
			h.started[taskKey{spec.Job, spec.Index}] = startedSpec{
				version: spec.PackageVersion, tasks: spec.TaskCount,
				cpu: spec.Resources.CPUCores, mem: spec.Resources.MemoryBytes,
			}
			return tailerProfile
		}
		h.tm = taskmanager.New(ct, clk, f.mir, f.smc, bus, f.ckpt, profile, tmOpts)
		f.tms = append(f.tms, h)
		f.byID[h.tm.ID()] = h
	}

	// Building the components counts into the first stage.
	stage := start
	lap := func() float64 {
		d := time.Since(stage).Seconds()
		stage = time.Now()
		return d
	}
	for i := range f.names {
		f.names[i] = jobName(i)
		f.want[i] = jobWant{version: "v1", tasks: size.TasksPerJob, cpu: baseCPU, mem: baseMem}
		err := f.jobs.Provision(&config.JobConfig{
			Name:           f.names[i],
			Package:        config.Package{Name: "scuba_tailer", Version: "v1"},
			TaskCount:      size.TasksPerJob,
			ThreadsPerTask: 2,
			TaskResources:  config.Resources{CPUCores: baseCPU, MemoryBytes: baseMem},
			Operator:       config.OpTailer,
			Input:          config.Input{Category: "in_" + strconv.Itoa(i), Partitions: size.Partitions},
			Enforcement:    config.EnforceCgroup,
			MaxTaskCount:   size.Partitions,
			SLOSeconds:     90,
		})
		if err != nil {
			return nil, err
		}
	}
	f.wantTasks = size.tasks()
	f.setup.Provision = lap()

	res := f.sync.RunRound()
	if len(res.Failed) > 0 || res.Simple != size.Jobs {
		return nil, fmt.Errorf("first syncer round: %d simple, %d failed, want %d simple", res.Simple, len(res.Failed), size.Jobs)
	}
	f.setup.FirstRound = lap()

	if err := f.mir.Sync(0); err != nil {
		return nil, fmt.Errorf("feed resync: %w", err)
	}
	f.setup.Resync = lap()

	if got := f.mir.Index().Len(); got != f.wantTasks {
		return nil, fmt.Errorf("mirror index holds %d specs, want %d", got, f.wantTasks)
	}
	f.setup.Index = lap()

	for _, h := range f.tms {
		h.tm.Start()
	}
	if n := f.sm.AssignUnassigned(); n != size.Shards {
		return nil, fmt.Errorf("assigned %d shards, want %d", n, size.Shards)
	}
	assign := lap()
	f.setup.StartTasks = float64(f.smc.addNs.Load()) / 1e9
	f.setup.Assign = assign - f.setup.StartTasks
	f.setup.Total = time.Since(start).Seconds()

	if problems := f.audit(); len(problems) > 0 {
		return nil, fmt.Errorf("fleet not converged after set-up: %s", strings.Join(problems, "; "))
	}
	f.markBaseline()
	return f, nil
}

// markBaseline records every cumulative counter: at the end of set-up,
// and again after the warm-up ops, so that the counters reported for a
// run cover its timed ops alone.
func (f *fleet) markBaseline() {
	f.tmBase = f.managerStats()
	f.smBase = f.sm.Stats()
	f.syncBase = f.sync.Stats()
	f.feedBase = f.mir.Stats()
	f.srvBase = f.srv.Stats()
	f.generationsBase = f.mir.Service().Generations()
	f.journalBase = f.store.JournalHead()
	f.lastJournalHead = f.journalBase
	f.smc.resetRun()
	f.feed.polls.Store(0)
	f.feed.bytes.Store(0)
	f.act.calls.Store(0)
	f.commits, f.rejected, f.journalOverflows = 0, 0, 0
}

// close releases the sockets; the rest of the fleet is garbage.
func (f *fleet) close() {
	f.dial.Close()
	_ = f.lis.Close() // the listener's only error is "already closed"
}

// --- decorators ------------------------------------------------------

// timedFeed is the taskservice.SpecFeed decorator: it times each poll
// (transport plus the server's encode) and counts polls and frame bytes.
type timedFeed struct {
	inner taskservice.SpecFeed
	tr    *tracer
	polls atomic.Int64
	bytes atomic.Int64
}

func (t *timedFeed) PollFeed(req wire.FeedRequest, buf []byte) ([]byte, error) {
	id := t.tr.beginChild("wire.poll")
	out, err := t.inner.PollFeed(req, buf)
	t.tr.end(id)
	t.polls.Add(1)
	t.bytes.Add(int64(len(out) - len(buf)))
	return out, err
}

// timedSM is the taskmanager.ShardManagerClient decorator: it times
// heartbeats and wraps every registered shardmanager.Handler so that
// AddShard / DropShard handling can be told from the Shard Manager's own
// placement work. The embedded client supplies the pass-through methods.
type timedSM struct {
	taskmanager.ShardManagerClient
	tr *tracer

	heartbeatNs, heartbeats atomic.Int64
	addNs, addCalls         atomic.Int64
	dropCalls               atomic.Int64
}

func (t *timedSM) resetRun() {
	t.heartbeatNs.Store(0)
	t.heartbeats.Store(0)
	t.addNs.Store(0)
	t.addCalls.Store(0)
	t.dropCalls.Store(0)
}

func (t *timedSM) Register(id string, capacity config.Resources, h shardmanager.Handler) {
	t.ShardManagerClient.Register(id, capacity, &timedHandler{inner: h, sm: t})
}

func (t *timedSM) RegisterInRegion(id, region string, capacity config.Resources, h shardmanager.Handler) {
	t.ShardManagerClient.RegisterInRegion(id, region, capacity, &timedHandler{inner: h, sm: t})
}

func (t *timedSM) Heartbeat(id string) error {
	start := time.Now()
	err := t.ShardManagerClient.Heartbeat(id)
	t.heartbeatNs.Add(int64(time.Since(start)))
	t.heartbeats.Add(1)
	return err
}

// timedHandler is the shardmanager.Handler decorator.
type timedHandler struct {
	inner shardmanager.Handler
	sm    *timedSM
}

func (h *timedHandler) AddShard(s shardmanager.ShardID) error {
	id := h.sm.tr.beginChild("taskmanager.addshard")
	start := time.Now()
	err := h.inner.AddShard(s)
	h.sm.addNs.Add(int64(time.Since(start)))
	h.sm.addCalls.Add(1)
	h.sm.tr.end(id)
	return err
}

func (h *timedHandler) DropShard(s shardmanager.ShardID) error {
	id := h.sm.tr.beginChild("taskmanager.dropshard")
	err := h.inner.DropShard(s)
	h.sm.dropCalls.Add(1)
	h.sm.tr.end(id)
	return err
}

// fleetActuator is the harness's statesyncer.Actuator: quiesce the job in
// the mirror Task Service, stop it on every manager, resume after the
// commit — the real stop → commit → resume work of a complex sync. The
// syncer calls it from its complex-plan pool, concurrently.
type fleetActuator struct {
	f     *fleet
	calls atomic.Int64
}

func (a *fleetActuator) StopJobTasks(job string) error {
	a.calls.Add(1)
	tr := a.f.tr
	id := tr.beginChild("statesyncer.actuator")
	defer tr.end(id)
	a.f.mir.Service().Quiesce(job)
	stop := tr.begin("taskmanager.stopjob", id)
	for _, h := range a.f.tms {
		h.tm.StopJob(job)
	}
	tr.end(stop)
	if n := a.f.ckpt.LiveOwners(job); n > 0 {
		return fmt.Errorf("bench: %d partitions of %s still owned after stop", n, job)
	}
	return nil
}

func (a *fleetActuator) RedistributeCheckpoints(job string, partitions, oldCount, newCount int) error {
	a.calls.Add(1)
	id := a.f.tr.beginChild("statesyncer.actuator")
	defer a.f.tr.end(id)
	if n := a.f.ckpt.LiveOwners(job); n > 0 {
		return fmt.Errorf("bench: cannot redistribute %s: %d live owners", job, n)
	}
	return nil
}

func (a *fleetActuator) ResumeJob(job string) error {
	a.calls.Add(1)
	id := a.f.tr.beginChild("statesyncer.actuator")
	defer a.f.tr.end(id)
	a.f.mir.Service().Unquiesce(job)
	return nil
}

// --- stages of one tick ----------------------------------------------

// plan computes the commit of the given kind for job j and moves the
// oracle to the state it leads to. Planning is harness work and stays
// outside the timed window; apply is the timed call.
func (f *fleet) plan(j int, kind changeKind, seq int) commitOp {
	w := f.want[j]
	switch kind {
	case changePackage:
		w.version = "v" + strconv.Itoa(seq)
	case changeResources:
		// Alternate between two reservations so a job's footprint stays bounded.
		if w.cpu == baseCPU {
			w.cpu, w.mem = baseCPU*1.5, baseMem*3/2
		} else {
			w.cpu, w.mem = baseCPU, baseMem
		}
	case changeTaskCount:
		if w.tasks > f.size.TasksPerJob {
			w.tasks--
		} else {
			w.tasks++
		}
	case changeStopped:
		w.stopped = !w.stopped
	}
	f.wantTasks += runningTasks(w) - runningTasks(f.want[j])
	f.want[j] = w
	return commitOp{job: j, kind: kind, want: w}
}

// apply commits one planned change through the Job Service.
func (f *fleet) apply(op commitOp) error {
	name := f.names[op.job]
	var err error
	switch op.kind {
	case changePackage:
		err = f.jobs.SetPackageVersion(name, op.want.version)
	case changeResources:
		err = f.jobs.SetTaskResources(name, config.LayerScaler,
			config.Resources{CPUCores: op.want.cpu, MemoryBytes: op.want.mem})
	case changeTaskCount:
		err = f.jobs.SetTaskCount(name, config.LayerScaler, op.want.tasks)
	case changeStopped:
		err = f.jobs.SetStopped(name, op.want.stopped)
	}
	f.commits++
	if err != nil {
		f.rejected++
	}
	return err
}

func runningTasks(w jobWant) int {
	if w.stopped {
		return 0
	}
	return w.tasks
}

// advanceClock moves simulated time on by one heartbeat interval: every
// live manager heartbeats the Shard Manager through timedSM.
func (f *fleet) advanceClock() { f.clk.RunFor(heartbeatStep) }

// syncRound runs one State Syncer round and returns how many simple and
// complex synchronizations it applied.
func (f *fleet) syncRound() (simple, complex int) {
	res := f.sync.RunRound()
	f.roundsFailed += len(res.Failed)
	head := f.store.JournalHead()
	if head-f.lastJournalHead > jobstore.JournalCap {
		f.journalOverflows++
	}
	f.lastJournalHead = head
	return res.Simple, res.Complex
}

// feedSync pumps the TCP spec feed until the mirror has caught up.
func (f *fleet) feedSync() error { return f.mir.Sync(0) }

// buildIndex makes the mirror Task Service publish the index for what the
// feed delivered; the managers' fetches then hit the published snapshot.
func (f *fleet) buildIndex() { f.mir.Index() }

// refreshAll runs every manager's Refresh, one after the other, and
// returns the summed and the slowest manager's time in ms.
func (f *fleet) refreshAll() (sumMs, maxMs float64) {
	for _, h := range f.tms {
		start := time.Now()
		h.tm.Refresh()
		d := float64(time.Since(start)) / 1e6
		sumMs += d
		if d > maxMs {
			maxMs = d
		}
	}
	return sumMs, maxMs
}

// --- failover and rebalance ------------------------------------------

// markDead kills manager i's host: the container's processes are gone.
// It returns how many tasks the container ran.
func (f *fleet) markDead(i int) (lost int, err error) {
	h := f.tms[i]
	lost = h.tm.TaskCount()
	if err := f.tw.SetHostHealthy(h.host, false); err != nil {
		return 0, err
	}
	h.tm.OnContainerDead()
	return lost, nil
}

// failover tells the Shard Manager to fail manager i's container over at
// once: its shards go to the survivors, whose AddShard starts the tasks.
func (f *fleet) failover(i int) { f.sm.FailoverContainer(f.tms[i].tm.ID()) }

// restoreContainer brings manager i's host back; the manager learns on
// its next heartbeat that it was failed over and re-registers empty.
func (f *fleet) restoreContainer(i int) error {
	if err := f.tw.SetHostHealthy(f.tms[i].host, true); err != nil {
		return err
	}
	f.advanceClock()
	if len(f.sm.ContainerIDs()) != len(f.tms) {
		return errors.New("restored container did not re-register on its heartbeat")
	}
	return nil
}

// reportLoads publishes one load vector per shard, proportional to the
// number of tasks the current index hashes to it.
func (f *fleet) reportLoads() {
	idx := f.mir.Index()
	loads := make(map[shardmanager.ShardID]config.Resources, f.size.Shards)
	for s := 0; s < f.size.Shards; s++ {
		n := float64(len(idx.ShardSpecs(shardmanager.ShardID(s))))
		loads[shardmanager.ShardID(s)] = config.Resources{CPUCores: baseCPU * n, MemoryBytes: int64(baseMem * n)}
	}
	f.sm.ReportShardLoads(loads)
}

// rebalance runs one Shard Manager balancing pass and returns its moves.
func (f *fleet) rebalance() int { return f.sm.Rebalance().Moves }

// --- correctness gate ------------------------------------------------

// verifyJob checks that job j's running tasks carry exactly what was
// committed: every partition owned by the right task's live instance,
// and the spec each task was last started from — on the manager that
// owns its shard — matching the oracle.
func (f *fleet) verifyJob(j int) error {
	name, w := f.names[j], f.want[j]
	wantOwners := f.size.Partitions
	if w.stopped {
		wantOwners = 0
	}
	if n := f.ckpt.LiveOwners(name); n != wantOwners {
		return fmt.Errorf("%s: %d partitions owned, want %d", name, n, wantOwners)
	}
	if w.stopped {
		return nil
	}
	for i := 0; i < w.tasks; i++ {
		id := engine.TaskID(name, i)
		owner, ok := f.sm.Owner(shardmanager.ShardOf(id, f.size.Shards))
		h := f.byID[owner]
		if !ok || h == nil {
			return fmt.Errorf("%s: shard has no owner", id)
		}
		got, ok := h.started[taskKey{name, i}]
		if !ok {
			return fmt.Errorf("%s: never started on shard owner %s", id, owner)
		}
		if got.version != w.version || got.tasks != w.tasks || got.cpu != w.cpu || got.mem != w.mem {
			return fmt.Errorf("%s: runs %+v, committed %+v", id, got, w)
		}
		for _, p := range engine.AssignPartitions(f.size.Partitions, w.tasks, i) {
			inst, ok := f.ckpt.Owner(name, p)
			if !ok || !strings.HasPrefix(inst, id+"@") {
				return fmt.Errorf("%s: partition %d owned by %q", id, p, inst)
			}
		}
	}
	return nil
}

// verifyFleet is the per-op global check: the right number of tasks
// runs, no start failed, no partition was ever double-owned, and the
// mirror's index equals the one built straight off the primary store.
func (f *fleet) verifyFleet() []string {
	var problems []string
	running, startErrors := 0, 0
	for _, h := range f.tms {
		running += h.tm.TaskCount()
		startErrors += h.tm.Stats().StartErrors
	}
	if running != f.wantTasks {
		problems = append(problems, fmt.Sprintf("%d tasks running, want %d", running, f.wantTasks))
	}
	if startErrors != f.tmBase.StartErrors {
		problems = append(problems, fmt.Sprintf("%d task start errors", startErrors-f.tmBase.StartErrors))
	}
	if v := f.ckpt.Violations(); v != 0 {
		problems = append(problems, fmt.Sprintf("%d checkpoint-lease violations", v))
	}
	f.local.Invalidate()
	if !taskservice.IndexEqual(f.mir.Index(), f.local.Index()) {
		problems = append(problems, "mirror index differs from the primary store's index")
	}
	return problems
}

// audit is the full check, run after set-up and at the end of a run:
// every running task ID is wanted, runs on the manager that owns its
// shard, and runs nowhere else; every job passes verifyJob.
func (f *fleet) audit() []string {
	problems := f.verifyFleet()
	index := make(map[string]int, len(f.names))
	for j, n := range f.names {
		index[n] = j
	}
	seen := make(map[string]struct{}, f.wantTasks)
	for _, h := range f.tms {
		for _, id := range h.tm.RunningTaskIDs() {
			if _, dup := seen[id]; dup {
				problems = append(problems, id+" runs on two managers")
				continue
			}
			seen[id] = struct{}{}
			cut := strings.LastIndexByte(id, '#')
			j, ok := index[id[:cut]]
			n, _ := strconv.Atoi(id[cut+1:])
			if !ok || n >= runningTasks(f.want[j]) {
				problems = append(problems, id+" runs but is not wanted")
				continue
			}
			if owner, _ := f.sm.Owner(shardmanager.ShardOf(id, f.size.Shards)); owner != h.tm.ID() {
				problems = append(problems, fmt.Sprintf("%s runs on %s, its shard belongs to %s", id, h.tm.ID(), owner))
			}
		}
	}
	if len(seen) != f.wantTasks {
		problems = append(problems, fmt.Sprintf("%d distinct tasks running, want %d", len(seen), f.wantTasks))
	}
	for j := range f.names {
		if err := f.verifyJob(j); err != nil {
			problems = append(problems, err.Error())
		}
		if len(problems) > 20 {
			break
		}
	}
	return problems
}

// --- counters --------------------------------------------------------

func (f *fleet) managerStats() taskmanager.Stats {
	var t taskmanager.Stats
	for _, h := range f.tms {
		s := h.tm.Stats()
		t.Started += s.Started
		t.Stopped += s.Stopped
		t.Restarted += s.Restarted
		t.StartErrors += s.StartErrors
		t.DegradedSkips += s.DegradedSkips
	}
	return t
}

// feedFailures counts feed errors and resyncs since the last baseline:
// set-up's first resync is the only one a run may see.
func (f *fleet) feedFailures() int {
	s := f.mir.Stats()
	return int(s.Failures - f.feedBase.Failures + s.Resyncs - f.feedBase.Resyncs)
}

// counters returns the run's per-layer counts (totals since set-up).
func (f *fleet) counters() map[string]float64 {
	tm, sm, sy := f.managerStats(), f.sm.Stats(), f.sync.Stats()
	fc, fs := f.mir.Stats(), f.srv.Stats()
	hits := float64(fs.FrameHits - f.srvBase.FrameHits)
	misses := float64(fs.FrameMisses - f.srvBase.FrameMisses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	hb := 0.0
	if n := f.smc.heartbeats.Load(); n > 0 {
		hb = float64(f.smc.heartbeatNs.Load()) / float64(n)
	}
	return map[string]float64{
		"jobservice.commits":          float64(f.commits),
		"jobservice.rejected":         float64(f.rejected),
		"jobstore.journal_entries":    float64(f.store.JournalHead() - f.journalBase),
		"jobstore.journal_overflows":  float64(f.journalOverflows),
		"statesyncer.simple":          float64(sy.SimpleSyncs - f.syncBase.SimpleSyncs),
		"statesyncer.complex":         float64(sy.ComplexSyncs - f.syncBase.ComplexSyncs),
		"statesyncer.failed":          float64(sy.Failures - f.syncBase.Failures),
		"statesyncer.sweep_jobs":      float64(sy.SweepJobs - f.syncBase.SweepJobs),
		"statesyncer.actuator_calls":  float64(f.act.calls.Load()),
		"wire.polls":                  float64(f.feed.polls.Load()),
		"wire.bytes":                  float64(f.feed.bytes.Load()),
		"specfeed.frame_hit_ratio":    ratio,
		"specfeed.resyncs":            float64(fs.Resyncs - f.srvBase.Resyncs),
		"taskservice.applied":         float64(fc.Applied - f.feedBase.Applied),
		"taskservice.skipped":         float64(fc.Skipped - f.feedBase.Skipped),
		"taskservice.generations":     float64(f.mir.Service().Generations() - f.generationsBase),
		"taskmanager.started":         float64(tm.Started - f.tmBase.Started),
		"taskmanager.restarted":       float64(tm.Restarted - f.tmBase.Restarted),
		"taskmanager.stopped":         float64(tm.Stopped - f.tmBase.Stopped),
		"taskmanager.start_errors":    float64(tm.StartErrors - f.tmBase.StartErrors),
		"taskmanager.degraded_skips":  float64(tm.DegradedSkips - f.tmBase.DegradedSkips),
		"shardmanager.moves":          float64(sm.Moves - f.smBase.Moves),
		"shardmanager.assign_ms":      f.setup.Assign * 1000,
		"shardmanager.heartbeat_ns":   hb,
		"setup.provision_s":           f.setup.Provision,
		"setup.first_round_s":         f.setup.FirstRound,
		"setup.resync_s":              f.setup.Resync,
		"setup.index_s":               f.setup.Index,
		"setup.assign_s":              f.setup.Assign,
		"setup.start_tasks_s":         f.setup.StartTasks,
		"taskmanager.addshard_calls":  float64(f.smc.addCalls.Load()),
		"taskmanager.dropshard_calls": float64(f.smc.dropCalls.Load()),
	}
}

// --- sim_day: the simulated cluster ----------------------------------

// simSize sizes the simulated cluster. DayHours is the length of the
// scripted day: events fire at 1/6, 2/6, 3/6 and 4/6 of it (hours 4, 8,
// 12 and 16 of a 24-hour day).
type simSize struct {
	Jobs     int
	Hosts    int
	DayHours int
}

// simCluster is cluster.New with the capacity manager on, a scaler the
// harness owns and ticks on the cluster clock (so each Scan is a span),
// timing decorators on the three Wrap* seams, and a remote Task Service
// mirror for the index-equality check.
type simCluster struct {
	size   simSize
	tr     *tracer
	c      *cluster.Cluster
	scaler *autoscaler.Scaler
	scan   simclock.Ticker
	slo    simclock.Ticker
	remote *taskservice.FeedClient

	names    []string
	patterns map[string]workload.Pattern
	rates    []float64
	nextJob  int
	release  int

	smc               *timedSM
	base              simCounts    // cumulative counters at the end of set-up
	actNs, srcNs      atomic.Int64 // time inside the actuator and task-source seams
	scanNs            int64
	scans, actions    int
	sloGood, sloTotal int
	setupSeconds      float64
}

const simMB = 1 << 20

// simActuator and simSource are the decorators installed through
// cluster.Config.WrapActuator and WrapTaskSource; WrapSM gets the
// fleet's timedSM.
type simActuator struct {
	inner statesyncer.Actuator
	s     *simCluster
}

func (a simActuator) timed(fn func() error) error {
	id := a.s.tr.beginChild("sim.actuator")
	start := time.Now()
	err := fn()
	a.s.actNs.Add(int64(time.Since(start)))
	a.s.tr.end(id)
	return err
}

func (a simActuator) StopJobTasks(job string) error {
	return a.timed(func() error { return a.inner.StopJobTasks(job) })
}

func (a simActuator) RedistributeCheckpoints(job string, partitions, oldCount, newCount int) error {
	return a.timed(func() error { return a.inner.RedistributeCheckpoints(job, partitions, oldCount, newCount) })
}

func (a simActuator) ResumeJob(job string) error {
	return a.timed(func() error { return a.inner.ResumeJob(job) })
}

type simSource struct {
	inner taskmanager.TaskSource
	s     *simCluster
}

func (t simSource) Index() *taskservice.SnapshotIndex {
	span := t.s.tr.beginChild("sim.tasksource")
	start := time.Now()
	idx := t.inner.Index()
	t.s.srcNs.Add(int64(time.Since(start)))
	t.s.tr.end(span)
	return idx
}

// buildSim builds the simulated cluster, submits the long-tail diurnal
// fleet, runs the clock until every task runs, and then for one more
// simulated hour.
func buildSim(size simSize, tr *tracer) (*simCluster, error) {
	start := time.Now()
	s := &simCluster{size: size, tr: tr, patterns: make(map[string]workload.Pattern), release: 1}
	cfg := cluster.Config{
		Name:           "simday",
		Hosts:          size.Hosts,
		EnableCapacity: true,
		WrapActuator:   func(inner statesyncer.Actuator) statesyncer.Actuator { return simActuator{inner, s} },
		WrapSM: func(_ string, inner taskmanager.ShardManagerClient) taskmanager.ShardManagerClient {
			if s.smc == nil {
				s.smc = &timedSM{ShardManagerClient: inner, tr: tr}
			}
			return s.smc // every container talks to the one Shard Manager
		},
		WrapTaskSource: func(_ string, inner taskmanager.TaskSource) taskmanager.TaskSource {
			return simSource{inner, s}
		},
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	s.c = c
	opts := c.Cfg.Scaler
	// A job symptom-free for two hours may be downscaled (default: a
	// day), so one simulated day exercises the downscale path too.
	opts.DownscaleAfter = 2 * time.Hour
	var auth autoscaler.Authorizer = c.CapMgr
	s.scaler = autoscaler.New(c.Jobs, c, c.Metrics, c.Clk, c, auth, opts)
	c.Start()

	// The fleet — the long tail of per-job rates — is the same for every
	// seed: how the hot jobs fall onto shards and hosts moves the scaler's
	// and the capacity manager's work per simulated minute by up to 30 %,
	// which would drown any comparison across seeds. The seed draws the
	// day's events. Spare rates beyond the initial fleet feed the new-job
	// submits.
	s.rates = workload.LongTailRates(size.Jobs+64, 3*simMB, 42)
	for i := 0; i < size.Jobs; i++ {
		if err := s.submit(); err != nil {
			return nil, err
		}
	}
	s.remote = c.NewRemoteTaskService("bench-remote")
	if _, err := s.runUntil(10*time.Minute, func() bool { return s.converged() == nil }); err != nil {
		return nil, fmt.Errorf("sim fleet not running after 10 simulated minutes: %v", s.converged())
	}
	// One simulated hour with the scaler on, so the measured day starts
	// with the scaler's rate estimates and an hour of metric history.
	s.scan = c.Clk.TickEvery(time.Minute, s.scanOnce)
	c.Run(time.Hour)
	s.scans, s.actions, s.scanNs = 0, 0, 0
	s.base = s.cumulative()
	s.slo = c.Clk.TickEvery(time.Minute, s.sampleSLO)
	s.setupSeconds = time.Since(start).Seconds()
	return s, nil
}

// submit provisions the next job of the seeded long-tail fleet.
func (s *simCluster) submit() error {
	i := s.nextJob
	s.nextJob++
	rate := s.rates[i]
	tasks := int(math.Ceil(rate / (4 * simMB)))
	if tasks < 1 {
		tasks = 1
	}
	if tasks > 6 {
		tasks = 6
	}
	name := "sim/t" + fmt.Sprintf("%04d", i)
	pattern := workload.Diurnal(rate, rate*0.3, 14, 0.01)
	err := s.c.AddJob(cluster.JobSpec{
		Config: &config.JobConfig{
			Name:           name,
			Package:        config.Package{Name: "scuba_tailer", Version: "v1"},
			TaskCount:      tasks,
			ThreadsPerTask: 2,
			TaskResources:  config.Resources{CPUCores: 2, MemoryBytes: 2 << 30},
			Operator:       config.OpTailer,
			Input:          config.Input{Category: "sim_t" + strconv.Itoa(i) + "_in", Partitions: 32},
			Enforcement:    config.EnforceCgroup,
			MaxTaskCount:   32,
			SLOSeconds:     90,
		},
		Pattern: pattern,
	})
	if err != nil {
		return err
	}
	s.names = append(s.names, name)
	s.patterns[name] = pattern
	return nil
}

func (s *simCluster) scanOnce() {
	id := s.tr.beginChild("autoscaler.scan")
	start := time.Now()
	acts := s.scaler.Scan()
	s.scanNs += int64(time.Since(start))
	s.tr.end(id)
	s.scans++
	s.actions += len(acts)
}

// sampleSLO counts, once a simulated minute, the jobs whose lag is within
// their SLO: the job-minutes behind sim.slo_attainment_pct.
func (s *simCluster) sampleSLO() {
	for _, name := range s.names {
		sig, ok := s.c.JobSignals(name)
		if !ok {
			continue
		}
		s.sloTotal++
		if sig.TimeLagged(0) <= sig.SLOSeconds {
			s.sloGood++
		}
	}
}

// run advances the simulation by d.
func (s *simCluster) run(d time.Duration) { s.c.Run(d) }

func (s *simCluster) now() time.Time { return s.c.Clk.Now() }

// runUntil steps the simulation a second at a time until done reports
// true, and returns the simulated time that took; it gives up after limit.
func (s *simCluster) runUntil(limit time.Duration, done func() bool) (time.Duration, error) {
	for spent := time.Duration(0); spent <= limit; spent += time.Second {
		if done() {
			return spent, nil
		}
		s.c.Run(time.Second)
	}
	return limit, errors.New("condition not met in time")
}

// wantedTasks decodes every running configuration into the task count
// the fleet should run.
func (s *simCluster) wantedTasks() (map[string]int, error) {
	want := make(map[string]int, len(s.names))
	for _, name := range s.c.Store.RunningNames() {
		r, ok := s.c.Store.GetRunningShared(name)
		if !ok {
			continue
		}
		cfg, err := config.JobConfigFromDoc(r.Config)
		if err != nil {
			return nil, err
		}
		if !cfg.Stopped {
			want[name] = cfg.TaskCount
		}
	}
	return want, nil
}

// converged reports nil when every job runs exactly its configured
// number of tasks, each once, with no lease ever double-owned.
func (s *simCluster) converged() error {
	want, err := s.wantedTasks()
	if err != nil {
		return err
	}
	if len(want) < len(s.names)-s.stoppedJobs() {
		return fmt.Errorf("%d of %d jobs have a running configuration", len(want), len(s.names))
	}
	running := make(map[string]int, len(want))
	for _, tm := range s.c.TaskManagers() {
		for _, id := range tm.RunningTaskIDs() {
			running[id[:strings.LastIndexByte(id, '#')]]++
		}
	}
	for name, n := range want {
		if running[name] != n {
			return fmt.Errorf("%s runs %d tasks, configured %d", name, running[name], n)
		}
	}
	for name, n := range running {
		if want[name] != n {
			return fmt.Errorf("%s runs %d tasks, configured %d", name, n, want[name])
		}
	}
	if v := s.c.Violations(); v != 0 {
		return fmt.Errorf("%d checkpoint-lease violations", v)
	}
	return nil
}

// stoppedJobs counts jobs the Capacity Manager has parked.
func (s *simCluster) stoppedJobs() int {
	n := 0
	for _, info := range s.c.ListJobs() {
		if info.Stopped {
			n++
		}
	}
	return n
}

// jobRunning reports whether the named job runs all its configured tasks.
func (s *simCluster) jobRunning(name string) bool {
	cfg, _, err := s.c.Jobs.Desired(name)
	return err == nil && s.c.JobRunningTasks(name) == cfg.TaskCount
}

// spike multiplies the input of every tenth job, offset by pick, by ten
// for half an hour from now.
func (s *simCluster) spike(pick int) error {
	for i := pick % 10; i < len(s.names); i += 10 {
		g, ok := s.c.Generator(s.names[i])
		if !ok {
			return fmt.Errorf("no generator for %s", s.names[i])
		}
		g.SetPattern(workload.Spike(s.patterns[s.names[i]], s.now(), 30*time.Minute, 10))
	}
	return nil
}

// killHost kills the pick-th host and returns its name and the IDs of
// the tasks it ran.
func (s *simCluster) killHost(pick int) (host string, lost []string, err error) {
	hosts := s.c.Hosts()
	host = hosts[pick%len(hosts)]
	// One container per host: manager i serves host i.
	lost = s.c.TaskManagers()[pick%len(hosts)].RunningTaskIDs()
	return host, lost, s.c.KillHost(host)
}

// restoreHost brings a killed host back. simRun calls it at the start of
// a step, which is always second 0 of a simulated minute — not at a
// second drawn by the seed like the other events, because the program has
// a bug there (README.md, "Known program bug"): a Task Manager revived in
// the last seconds before its 60 s snapshot fetch refreshes before its
// first heartbeat has told it that it was failed over, and restarts the
// tasks of shards it no longer owns. A workload may hold no operation
// that fails; draw the restore second by the seed once that is fixed.
func (s *simCluster) restoreHost(host string) error { return s.c.RestoreHost(host) }

// violations is the number of partition leases ever double-owned.
func (s *simCluster) violations() int { return s.c.Violations() }

// recovered reports whether every lost task runs again somewhere, or is
// no longer part of the fleet (its job was scaled down meanwhile).
func (s *simCluster) recovered(lost []string) bool {
	running := make(map[string]struct{})
	for _, tm := range s.c.TaskManagers() {
		for _, id := range tm.RunningTaskIDs() {
			running[id] = struct{}{}
		}
	}
	wanted := make(map[string]struct{})
	s.c.TaskSvc.Index().Each(func(is taskservice.IndexedSpec) { wanted[is.ID] = struct{}{} })
	for _, id := range lost {
		_, runs := running[id]
		_, want := wanted[id]
		if want && !runs {
			return false
		}
	}
	return true
}

// releaseAll pushes a new package version to every job.
func (s *simCluster) releaseAll() error {
	s.release++
	version := "v" + strconv.Itoa(s.release)
	for _, name := range s.names {
		if err := s.c.Jobs.SetPackageVersion(name, version); err != nil {
			return err
		}
	}
	return nil
}

// mirrorEqual syncs the remote Task Service over the spec feed and
// compares its index with the cluster's own.
func (s *simCluster) mirrorEqual() error {
	if err := s.remote.Sync(0); err != nil {
		return err
	}
	s.c.TaskSvc.Invalidate()
	if !taskservice.IndexEqual(s.remote.Index(), s.c.TaskSvc.Index()) {
		return errors.New("remote mirror index differs from the cluster's index")
	}
	return nil
}

// settle stops the scaler and runs five quiet simulated minutes, so the
// final convergence check sees no in-flight change.
func (s *simCluster) settle() {
	s.scan.Stop()
	s.slo.Stop()
	s.c.Run(5 * time.Minute)
}

// seamNs returns the cumulative time spent inside the three decorated
// seams (for the Shard Manager client: its heartbeats) and the scaler.
func (s *simCluster) seamNs() (act, sm, src, scan int64) {
	return s.actNs.Load(), s.smc.heartbeatNs.Load(), s.srcNs.Load(), s.scanNs
}

// simCounts are the components' cumulative counters the run reports.
type simCounts struct {
	vetoes, capacityChecks, jobsStopped, syncerRounds, syncerComplex, tmRestarted int
}

func (s *simCluster) cumulative() simCounts {
	sc, cm, sy := s.scaler.Stats(), s.c.CapMgr.Stats(), s.c.Syncer.Stats()
	n := simCounts{
		vetoes:         sc.DownscalesVetoed + sc.DownscalesSkippedHist + sc.ScaleUpsDenied,
		capacityChecks: cm.Checks,
		jobsStopped:    cm.JobsStopped,
		syncerRounds:   sy.Rounds,
		syncerComplex:  sy.ComplexSyncs,
	}
	for _, tm := range s.c.TaskManagers() {
		n.tmRestarted += tm.Stats().Restarted
	}
	return n
}

// counters returns the run's per-layer counts (totals since set-up).
func (s *simCluster) counters() map[string]float64 {
	now := s.cumulative()
	slo := 0.0
	if s.sloTotal > 0 {
		slo = 100 * float64(s.sloGood) / float64(s.sloTotal)
	}
	return map[string]float64{
		"autoscaler.scans":         float64(s.scans),
		"autoscaler.actions":       float64(s.actions),
		"autoscaler.vetoes":        float64(now.vetoes - s.base.vetoes),
		"capacity.checks":          float64(now.capacityChecks - s.base.capacityChecks),
		"capacity.utilization_pct": 100 * s.c.CapMgr.Utilization(),
		"capacity.jobs_stopped":    float64(now.jobsStopped - s.base.jobsStopped),
		"metrics.series":           float64(len(s.c.Metrics.Names())),
		"metrics.dropped":          float64(s.c.Metrics.Dropped()),
		"sim.syncer_rounds":        float64(now.syncerRounds - s.base.syncerRounds),
		"sim.syncer_complex":       float64(now.syncerComplex - s.base.syncerComplex),
		"sim.tm_restarted":         float64(now.tmRestarted - s.base.tmRestarted),
		"sim.slo_attainment_pct":   slo,
	}
}
