package taskmanager

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/jobstore"
	"repro/internal/scribe"
	"repro/internal/shardmanager"
	"repro/internal/simclock"
	"repro/internal/taskservice"
	"repro/internal/tupperware"
	"repro/internal/wire"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// runningOf is cfg as a running commit, encoded as the Job Service
// encodes a config: the store decodes it.
func runningOf(cfg *config.JobConfig) jobstore.Merged {
	return jobstore.Merged{Doc: wire.JobConfigBlob(cfg)}
}

// world wires a minimal Task Management stack: job store → task service →
// shard manager → N task managers on a tupperware cluster.
type world struct {
	clk   *simclock.Sim
	store *jobstore.Store
	ts    *taskservice.Service
	sm    *shardmanager.Manager
	bus   *scribe.Bus
	ckpt  *engine.CheckpointStore
	tw    *tupperware.Cluster
	tms   []*Manager
	links []*blackoutSM // container i's Shard Manager link, to cut with setDark
}

func newWorld(t *testing.T, containers int) *world {
	t.Helper()
	return newWorldWrapped(t, containers, nil)
}

// newWorldWrapped is newWorld with container i's Shard Manager link run
// through wrap (nil: the Shard Manager itself), under links[i].
func newWorldWrapped(t *testing.T, containers int, wrap func(i int, sm ShardManagerClient) ShardManagerClient) *world {
	t.Helper()
	w := &world{
		clk:   simclock.NewSim(epoch),
		store: jobstore.New(),
		bus:   scribe.NewBus(),
		ckpt:  engine.NewCheckpointStore(),
		tw:    tupperware.NewCluster(),
	}
	w.ts = taskservice.New(w.store, w.clk, 90*time.Second, 64)
	w.sm = shardmanager.New(w.clk, shardmanager.Options{NumShards: 64})
	profile := func(spec engine.TaskSpec) *engine.Profile {
		return engine.DefaultProfile(spec.Operator)
	}
	for i := 0; i < containers; i++ {
		host := fmt.Sprintf("h%d", i)
		if err := w.tw.AddHost(host, config.Resources{CPUCores: 48, MemoryBytes: 256 << 30}); err != nil {
			t.Fatal(err)
		}
		ct, err := w.tw.AllocateOn(host, fmt.Sprintf("tc%d", i), config.Resources{CPUCores: 40, MemoryBytes: 200 << 30})
		if err != nil {
			t.Fatal(err)
		}
		var smc ShardManagerClient = w.sm
		if wrap != nil {
			smc = wrap(i, smc)
		}
		link := &blackoutSM{ShardManagerClient: smc}
		w.links = append(w.links, link)
		tm := New(ct, w.clk, w.ts, link, w.bus, w.ckpt, profile, Options{})
		tm.Start()
		w.tms = append(w.tms, tm)
	}
	w.sm.AssignUnassigned()
	return w
}

// addJob commits a running config for a tailer job and creates its input.
func (w *world) addJob(t *testing.T, name string, tasks, partitions int) {
	t.Helper()
	cfg := &config.JobConfig{
		Name:           name,
		Package:        config.Package{Name: "tailer", Version: "v1"},
		TaskCount:      tasks,
		ThreadsPerTask: 2,
		TaskResources:  config.Resources{CPUCores: 2, MemoryBytes: 2 << 30},
		Operator:       config.OpTailer,
		Input:          config.Input{Category: name + "_in", Partitions: partitions},
		Enforcement:    config.EnforceCgroup,
		SLOSeconds:     90,
	}
	if err := w.bus.CreateCategory(name+"_in", partitions); err != nil {
		t.Fatal(err)
	}
	doc := runningOf(cfg)
	w.store.CommitRunning(name, doc, 1)
	w.ts.Invalidate()
}

func (w *world) totalRunning() int {
	n := 0
	for _, tm := range w.tms {
		n += tm.TaskCount()
	}
	return n
}

func (w *world) refreshAll() {
	for _, tm := range w.tms {
		tm.Refresh()
	}
}

func TestTasksStartAcrossContainers(t *testing.T) {
	w := newWorld(t, 4)
	w.addJob(t, "j1", 8, 16)
	w.refreshAll()
	if got := w.totalRunning(); got != 8 {
		t.Fatalf("running tasks = %d, want 8", got)
	}
	// Exactly one instance of each task.
	seen := map[string]int{}
	for _, tm := range w.tms {
		for _, id := range tm.RunningTaskIDs() {
			seen[id]++
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("task %s has %d instances", id, n)
		}
	}
	if w.ckpt.Violations() != 0 {
		t.Fatalf("lease violations: %d", w.ckpt.Violations())
	}
}

func TestPeriodicRefreshPicksUpNewJobs(t *testing.T) {
	w := newWorld(t, 2)
	w.addJob(t, "j1", 4, 8)
	// No manual refresh: within one fetch interval tasks appear.
	w.clk.RunFor(61 * time.Second)
	if got := w.totalRunning(); got != 4 {
		t.Fatalf("running tasks = %d, want 4 after fetch interval", got)
	}
}

func TestJobRemovalStopsTasks(t *testing.T) {
	w := newWorld(t, 2)
	w.addJob(t, "j1", 4, 8)
	w.refreshAll()
	w.store.DropRunning("j1")
	w.ts.Invalidate()
	w.refreshAll()
	if got := w.totalRunning(); got != 0 {
		t.Fatalf("running tasks = %d, want 0 after removal", got)
	}
	if w.ckpt.LiveOwners("j1") != 0 {
		t.Fatal("leases leaked after job removal")
	}
}

func TestSpecChangeRestartsTask(t *testing.T) {
	w := newWorld(t, 2)
	w.addJob(t, "j1", 2, 4)
	w.refreshAll()
	before := w.tms[0].Stats().Restarted + w.tms[1].Stats().Restarted
	if before != 0 {
		t.Fatalf("restarts before change = %d", before)
	}
	// Package bump: same task identity, different spec.
	r, _, _ := w.store.RunningDoc("j1")
	cfg := *r.Config // the store's is shared: change a copy
	cfg.Package.Version = "v2"
	doc := runningOf(&cfg)
	w.store.CommitRunning("j1", doc, 2)
	w.ts.Invalidate()
	w.refreshAll()
	after := w.tms[0].Stats().Restarted + w.tms[1].Stats().Restarted
	if after != 2 {
		t.Fatalf("restarts = %d, want 2", after)
	}
	if got := w.totalRunning(); got != 2 {
		t.Fatalf("running tasks = %d", got)
	}
}

func TestShardMoveProtocolKeepsSingleInstance(t *testing.T) {
	w := newWorld(t, 2)
	w.addJob(t, "j1", 8, 16)
	w.refreshAll()

	// Force imbalance and rebalance: shards (and their tasks) move.
	for _, tm := range w.tms {
		tm.Advance(time.Second)
		tm.ReportLoads()
	}
	for _, s := range w.sm.ShardsOf(w.tms[0].ID()) {
		w.sm.ReportShardLoads(map[shardmanager.ShardID]config.Resources{s: {CPUCores: 8, MemoryBytes: 8 << 30}})
	}
	w.sm.Rebalance()
	w.refreshAll()

	if got := w.totalRunning(); got != 8 {
		t.Fatalf("running tasks = %d, want 8 after moves", got)
	}
	if w.ckpt.Violations() != 0 {
		t.Fatalf("lease violations after shard moves: %d", w.ckpt.Violations())
	}
}

func TestProcessingAndLoadReporting(t *testing.T) {
	w := newWorld(t, 2)
	w.addJob(t, "j1", 2, 4)
	w.refreshAll()
	w.bus.AppendEven("j1_in", 100<<20, 1000)
	for _, tm := range w.tms {
		tm.Advance(10 * time.Second)
	}
	var processed int64
	for _, tm := range w.tms {
		tm.EachTaskStats(func(_ *engine.TaskSpec, st engine.Stats) { processed += st.ProcessedBytes })
		if u := tm.Usage(); tm.TaskCount() > 0 && u.MemoryBytes == 0 {
			t.Fatal("usage not tracked")
		}
	}
	if processed == 0 {
		t.Fatal("no bytes processed")
	}
	w.tms[0].ReportLoads() // must not panic; SM receives loads
}

func TestHostFailureFailsOverTasks(t *testing.T) {
	w := newWorld(t, 3)
	w.addJob(t, "j1", 6, 12)
	w.refreshAll()
	w.sm.Start()
	defer w.sm.Stop()

	// Kill host 0. Its container stops heartbeating; the harness releases
	// the dead processes' leases.
	w.tw.SetHostHealthy("h0", false)
	w.tms[0].OnContainerDead()

	// Within ~70s the SM fails over; remaining TMs pick up tasks on their
	// next refresh.
	w.clk.RunFor(3 * time.Minute)
	if got := w.tms[1].TaskCount() + w.tms[2].TaskCount(); got != 6 {
		t.Fatalf("survivors run %d tasks, want 6", got)
	}
	if w.ckpt.Violations() != 0 {
		t.Fatalf("violations after failover: %d", w.ckpt.Violations())
	}
}

func TestProactiveTimeoutPreventsDuplicates(t *testing.T) {
	// The §IV-C scenario: connection failure, not host failure. The TM is
	// alive and processing. Without the proactive 40s reboot, the SM's
	// 60s failover would start duplicate tasks elsewhere.
	w := newWorld(t, 2)
	w.addJob(t, "j1", 4, 8)
	w.refreshAll()
	w.sm.Start()
	defer w.sm.Stop()

	before := w.tms[0].TaskCount()
	if before == 0 {
		t.Skip("all shards landed on tm1; hash layout changed")
	}
	w.links[0].setDark(true)

	// At 40s the TM reboots itself (stops tasks); at 60s SM fails over;
	// tm1 then starts the tasks.
	w.clk.RunFor(3 * time.Minute)

	if w.tms[0].Stats().Reboots != 1 {
		t.Fatalf("reboots = %d, want 1", w.tms[0].Stats().Reboots)
	}
	if got := w.tms[1].TaskCount(); got != 4 {
		t.Fatalf("tm1 runs %d tasks, want all 4", got)
	}
	// The invariant the protocol exists for:
	if w.ckpt.Violations() != 0 {
		t.Fatalf("duplicate instances existed: %d violations", w.ckpt.Violations())
	}
}

func TestReconnectBeforeFailoverKeepsShards(t *testing.T) {
	w := newWorld(t, 2)
	w.addJob(t, "j1", 4, 8)
	w.refreshAll()
	w.sm.Start()
	defer w.sm.Stop()

	shardsBefore := len(w.tms[0].Shards())
	w.links[0].setDark(true)
	w.clk.RunFor(45 * time.Second) // reboot at 40s, failover not yet
	w.links[0].setDark(false)
	w.clk.RunFor(15 * time.Second) // heartbeat resumes before 60s silence

	if got := len(w.tms[0].Shards()); got != shardsBefore {
		t.Fatalf("shards = %d, want %d (kept across reboot)", got, shardsBefore)
	}
	// Tasks restart in place on the next refresh.
	w.clk.RunFor(2 * time.Minute)
	total := w.totalRunning()
	if total != 4 {
		t.Fatalf("running tasks = %d, want 4", total)
	}
	if w.ckpt.Violations() != 0 {
		t.Fatalf("violations: %d", w.ckpt.Violations())
	}
}

func TestWithoutProactiveTimeoutDuplicatesWouldOccur(t *testing.T) {
	// Ablation: configure the TM's connection timeout LONGER than the
	// failover interval — the misconfiguration the paper's 40s<60s design
	// rule prevents — and show the duplicate-instance hazard is real.
	clk := simclock.NewSim(epoch)
	store := jobstore.New()
	bus := scribe.NewBus()
	ckpt := engine.NewCheckpointStore()
	tw := tupperware.NewCluster()
	ts := taskservice.New(store, clk, 90*time.Second, 64)
	sm := shardmanager.New(clk, shardmanager.Options{NumShards: 64})
	profile := func(spec engine.TaskSpec) *engine.Profile {
		return engine.DefaultProfile(spec.Operator)
	}
	var tms []*Manager
	bsm := &blackoutSM{ShardManagerClient: sm}
	for i := 0; i < 2; i++ {
		tw.AddHost(fmt.Sprintf("h%d", i), config.Resources{CPUCores: 48, MemoryBytes: 256 << 30})
		ct, _ := tw.AllocateOn(fmt.Sprintf("h%d", i), fmt.Sprintf("tc%d", i), config.Resources{CPUCores: 40, MemoryBytes: 200 << 30})
		var client ShardManagerClient = sm
		if i == 0 {
			client = bsm // only tm0's link is cut
		}
		tm := New(ct, clk, ts, client, bus, ckpt, profile, Options{
			ConnectionTimeout: 10 * time.Minute, // BROKEN: > failover 60s
		})
		tm.Start()
		tms = append(tms, tm)
	}
	sm.AssignUnassigned()
	sm.Start()
	defer sm.Stop()

	cfg := &config.JobConfig{
		Name: "j1", Package: config.Package{Name: "t", Version: "v1"},
		TaskCount: 4, ThreadsPerTask: 1,
		TaskResources: config.Resources{CPUCores: 1, MemoryBytes: 1 << 30},
		Operator:      config.OpTailer,
		Input:         config.Input{Category: "j1_in", Partitions: 8},
	}
	bus.CreateCategory("j1_in", 8)
	doc := runningOf(cfg)
	store.CommitRunning("j1", doc, 1)
	ts.Invalidate()
	for _, tm := range tms {
		tm.Refresh()
	}
	if tms[0].TaskCount() == 0 {
		t.Skip("all shards on tm1; hash layout changed")
	}

	bsm.setDark(true)
	clk.RunFor(5 * time.Minute)

	// tm0 never rebooted (timeout too long) and still holds leases; tm1
	// was handed the shards and tried to start duplicates.
	if tms[0].Stats().Reboots != 0 {
		t.Fatal("unexpected reboot")
	}
	if ckpt.Violations() == 0 {
		t.Fatal("expected duplicate-instance violations with broken timeout ordering")
	}
}

func TestShutdownStopsEverything(t *testing.T) {
	w := newWorld(t, 1)
	w.addJob(t, "j1", 2, 4)
	w.refreshAll()
	w.tms[0].Shutdown()
	if w.tms[0].TaskCount() != 0 {
		t.Fatal("tasks survived shutdown")
	}
	if w.ckpt.LiveOwners("j1") != 0 {
		t.Fatal("leases survived shutdown")
	}
	// Periodic work cancelled: nothing restarts.
	w.clk.RunFor(5 * time.Minute)
	if w.tms[0].TaskCount() != 0 {
		t.Fatal("tasks restarted after shutdown")
	}
}

func TestOOMKillsCounted(t *testing.T) {
	w := newWorld(t, 1)
	cfg := &config.JobConfig{
		Name: "j1", Package: config.Package{Name: "t", Version: "v1"},
		TaskCount: 1, ThreadsPerTask: 2,
		TaskResources: config.Resources{CPUCores: 2, MemoryBytes: 401 << 20},
		Operator:      config.OpTailer,
		Input:         config.Input{Category: "j1_in", Partitions: 2},
		Enforcement:   config.EnforceCgroup,
	}
	w.bus.CreateCategory("j1_in", 2)
	doc := runningOf(cfg)
	w.store.CommitRunning("j1", doc, 1)
	w.ts.Invalidate()
	w.refreshAll()
	w.bus.AppendEven("j1_in", 1<<30, 0)
	for i := 0; i < 5; i++ {
		w.tms[0].Advance(10 * time.Second)
	}
	if w.tms[0].Stats().OOMKills == 0 {
		t.Fatal("OOM kills not observed")
	}
}

func TestLoadReportsReachShardManager(t *testing.T) {
	w := newWorld(t, 1)
	w.addJob(t, "j1", 2, 4)
	w.refreshAll()
	w.bus.AppendEven("j1_in", 100<<20, 0)
	w.tms[0].Advance(10 * time.Second)
	w.tms[0].ReportLoads()
	// Every owned shard has a load report; shards hosting tasks carry
	// nonzero CPU.
	var nonzero int
	for _, s := range w.tms[0].Shards() {
		_ = s
	}
	for _, id := range w.tms[0].RunningTaskIDs() {
		s := shardmanager.ShardOf(id, w.sm.NumShards())
		// The SM's next rebalance would use these loads; verify through
		// a rebalance result: mean score must be positive.
		_ = s
		nonzero++
	}
	if nonzero == 0 {
		t.Skip("no tasks on tm0")
	}
	res := w.sm.Rebalance()
	if res.MeanScore <= 0 {
		t.Fatalf("reported loads not visible to balancer: %+v", res)
	}
}

func TestDeadContainerSkipsWork(t *testing.T) {
	w := newWorld(t, 1)
	w.addJob(t, "j1", 2, 4)
	w.refreshAll()
	w.tw.SetHostHealthy("h0", false)
	w.tms[0].OnContainerDead()
	// None of the periodic entry points may act for a dead container.
	w.tms[0].Refresh()
	w.tms[0].Advance(time.Second)
	w.tms[0].ReportLoads()
	if w.tms[0].TaskCount() != 0 {
		t.Fatal("dead container has running tasks")
	}
	// Revival: host healthy again; container re-registers via heartbeat
	// and picks its work back up.
	w.tw.SetHostHealthy("h0", true)
	w.clk.RunFor(3 * time.Minute)
	if w.tms[0].TaskCount() == 0 {
		t.Fatal("revived container never resumed tasks")
	}
	if w.ckpt.Violations() != 0 {
		t.Fatalf("violations = %d", w.ckpt.Violations())
	}
}

func TestShutdownUnderLoad(t *testing.T) {
	w := newWorld(t, 2)
	w.addJob(t, "j1", 4, 8)
	w.refreshAll()
	w.bus.AppendEven("j1_in", 10<<20, 0)
	w.tms[0].Advance(time.Second)
	w.tms[0].Shutdown()
	if w.tms[0].TaskCount() != 0 {
		t.Fatal("tasks survived shutdown")
	}
	// Checkpoints persisted cleanly: offsets present for any partition the
	// stopped tasks had consumed.
	var consumed int64
	for p := 0; p < 8; p++ {
		consumed += w.ckpt.Offset("j1", p)
	}
	if consumed == 0 {
		t.Skip("tm0 had no tasks; nothing to verify")
	}
}

func TestRestartedManagerRecoversFromStoredMappingDuringOutage(t *testing.T) {
	// §IV-D's deepest degraded mode: the Shard Manager is down AND a Task
	// Manager restarts, losing its in-memory shard set. The restarted
	// manager recovers its shards from the stored mapping and resumes its
	// tasks without the Shard Manager ever responding.
	w := newWorld(t, 2)
	w.addJob(t, "j1", 4, 8)
	w.refreshAll()
	before := w.tms[0].TaskCount()
	if before == 0 {
		t.Skip("all shards on tm1; hash layout changed")
	}

	// The outage begins; the container crashes and restarts with empty
	// local state (a brand-new Manager for the same container). The old
	// process is gone: its leases are force-released and its loops stop.
	w.sm.SetAvailable(false)
	w.tms[0].OnContainerDead() // crash: leases force-released
	w.tms[0].Shutdown()        // process exit: periodic loops cease
	ct, _ := w.tw.Container("tc0")
	profile := func(spec engine.TaskSpec) *engine.Profile {
		return engine.DefaultProfile(spec.Operator)
	}
	fresh := New(ct, w.clk, w.ts, w.sm, w.bus, w.ckpt, profile, Options{})
	fresh.Start()

	// Heartbeats return ErrUnavailable; the fresh manager adopts the
	// stored mapping and restarts its tasks.
	w.clk.RunFor(2 * time.Minute)
	if got := fresh.TaskCount(); got != before {
		t.Fatalf("restarted manager runs %d tasks, want %d from stored mapping", got, before)
	}
	if w.ckpt.Violations() != 0 {
		t.Fatalf("violations = %d", w.ckpt.Violations())
	}

	// Service recovery: heartbeats resume; no mass failover, no churn.
	w.sm.SetAvailable(true)
	w.clk.RunFor(2 * time.Minute)
	if got := fresh.TaskCount(); got != before {
		t.Fatalf("post-recovery tasks = %d, want %d", got, before)
	}
}
