package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/internal/capacity"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/shardmanager"
	"repro/internal/taskmanager"
	"repro/internal/workload"
)

const mb = 1 << 20

func tailerJob(name string, tasks, partitions int) *config.JobConfig {
	return &config.JobConfig{
		Name:           name,
		Package:        config.Package{Name: "scuba_tailer", Version: "v1"},
		TaskCount:      tasks,
		ThreadsPerTask: 2,
		TaskResources:  config.Resources{CPUCores: 2, MemoryBytes: 2 << 30},
		Operator:       config.OpTailer,
		Input:          config.Input{Category: name + "_in", Partitions: partitions},
		Enforcement:    config.EnforceCgroup,
		SLOSeconds:     90,
	}
}

// partitionWrap is a Config.WrapSM that cuts off every container whose
// ID is in cut: its heartbeats time out (shardmanager.ErrTimeout) without
// reaching the Shard Manager — a network partition as both sides see it.
func partitionWrap(cut map[string]bool) func(string, taskmanager.ShardManagerClient) taskmanager.ShardManagerClient {
	return func(id string, inner taskmanager.ShardManagerClient) taskmanager.ShardManagerClient {
		return partitionedSM{ShardManagerClient: inner, id: id, cut: cut}
	}
}

type partitionedSM struct {
	taskmanager.ShardManagerClient
	id  string
	cut map[string]bool
}

func (p partitionedSM) Heartbeat(id string) error {
	if p.cut[p.id] {
		return shardmanager.ErrTimeout
	}
	return p.ShardManagerClient.Heartbeat(id)
}

func newCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	return c
}

func TestEndToEndJobStartsWithinTwoMinutes(t *testing.T) {
	// §IV-D: syncer 30s + cache 90s + fetch 60s → 1-2 min end to end.
	c := newCluster(t, Config{Hosts: 4})
	if err := c.AddJob(JobSpec{
		Config:  tailerJob("scuba/t1", 4, 16),
		Pattern: workload.Constant(4 * mb),
	}); err != nil {
		t.Fatal(err)
	}
	c.Run(3 * time.Minute)
	if got := c.JobRunningTasks("scuba/t1"); got != 4 {
		t.Fatalf("running tasks = %d, want 4 within scheduling budget", got)
	}
	if c.Violations() != 0 {
		t.Fatalf("violations = %d", c.Violations())
	}
}

func TestJobProcessesTrafficAndStaysCaughtUp(t *testing.T) {
	c := newCluster(t, Config{Hosts: 4})
	c.AddJob(JobSpec{
		Config:  tailerJob("j1", 4, 16),
		Pattern: workload.Constant(8 * mb), // capacity 4x2x3MB = 24MB/s
	})
	c.Run(30 * time.Minute)
	// Lag bounded: at most a couple of tick intervals of data.
	if lag := c.JobBacklog("j1"); lag > int64(3*60*8*mb) {
		t.Fatalf("backlog = %d MB, job not keeping up", lag/mb)
	}
	sig, ok := c.JobSignals("j1")
	if !ok {
		t.Fatal("no signals computed")
	}
	if sig.InputRate < 7*mb || sig.InputRate > 9*mb {
		t.Fatalf("InputRate = %.1f MB/s, want ~8", sig.InputRate/mb)
	}
	if sig.ProcessingRate <= 0 {
		t.Fatal("no processing rate observed")
	}
}

func TestPackagePushPropagatesClusterWide(t *testing.T) {
	// §I: a global engine upgrade restarting all tasks completes within
	// 5 minutes.
	c := newCluster(t, Config{Hosts: 4})
	for _, name := range []string{"a", "b", "c"} {
		c.AddJob(JobSpec{Config: tailerJob(name, 4, 16), Pattern: workload.Constant(mb)})
	}
	c.Run(3 * time.Minute)
	if got := c.TotalRunningTasks(); got != 12 {
		t.Fatalf("tasks = %d", got)
	}

	for _, name := range []string{"a", "b", "c"} {
		if err := c.Jobs.SetPackageVersion(name, "v2"); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(5 * time.Minute)
	// All running tasks must now carry v2 specs.
	for _, tm := range c.TaskManagers() {
		tm.EachTaskStats(func(spec *engine.TaskSpec, _ engine.Stats) {
			if spec.PackageVersion != "v2" {
				t.Errorf("%s still runs package %s", spec.ID(), spec.PackageVersion)
			}
		})
	}
	restarts := 0
	for _, tm := range c.TaskManagers() {
		restarts += tm.Stats().Restarted
	}
	if restarts != 12 {
		t.Fatalf("restarted %d tasks, want 12", restarts)
	}
	if c.Violations() != 0 {
		t.Fatalf("violations = %d", c.Violations())
	}
}

func TestParallelismChangeRedistributesSafely(t *testing.T) {
	c := newCluster(t, Config{Hosts: 4})
	c.AddJob(JobSpec{Config: tailerJob("j1", 4, 32), Pattern: workload.Constant(4 * mb)})
	c.Run(3 * time.Minute)

	// Oncall doubles parallelism: complex sync (stop → redistribute →
	// start) plus propagation.
	if err := c.Jobs.SetTaskCount("j1", config.LayerOncall, 8); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Minute)
	if got := c.JobRunningTasks("j1"); got != 8 {
		t.Fatalf("running tasks = %d, want 8", got)
	}
	if c.Violations() != 0 {
		t.Fatalf("violations = %d", c.Violations())
	}
	// No data was lost or duplicated across the redistribution.
	sig, _ := c.JobSignals("j1")
	if sig.BacklogBytes > int64(5*60*4*mb) {
		t.Fatalf("backlog = %d MB after change", sig.BacklogBytes/mb)
	}
}

func TestHostFailureRecoversTasks(t *testing.T) {
	c := newCluster(t, Config{Hosts: 4})
	c.AddJob(JobSpec{Config: tailerJob("j1", 8, 16), Pattern: workload.Constant(4 * mb)})
	c.Run(3 * time.Minute)

	hosts := c.Hosts()
	if err := c.KillHost(hosts[0]); err != nil {
		t.Fatal(err)
	}
	// §IV-D: failover starts after 60s; task downtime < 2 minutes.
	c.Run(3 * time.Minute)
	if got := c.JobRunningTasks("j1"); got != 8 {
		t.Fatalf("running tasks = %d, want 8 after failover", got)
	}
	if c.Violations() != 0 {
		t.Fatalf("violations = %d", c.Violations())
	}
}

func TestScalerRecoversBackloggedJob(t *testing.T) {
	c := newCluster(t, Config{
		Hosts:        4,
		EnableScaler: true,
	})
	// 1 task x 2 threads x 3MB/s = 6 MB/s capacity vs 12 MB/s input.
	job := tailerJob("j1", 1, 32)
	job.MaxTaskCount = 32
	c.AddJob(JobSpec{Config: job, Pattern: workload.Constant(12 * mb)})
	c.Run(30 * time.Minute)

	cfg, _, err := c.Jobs.Desired("j1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TaskCount <= 1 {
		t.Fatalf("scaler did not scale up: %d tasks", cfg.TaskCount)
	}
	// After scale-up the job must catch up: lag within SLO eventually.
	c.Run(60 * time.Minute)
	sig, _ := c.JobSignals("j1")
	lag := sig.TimeLagged(0)
	if lag > 90 {
		t.Fatalf("lag = %.0fs after scale-up, want <= 90", lag)
	}
}

func TestJobRemovalTearsDownTasks(t *testing.T) {
	c := newCluster(t, Config{Hosts: 2})
	c.AddJob(JobSpec{Config: tailerJob("j1", 4, 16), Pattern: workload.Constant(mb)})
	c.Run(3 * time.Minute)
	if err := c.RemoveJob("j1"); err != nil {
		t.Fatal(err)
	}
	c.Run(3 * time.Minute)
	if got := c.JobRunningTasks("j1"); got != 0 {
		t.Fatalf("tasks = %d after removal", got)
	}
	if _, ok := c.Store.GetRunningShared("j1"); ok {
		t.Fatal("running entry survived removal")
	}
}

func TestHostUtilizationsReport(t *testing.T) {
	c := newCluster(t, Config{Hosts: 4})
	c.AddJob(JobSpec{Config: tailerJob("j1", 8, 16), Pattern: workload.Constant(16 * mb)})
	c.Run(10 * time.Minute)
	utils := c.HostUtilizations()
	if len(utils) != 4 {
		t.Fatalf("got %d hosts", len(utils))
	}
	total := 0
	anyCPU := false
	for _, u := range utils {
		total += u.Tasks
		if u.CPUFrac > 0 {
			anyCPU = true
		}
		if u.MemFrac < 0 || u.MemFrac > 1 {
			t.Fatalf("MemFrac = %v", u.MemFrac)
		}
	}
	if total != 8 || !anyCPU {
		t.Fatalf("totals: tasks=%d anyCPU=%v", total, anyCPU)
	}
}

func TestCapacityManagerParksLowPriorityUnderCriticalLoad(t *testing.T) {
	c := newCluster(t, Config{Hosts: 1, EnableCapacity: true})
	// Container capacity ≈ 43 cores. Reserve 42 cores across two jobs:
	// utilization ≈ 0.97 > 0.95 critical.
	vip := tailerJob("vip", 7, 16)
	vip.TaskResources.CPUCores = 3
	vip.Priority = 9
	low := tailerJob("low", 7, 16)
	low.TaskResources.CPUCores = 3
	low.Priority = 1
	c.AddJob(JobSpec{Config: vip, Pattern: workload.Constant(mb)})
	c.AddJob(JobSpec{Config: low, Pattern: workload.Constant(mb)})
	c.Run(10 * time.Minute)

	cfgLow, _, _ := c.Jobs.Desired("low")
	if !cfgLow.Stopped {
		t.Fatal("low-priority job not parked under critical utilization")
	}
	cfgVip, _, _ := c.Jobs.Desired("vip")
	if cfgVip.Stopped {
		t.Fatal("privileged job parked")
	}
	// The stopped bit propagates: the low job's tasks stop.
	if got := c.JobRunningTasks("low"); got != 0 {
		t.Fatalf("low job still runs %d tasks", got)
	}
	if got := c.JobRunningTasks("vip"); got == 0 {
		t.Fatal("vip job has no tasks")
	}
}

func TestMetricsRecorded(t *testing.T) {
	c := newCluster(t, Config{Hosts: 2})
	c.AddJob(JobSpec{Config: tailerJob("j1", 2, 8), Pattern: workload.Constant(2 * mb)})
	c.Run(10 * time.Minute)
	if c.Metrics.WindowAgg("cluster/taskCount", 10*time.Minute).Count == 0 {
		t.Fatal("cluster/taskCount not recorded")
	}
	if c.Metrics.WindowAgg("job/j1/backlog", 10*time.Minute).Count == 0 {
		t.Fatal("job backlog not recorded")
	}
	if n := c.Metrics.Len("job/j1/taskCount"); n < 8 {
		t.Fatalf("only %d task-count points", n)
	}
}

func TestJobNameWithHashRejected(t *testing.T) {
	c := newCluster(t, Config{Hosts: 1})
	err := c.AddJob(JobSpec{Config: tailerJob("bad#name", 1, 4)})
	if err == nil || !strings.Contains(err.Error(), "#") {
		t.Fatalf("err = %v", err)
	}
}

func TestCapacityPressurePrioritizesPrivilegedJobs(t *testing.T) {
	// §V-F: during cluster-level pressure the Capacity Manager instructs
	// the scaler to prioritize privileged jobs — unprivileged scale-ups
	// are denied, privileged ones proceed.
	c := newCluster(t, Config{Hosts: 1, EnableScaler: true, EnableCapacity: true})
	// Fill the cluster to ~80% reserved with privileged ballast (the
	// capacity manager must not simply park it to relieve pressure).
	filler := tailerJob("filler", 8, 16)
	filler.TaskResources.CPUCores = 4 // 32 of 43.2 cores
	filler.Priority = 9
	c.AddJob(JobSpec{Config: filler, Pattern: workload.Constant(mb)})

	// Two identical overloaded jobs, different priorities.
	lowJob := tailerJob("low", 1, 16)
	lowJob.Priority = 0
	lowJob.MaxTaskCount = 8
	vipJob := tailerJob("vip", 1, 16)
	vipJob.Priority = 9
	vipJob.MaxTaskCount = 8
	c.AddJob(JobSpec{Config: lowJob, Pattern: workload.Constant(20 * mb)})
	c.AddJob(JobSpec{Config: vipJob, Pattern: workload.Constant(20 * mb)})
	c.Run(20 * time.Minute)

	vipCfg, _, _ := c.Jobs.Desired("vip")
	lowCfg, _, _ := c.Jobs.Desired("low")
	if vipCfg.TaskCount <= 1 {
		t.Fatalf("privileged job not scaled under pressure: %d tasks", vipCfg.TaskCount)
	}
	if lowCfg.TaskCount > vipCfg.TaskCount {
		t.Fatalf("unprivileged job out-scaled privileged: low=%d vip=%d", lowCfg.TaskCount, vipCfg.TaskCount)
	}
	if c.Scaler.Stats().ScaleUpsDenied == 0 {
		t.Fatal("no scale-ups denied despite pressure")
	}
}

func TestCrossClusterCapacityTransfer(t *testing.T) {
	// §V-F: transferring capacity from another cluster relieves pressure,
	// letting previously-denied unprivileged scale-ups proceed.
	pool := capacity.NewPool()
	c, err := New(Config{
		Name: "dc1", Hosts: 1,
		EnableScaler: true, EnableCapacity: true,
		CapacityPool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	filler := tailerJob("filler", 8, 16)
	filler.TaskResources.CPUCores = 4
	c.AddJob(JobSpec{Config: filler, Pattern: workload.Constant(mb)})
	low := tailerJob("low", 1, 16)
	low.MaxTaskCount = 8
	c.AddJob(JobSpec{Config: low, Pattern: workload.Constant(20 * mb)})
	c.Run(15 * time.Minute)

	before, _, _ := c.Jobs.Desired("low")
	if before.TaskCount > 2 {
		t.Skipf("cluster not actually pressured (low at %d tasks)", before.TaskCount)
	}
	denied := c.Scaler.Stats().ScaleUpsDenied
	if denied == 0 {
		t.Fatal("setup failed: no denials before the transfer")
	}

	// dc2 lends dc1 a rack's worth of capacity.
	pool.Transfer("dc2", "dc1", config.Resources{CPUCores: 50, MemoryBytes: 200 << 30})
	c.Run(15 * time.Minute)
	after, _, _ := c.Jobs.Desired("low")
	if after.TaskCount <= before.TaskCount {
		t.Fatalf("transfer did not unblock scaling: %d -> %d tasks", before.TaskCount, after.TaskCount)
	}
}

func TestRebalanceInputEvensWeights(t *testing.T) {
	c := newCluster(t, Config{Hosts: 2})
	job := tailerJob("skewed", 4, 8)
	c.AddJob(JobSpec{
		Config:       job,
		Pattern:      workload.Constant(8 * mb),
		InputWeights: []float64{10, 1, 1, 1, 1, 1, 1, 1},
	})
	c.Run(5 * time.Minute)
	b0, _, _ := c.Bus.Written("skewed_in", 0)
	b1, _, _ := c.Bus.Written("skewed_in", 1)
	if b0 < 5*b1 {
		t.Fatalf("setup: weights not applied (%d vs %d)", b0, b1)
	}
	if err := c.RebalanceInput("skewed"); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Minute)
	e0, _, _ := c.Bus.Written("skewed_in", 0)
	e1, _, _ := c.Bus.Written("skewed_in", 1)
	if d0, d1 := e0-b0, e1-b1; d0 != d1 {
		t.Fatalf("post-rebalance deltas uneven: %d vs %d", d0, d1)
	}
	if err := c.RebalanceInput("no-such-job"); err == nil {
		t.Fatal("rebalance of unknown job accepted")
	}
}

func TestTaskFootprintsAndConfigChangeAge(t *testing.T) {
	c := newCluster(t, Config{Hosts: 2})
	c.AddJob(JobSpec{Config: tailerJob("j1", 4, 8), Pattern: workload.Constant(4 * mb)})
	c.Run(5 * time.Minute)
	fp := c.TaskFootprints()
	if len(fp) != 4 {
		t.Fatalf("footprints = %d", len(fp))
	}
	anyMem := false
	for _, st := range fp {
		if st.MemoryBytes > 0 {
			anyMem = true
		}
	}
	if !anyMem {
		t.Fatal("no memory observed in footprints")
	}
	age := c.SecondsSinceConfigChange("j1")
	if age < 0 || age > 6*60 {
		t.Fatalf("config age = %v", age)
	}
	if got := c.SecondsSinceConfigChange("ghost"); got >= 0 {
		t.Fatalf("ghost job age = %v, want negative", got)
	}
	if len(c.Alerts()) != 0 {
		t.Fatalf("unexpected alerts: %v", c.Alerts())
	}
}

func TestRegionalClusterPinsJobShards(t *testing.T) {
	// §VI: the Scuba Tailer service runs in three replicated regions.
	// Pin one job's shards to one region and verify every task lands on
	// hosts of that region across placement and failover.
	c := newCluster(t, Config{Hosts: 6, Regions: []string{"west", "east", "central"}})
	c.AddJob(JobSpec{Config: tailerJob("pinned", 4, 8), Pattern: workload.Constant(2 * mb)})
	// Pin the job's task shards to "east" before tasks start.
	for i := 0; i < 4; i++ {
		id := engine.TaskID("pinned", i)
		c.SM.SetShardRegion(shardmanager.ShardOf(id, c.SM.NumShards()), "east")
	}
	c.SM.Rebalance() // repatriate any already-placed shards
	c.Run(5 * time.Minute)

	if got := c.JobRunningTasks("pinned"); got != 4 {
		t.Fatalf("running tasks = %d", got)
	}
	// Hosts 1 and 4 are "east" (round-robin over 6 hosts x 3 regions).
	eastHosts := map[string]bool{c.Hosts()[1]: true, c.Hosts()[4]: true}
	for i, tm := range c.TaskManagers() {
		for _, id := range tm.RunningTaskIDs() {
			if len(id) >= 6 && id[:6] == "pinned" {
				host := c.Hosts()[i] // tmEntry order follows host order (1 per host)
				if !eastHosts[host] {
					t.Fatalf("task %s on non-east host %s", id, host)
				}
			}
		}
	}
	if c.Violations() != 0 {
		t.Fatalf("violations = %d", c.Violations())
	}
}
