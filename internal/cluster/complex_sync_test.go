package cluster

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/workload"
)

// TestParallelismChangeWithStaleCachesNoDuplicates is the regression test
// for the stale-snapshot race: a complex synchronization changes the
// partition→task mapping while Task Managers hold cached snapshots of the
// OLD specs. Without the quiesce phase, a stale manager can restart an
// old-parallelism task whose partitions overlap a new-parallelism task on
// another manager — duplicate processing. The paper's ordering ("only
// then starts the new tasks", §III-B) forbids exactly this.
func TestParallelismChangeWithStaleCachesNoDuplicates(t *testing.T) {
	c := newCluster(t, Config{Hosts: 6})
	c.AddJob(JobSpec{Config: tailerJob("j1", 6, 24), Pattern: workload.Constant(4 * mb)})
	c.Run(3 * time.Minute)
	if got := c.JobRunningTasks("j1"); got != 6 {
		t.Fatalf("settled tasks = %d", got)
	}

	// Hammer parallelism changes while caches are at various staleness:
	// each change lands at a different offset inside the 90s cache TTL
	// and the 60s fetch period.
	for i, n := range []int{12, 5, 24, 8, 16, 6} {
		if err := c.Jobs.SetTaskCount("j1", config.LayerOncall, n); err != nil {
			t.Fatal(err)
		}
		// Deliberately uneven settling periods, some shorter than the
		// propagation path.
		c.Run(time.Duration(40+i*25) * time.Second)
	}
	c.Run(5 * time.Minute)

	if v := c.Violations(); v != 0 {
		t.Fatalf("duplicate-instance violations = %d", v)
	}
	if got := c.JobRunningTasks("j1"); got != 6 {
		t.Fatalf("final tasks = %d, want 6", got)
	}
	// Conservation: everything written was processed exactly once. The
	// sum of checkpointed offsets must equal bytes consumed; backlog must
	// reconcile with what was written.
	written := c.Bus.TotalWritten("j1_in")
	var consumed int64
	for p := 0; p < 24; p++ {
		consumed += c.Ckpt.Offset("j1", p)
	}
	if consumed > written {
		t.Fatalf("consumed %d > written %d: duplicate processing", consumed, written)
	}
	if lag := written - consumed; lag > int64(10*60*4*mb) {
		t.Fatalf("backlog %d MB: data lost or job stuck", lag/mb)
	}
}

// TestDeleteDuringHeavyChurnCleansUp exercises the delete path racing
// rebalances and cache staleness.
func TestDeleteDuringHeavyChurnCleansUp(t *testing.T) {
	c := newCluster(t, Config{Hosts: 4})
	for _, name := range []string{"a", "b", "c"} {
		c.AddJob(JobSpec{Config: tailerJob(name, 4, 16), Pattern: workload.Constant(2 * mb)})
	}
	c.Run(3 * time.Minute)
	// Delete mid-flight while also rescaling a sibling.
	if err := c.RemoveJob("b"); err != nil {
		t.Fatal(err)
	}
	if err := c.Jobs.SetTaskCount("a", config.LayerOncall, 8); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Minute)

	if got := c.JobRunningTasks("b"); got != 0 {
		t.Fatalf("deleted job still runs %d tasks", got)
	}
	if got := c.JobRunningTasks("a"); got != 8 {
		t.Fatalf("job a tasks = %d, want 8", got)
	}
	if got := c.JobRunningTasks("c"); got != 4 {
		t.Fatalf("job c tasks = %d, want 4", got)
	}
	if v := c.Violations(); v != 0 {
		t.Fatalf("violations = %d", v)
	}
	if c.Ckpt.LiveOwners("b") != 0 {
		t.Fatal("deleted job leaked leases")
	}
}

// TestQuarantinedJobLeftAlone: a job whose complex sync keeps failing is
// quarantined and its running state stays frozen until an oncall clears
// the quarantine.
func TestQuarantinedJobLeftAlone(t *testing.T) {
	c := newCluster(t, Config{Hosts: 2})
	c.AddJob(JobSpec{Config: tailerJob("j1", 2, 8), Pattern: workload.Constant(mb)})
	c.Run(2 * time.Minute)

	// Sabotage: plant a foreign lease under the job so StopJobTasks keeps
	// finding a live owner and the plan keeps failing (modelling a wedged
	// external process holding the checkpoint directory).
	saboteur := engine.NewTask(&engine.TaskSpec{
		JobSpec:    &engine.JobSpec{Job: "j1", InputCategory: "j1_in"},
		Index:      99,
		Partitions: []int{99},
	}, engine.DefaultProfile(config.OpTailer), nil, c.Ckpt)
	if err := saboteur.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Jobs.SetTaskCount("j1", config.LayerOncall, 4); err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Minute) // >5 failed rounds at 30s each

	if _, ok := c.Store.Quarantined("j1"); !ok {
		t.Fatal("job not quarantined after repeated sync failures")
	}
	// Rollback: the failed plan must have returned the job to its OLD
	// configuration — tasks keep running at the previous parallelism
	// while the oncall investigates ("cleans up, rolls back, retries").
	if got := c.JobRunningTasks("j1"); got != 2 {
		t.Fatalf("quarantined job runs %d tasks, want 2 (old config)", got)
	}
	// Oncall clears the saboteur and the quarantine; sync proceeds.
	saboteur.Kill()
	c.Store.ClearQuarantine("j1")
	c.Run(5 * time.Minute)
	if got := c.JobRunningTasks("j1"); got != 4 {
		t.Fatalf("tasks = %d after quarantine cleared, want 4", got)
	}
}
