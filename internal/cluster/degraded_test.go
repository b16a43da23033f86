package cluster

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/workload"
)

// TestShardManagerOutageDegradedMode reproduces §IV-D: when the Shard
// Manager becomes unavailable, Task Managers degrade to the stored
// shard→container mapping — tasks keep running and processing, nothing is
// failed over, and no container reboots itself (an explicit unavailability
// response is still contact, unlike a partition). On recovery the control
// plane resumes without a mass failover.
func TestShardManagerOutageDegradedMode(t *testing.T) {
	c := newCluster(t, Config{Hosts: 4})
	c.AddJob(JobSpec{Config: tailerJob("j1", 8, 16), Pattern: workload.Constant(8 * mb)})
	c.Run(3 * time.Minute)
	if got := c.JobRunningTasks("j1"); got != 8 {
		t.Fatalf("settled tasks = %d", got)
	}
	processedBefore := c.Bus.TotalWritten("j1_in") - c.JobBacklog("j1")

	// The Shard Manager goes down for 20 minutes.
	c.SM.SetAvailable(false)
	c.Run(20 * time.Minute)

	// Degraded mode: all tasks still running and still processing.
	if got := c.JobRunningTasks("j1"); got != 8 {
		t.Fatalf("tasks = %d during SM outage, want 8 (degraded mode)", got)
	}
	processedDuring := c.Bus.TotalWritten("j1_in") - c.JobBacklog("j1")
	if processedDuring <= processedBefore {
		t.Fatal("no processing during SM outage")
	}
	// No container rebooted (ErrUnavailable is contact, not partition).
	for _, tm := range c.TaskManagers() {
		if tm.Stats().Reboots != 0 {
			t.Fatalf("container %s rebooted during SM outage", tm.ID())
		}
	}
	if c.SM.Stats().Failovers != 0 {
		t.Fatal("failovers ran while unavailable")
	}

	// Recovery: no mass failover (deadlines were reset), work continues,
	// and job updates propagate again end to end.
	c.SM.SetAvailable(true)
	c.Run(2 * time.Minute)
	if c.SM.Stats().Failovers != 0 {
		t.Fatalf("recovery triggered %d failovers", c.SM.Stats().Failovers)
	}
	if err := c.Jobs.SetTaskCount("j1", config.LayerOncall, 4); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Minute)
	if got := c.JobRunningTasks("j1"); got != 4 {
		t.Fatalf("post-recovery tasks = %d, want 4", got)
	}
	if c.Violations() != 0 {
		t.Fatalf("violations = %d", c.Violations())
	}
}

// TestOutageVsPartitionDistinction: a PARTITIONED container must still
// reboot proactively (it cannot tell whether the SM is failing its shards
// over), even while another container experiences the SM as merely slow.
func TestOutageVsPartitionDistinction(t *testing.T) {
	cut := map[string]bool{}
	c := newCluster(t, Config{Hosts: 2, WrapSM: partitionWrap(cut)})
	c.AddJob(JobSpec{Config: tailerJob("j1", 4, 8), Pattern: workload.Constant(2 * mb)})
	c.Run(3 * time.Minute)

	tms := c.TaskManagers()
	cut[tms[0].ID()] = true // partition: no heartbeat reaches the SM at all
	c.Run(2 * time.Minute)
	if tms[0].Stats().Reboots != 1 {
		t.Fatalf("partitioned container reboots = %d, want 1", tms[0].Stats().Reboots)
	}
	if tms[1].Stats().Reboots != 0 {
		t.Fatal("healthy container rebooted")
	}
	delete(cut, tms[0].ID())
	c.Run(5 * time.Minute)
	if got := c.JobRunningTasks("j1"); got != 4 {
		t.Fatalf("tasks = %d after partition healed", got)
	}
	if c.Violations() != 0 {
		t.Fatalf("violations = %d", c.Violations())
	}
}
