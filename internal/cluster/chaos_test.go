package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/workload"
)

// TestChaosDay drives a seeded storm of failures and operator actions
// against a running fleet for a simulated day and asserts the global
// invariants the paper's design guarantees:
//
//   - never two active instances of one task (zero lease violations);
//   - the control plane converges: desired == running tasks at the end;
//   - no data is double-processed (checkpoints never exceed the log);
//   - the cluster keeps processing through the chaos.
func TestChaosDay(t *testing.T) {
	const seed = 1337
	rng := rand.New(rand.NewSource(seed))

	cut := map[string]bool{}
	c := newCluster(t, Config{Hosts: 6, EnableScaler: true, WrapSM: partitionWrap(cut)})
	const jobs = 10
	for i := 0; i < jobs; i++ {
		job := tailerJob(fmt.Sprintf("job%02d", i), 1+rng.Intn(4), 16)
		job.MaxTaskCount = 16
		rate := float64(1+rng.Intn(6)) * mb
		c.AddJob(JobSpec{Config: job, Pattern: workload.Diurnal(rate, rate*0.3, 14, 0.01)})
	}
	c.Run(5 * time.Minute)

	hosts := c.Hosts()
	down := map[string]bool{}
	tms := c.TaskManagers()

	// 24 hours of chaos: every 20 minutes something happens.
	for step := 0; step < 72; step++ {
		switch rng.Intn(7) {
		case 0: // kill a random healthy host (keep at least half alive)
			alive := 0
			for _, h := range hosts {
				if !down[h] {
					alive++
				}
			}
			if alive > len(hosts)/2 {
				h := hosts[rng.Intn(len(hosts))]
				if !down[h] {
					c.KillHost(h)
					down[h] = true
				}
			}
		case 1: // restore a dead host
			for _, h := range hosts {
				if down[h] {
					c.RestoreHost(h)
					down[h] = false
					break
				}
			}
		case 2: // partition a container from the shard manager
			cut[tms[rng.Intn(len(tms))].ID()] = true
		case 3: // heal a partition
			for _, tm := range tms {
				if cut[tm.ID()] {
					delete(cut, tm.ID())
					break
				}
			}
		case 4: // oncall rescale of a random job
			name := fmt.Sprintf("job%02d", rng.Intn(jobs))
			_ = c.Jobs.SetTaskCount(name, config.LayerOncall, 1+rng.Intn(16))
		case 5: // package release on a random job
			name := fmt.Sprintf("job%02d", rng.Intn(jobs))
			_ = c.Jobs.SetPackageVersion(name, fmt.Sprintf("v%d", step))
		case 6: // clear oncall overrides
			name := fmt.Sprintf("job%02d", rng.Intn(jobs))
			_ = c.Jobs.ClearLayer(name, config.LayerOncall)
		}
		c.Run(20 * time.Minute)
	}

	// Heal everything and let the system converge.
	for _, h := range hosts {
		if down[h] {
			c.RestoreHost(h)
		}
	}
	clear(cut)
	for i := 0; i < jobs; i++ {
		c.Store.ClearQuarantine(fmt.Sprintf("job%02d", i))
	}
	c.Run(15 * time.Minute)

	// Invariant 1: no duplicate task instances, ever.
	if v := c.Violations(); v != 0 {
		t.Fatalf("chaos produced %d duplicate-instance violations", v)
	}
	// Invariant 2: convergence — running == desired for every job.
	for i := 0; i < jobs; i++ {
		name := fmt.Sprintf("job%02d", i)
		cfg, _, err := c.Jobs.Desired(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.JobRunningTasks(name); got != cfg.TaskCount {
			t.Errorf("%s: running %d != desired %d", name, got, cfg.TaskCount)
		}
	}
	// Invariant 3: checkpoints never exceed the written log.
	for i := 0; i < jobs; i++ {
		name := fmt.Sprintf("job%02d", i)
		cfg, _, _ := c.Jobs.Desired(name)
		written := c.Bus.TotalWritten(cfg.Input.Category)
		var consumed int64
		for p := 0; p < cfg.Input.Partitions; p++ {
			consumed += c.Ckpt.Offset(name, p)
		}
		if consumed > written {
			t.Errorf("%s: consumed %d > written %d", name, consumed, written)
		}
	}
	// Invariant 4: the fleet actually processed data through the chaos.
	var totalConsumed int64
	for i := 0; i < jobs; i++ {
		name := fmt.Sprintf("job%02d", i)
		cfg, _, _ := c.Jobs.Desired(name)
		for p := 0; p < cfg.Input.Partitions; p++ {
			totalConsumed += c.Ckpt.Offset(name, p)
		}
	}
	if totalConsumed == 0 {
		t.Fatal("nothing processed during the chaos day")
	}
	// The partitions bit: a cut-off container rebooted itself.
	reboots := 0
	for _, tm := range tms {
		reboots += tm.Stats().Reboots
	}
	if reboots == 0 {
		t.Fatal("no container rebooted proactively: the partitions never bit")
	}
}
