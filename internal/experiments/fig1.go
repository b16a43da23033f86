package experiments

import (
	"fmt"
	"time"

	"repro/internal/autoscaler"
	"repro/internal/cluster"
	"repro/internal/shardmanager"
	"repro/internal/statesyncer"
	"repro/internal/taskmanager"
	"repro/internal/workload"
)

// coarseConfig returns a cluster configuration with control intervals
// stretched for multi-month simulations: the component logic is unchanged,
// only the cadences scale (the paper's cadences target second-level
// responsiveness that a year-long simulation does not need to replay
// tick-for-tick).
func coarseConfig(name string, hosts int) cluster.Config {
	return cluster.Config{
		Name:         name,
		Hosts:        hosts,
		TickInterval: 20 * time.Minute,
		Syncer:       statesyncer.Options{Interval: 10 * time.Minute},
		ShardMgr: shardmanager.Options{
			FailoverInterval:     30 * time.Minute,
			FailureCheckInterval: 10 * time.Minute,
			RebalanceInterval:    6 * time.Hour,
		},
		TaskMgr: taskmanager.Options{
			FetchInterval:      20 * time.Minute,
			HeartbeatInterval:  10 * time.Minute,
			ConnectionTimeout:  15 * time.Minute,
			LoadReportInterval: time.Hour,
		},
	}
}

// Fig1Growth reproduces Figure 1: the growth of the Scuba Tailer service
// over a year — traffic volume doubles and the (auto-scaled) task count
// roughly doubles with it. Growth comes from new tables (jobs) being
// onboarded month over month, each bringing diurnal traffic.
//
// Shape that must hold: traffic and task count both roughly double over
// the window, and task count tracks traffic.
func Fig1Growth(p Params) *Result {
	months := pick(p, 3, 12)
	jobsStart := pick(p, 8, 50)
	jobsPerMonth := pick(p, 3, 5) // start+12x5 = 110 jobs: ~2.2x growth
	hosts := pick(p, 10, 30)

	cfg := coarseConfig("fig1", hosts)
	cfg.EnableScaler = true
	cfg.MonitorInterval = 20 * time.Minute
	cfg.MetricsRetention = 20 * 24 * time.Hour
	cfg.Scaler = autoscaler.Options{
		ScanInterval:        time.Hour,
		DownscaleAfter:      12 * time.Hour,
		DownscalePeakWindow: 3 * time.Hour,
		RecoverySeconds:     1800,
	}
	c, err := cluster.New(cfg)
	if err != nil {
		panic(err)
	}
	c.Start()

	rates := workload.LongTailRates(jobsStart+months*jobsPerMonth, 4*MB, p.seed())
	jobIdx := 0
	addJob := func() {
		name := fmt.Sprintf("scuba/t%03d", jobIdx)
		job := tailerConfig(name, 1, 64, 64, 0)
		pattern := workload.Diurnal(rates[jobIdx], rates[jobIdx]*0.3, 14, 0.01)
		if err := c.AddJob(cluster.JobSpec{Config: job, Pattern: pattern}); err != nil {
			panic(err)
		}
		jobIdx++
	}
	for i := 0; i < jobsStart; i++ {
		addJob()
	}

	res := &Result{
		ID:     "fig1",
		Title:  "Scuba Tailer service growth (traffic volume and task count)",
		Header: []string{"month", "jobs", "traffic_MB/s", "configured_tasks"},
	}

	const month = 30 * 24 * time.Hour
	var firstTraffic, lastTraffic, firstTasks, lastTasks float64
	for m := 0; m <= months; m++ {
		if m > 0 {
			for i := 0; i < jobsPerMonth; i++ {
				addJob()
			}
			c.Run(month)
		} else {
			c.Run(24 * time.Hour) // settle the initial fleet
		}
		traffic, _ := c.Metrics.WindowAvg("cluster/inputRate", 24*time.Hour)
		tasks := configuredTasks(c)
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", m),
			fmt.Sprintf("%d", jobIdx),
			mbs(traffic),
			fmt.Sprintf("%.0f", tasks),
		})
		if m == 0 {
			firstTraffic, firstTasks = traffic, tasks
		}
		lastTraffic, lastTasks = traffic, tasks
	}

	res.Summary = map[string]float64{
		"traffic_growth_factor":    lastTraffic / firstTraffic,
		"task_count_growth_factor": lastTasks / firstTasks,
		"final_tasks":              lastTasks,
		"violations":               float64(c.Violations()),
	}
	res.Notes = append(res.Notes,
		"paper: traffic 100->200 GB/s and tasks ~80K->160K over 12 months (fleet scaled down ~1000x here)",
		"shape holds if both growth factors are ~2x and move together")
	return res
}

// configuredTasks sums the desired task count across running jobs.
func configuredTasks(c *cluster.Cluster) float64 {
	total := 0.0
	for _, job := range c.Store.RunningNames() {
		if cfg, _, ok := c.Store.RunningEntry(job); ok && cfg != nil {
			total += float64(cfg.TaskCount)
		}
	}
	return total
}
