package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names, units, directions and bounds; bench_test.go checks the
// two agree.
type metricDef struct {
	name   string
	unit   string
	higher bool    // better when higher
	bound  float64 // share of the median it may worsen by (end-to-end only)
}

// endToEnd is what a job owner sees. Every workload reports all of them;
// what an "op" and a "unit" are on each workload is in README.md:
//
//	steady_churn, release_push  op = tick / wave, unit = job actuated
//	failover_storm              op = failover,    unit = task recovered
//	sim_day                     op = 10 sim. min, unit = simulated job-minute
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "actuation_ms_p50", unit: "ms", bound: 0.25},
	{name: "throughput_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "allocs_per_unit", unit: "count", bound: 0.05},
	{name: "cpu_ms_per_unit", unit: "ms", bound: 0.25},
	{name: "heap_mb", unit: "MB", bound: 0.05},
}

// perLayer is what the traced run prints: *_ms are per-op medians of span
// self time, counts are totals over the timed run. A metric that does not
// apply to a workload reads 0 there.
var perLayer = []metricDef{
	{name: "jobservice.commit_ms", unit: "ms"},
	{name: "jobservice.commit_us_per_job", unit: "us"},
	{name: "jobservice.commits", unit: "count", higher: true},
	{name: "jobservice.rejected", unit: "count"},
	{name: "jobstore.journal_entries", unit: "count"},
	{name: "jobstore.journal_overflows", unit: "count"},
	{name: "statesyncer.round_ms", unit: "ms"},
	{name: "statesyncer.converged_round_ms", unit: "ms"},
	{name: "statesyncer.simple", unit: "count", higher: true},
	{name: "statesyncer.complex", unit: "count", higher: true},
	{name: "statesyncer.failed", unit: "count"},
	{name: "statesyncer.sweep_jobs", unit: "count"},
	{name: "statesyncer.actuator_ms", unit: "ms"},
	{name: "statesyncer.actuator_calls", unit: "count"},
	{name: "wire.poll_ms", unit: "ms"},
	{name: "wire.polls", unit: "count"},
	{name: "wire.bytes", unit: "B"},
	{name: "wire.bytes_per_job", unit: "B"},
	{name: "specfeed.frame_hit_ratio", unit: "ratio", higher: true},
	{name: "specfeed.resyncs", unit: "count"},
	{name: "taskservice.apply_ms", unit: "ms"},
	{name: "taskservice.applied", unit: "count"},
	{name: "taskservice.skipped", unit: "count"},
	{name: "taskservice.index_ms", unit: "ms"},
	{name: "taskservice.generations", unit: "count"},
	{name: "taskmanager.refresh_ms", unit: "ms"},
	{name: "taskmanager.refresh_ms_max", unit: "ms"},
	{name: "taskmanager.refresh_us_per_changed_task", unit: "us"},
	{name: "taskmanager.started", unit: "count"},
	{name: "taskmanager.restarted", unit: "count"},
	{name: "taskmanager.stopped", unit: "count"},
	{name: "taskmanager.start_errors", unit: "count"},
	{name: "taskmanager.degraded_skips", unit: "count"},
	{name: "taskmanager.addshard_ms", unit: "ms"},
	{name: "taskmanager.addshard_calls", unit: "count"},
	{name: "taskmanager.dropshard_ms", unit: "ms"},
	{name: "taskmanager.dropshard_calls", unit: "count"},
	{name: "taskmanager.stopjob_ms", unit: "ms"},
	{name: "shardmanager.failover_ms", unit: "ms"},
	{name: "shardmanager.rebalance_ms", unit: "ms"},
	{name: "shardmanager.assign_ms", unit: "ms"},
	{name: "shardmanager.moves", unit: "count"},
	{name: "shardmanager.load_report_ms", unit: "ms"},
	{name: "shardmanager.heartbeat_ns", unit: "ns"},
	{name: "storm.rebalance_ms_p50", unit: "ms"},
	{name: "setup.provision_s", unit: "s"},
	{name: "setup.first_round_s", unit: "s"},
	{name: "setup.resync_s", unit: "s"},
	{name: "setup.index_s", unit: "s"},
	{name: "setup.assign_s", unit: "s"},
	{name: "setup.start_tasks_s", unit: "s"},
	{name: "autoscaler.scan_ms", unit: "ms"},
	{name: "autoscaler.scans", unit: "count"},
	{name: "autoscaler.actions", unit: "count"},
	{name: "autoscaler.vetoes", unit: "count"},
	{name: "capacity.checks", unit: "count"},
	{name: "capacity.utilization_pct", unit: "%"},
	{name: "capacity.jobs_stopped", unit: "count"},
	{name: "metrics.series", unit: "count"},
	{name: "metrics.dropped", unit: "count"},
	{name: "sim.wall_ms_per_sim_hour_p50", unit: "ms"},
	{name: "sim.wall_ms_per_sim_hour_max", unit: "ms"},
	{name: "sim.allocs_per_sim_hour", unit: "count"},
	{name: "sim.actuator_ms", unit: "ms"},
	{name: "sim.sm_client_ms", unit: "ms"},
	{name: "sim.tasksource_ms", unit: "ms"},
	{name: "sim.syncer_rounds", unit: "count"},
	{name: "sim.syncer_complex", unit: "count"},
	{name: "sim.tm_restarted", unit: "count"},
	{name: "sim.schedule_simsec", unit: "simsec"},
	{name: "sim.failover_simsec", unit: "simsec"},
	{name: "sim.slo_attainment_pct", unit: "%", higher: true},
	{name: "run.ops", unit: "count", higher: true},
	{name: "run.units", unit: "count", higher: true},
	{name: "run.actuation_ms_p90", unit: "ms"},
	{name: "run.raw_setup_s", unit: "s"},
	{name: "run.raw_actuation_ms_p50", unit: "ms"},
	{name: "run.raw_throughput_per_s", unit: "1/s", higher: true},
	{name: "run.raw_cpu_ms_per_unit", unit: "ms"},
	{name: "trace.unattributed_ms", unit: "ms"},
	{name: "trace.overhead_pct", unit: "%"},
	{name: "host.calib_ms", unit: "ms"},
	{name: "host.calib_drift_pct", unit: "%"},
	{name: "host.gomaxprocs", unit: "count"},
	{name: "host.gogc", unit: "%"},
}
