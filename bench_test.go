package repro_test

import (
	"testing"

	"repro/internal/experiments"
)

// Each paper table/figure has a benchmark that regenerates it (at reduced
// scale, seeded) and asserts its headline shape. b.N loops re-run the whole
// experiment; the assertions make a silent regression in reproduction
// quality fail the bench rather than just change a number.

func runExperiment(b *testing.B, id string, check func(*testing.B, map[string]float64)) {
	b.Helper()
	fn, ok := experiments.Registry[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		res := fn(experiments.Params{Short: true, Seed: 42})
		if v, ok := res.Summary["violations"]; ok && v != 0 {
			b.Fatalf("%s: %v duplicate-instance violations", id, v)
		}
		check(b, res.Summary)
	}
}

func BenchmarkFig1Growth(b *testing.B) {
	runExperiment(b, "fig1", func(b *testing.B, s map[string]float64) {
		if s["traffic_growth_factor"] < 1.5 {
			b.Fatalf("traffic did not grow: %v", s["traffic_growth_factor"])
		}
		// Task count must track traffic: same direction, comparable factor.
		ratio := s["task_count_growth_factor"] / s["traffic_growth_factor"]
		if ratio < 0.5 || ratio > 2 {
			b.Fatalf("task count did not track traffic: %v", ratio)
		}
	})
}

func BenchmarkFig5TaskFootprint(b *testing.B) {
	runExperiment(b, "fig5", func(b *testing.B, s map[string]float64) {
		if s["frac_cpu_below_1core"] < 0.8 {
			b.Fatalf("only %.0f%% of tasks below 1 core, paper says >80%%", 100*s["frac_cpu_below_1core"])
		}
		if s["memory_floor_MB"] < 350 {
			b.Fatalf("memory floor %v MB, paper says ~400", s["memory_floor_MB"])
		}
		if s["frac_mem_below_2GB"] < 0.99 {
			b.Fatalf("memory tail too heavy: %v", s["frac_mem_below_2GB"])
		}
	})
}

func BenchmarkFig6LoadBalance(b *testing.B) {
	runExperiment(b, "fig6", func(b *testing.B, s map[string]float64) {
		if s["tasks_per_host_spread"] > 2.0 {
			b.Fatalf("tasks/host spread %v, paper band is ~1.5x", s["tasks_per_host_spread"])
		}
		if s["worst_cpu_spread_pct"] > 20 {
			b.Fatalf("host CPU spread %v%%, want a narrow band", s["worst_cpu_spread_pct"])
		}
	})
}

func BenchmarkFig7LBToggle(b *testing.B) {
	runExperiment(b, "fig7", func(b *testing.B, s map[string]float64) {
		if s["spread_disturbed_pct"] <= s["spread_lb_on_pct"]*1.5 {
			b.Fatalf("disabling the balancer did not widen the spread: %v vs %v",
				s["spread_disturbed_pct"], s["spread_lb_on_pct"])
		}
		if s["spread_reenabled_pct"] > s["spread_disturbed_pct"]*0.6 {
			b.Fatalf("re-enabling the balancer did not converge: %v vs %v",
				s["spread_reenabled_pct"], s["spread_disturbed_pct"])
		}
	})
}

func BenchmarkFig8Backlog(b *testing.B) {
	runExperiment(b, "fig8", func(b *testing.B, s map[string]float64) {
		if s["speedup_c1_over_c2"] < 2 {
			b.Fatalf("auto-scaled recovery only %.1fx faster, paper ~8x", s["speedup_c1_over_c2"])
		}
		if s["c1_hit_32_task_cap"] != 1 {
			b.Fatal("cluster1 never hit the 32-task unprivileged cap")
		}
	})
}

func BenchmarkFig9Storm(b *testing.B) {
	runExperiment(b, "fig9", func(b *testing.B, s map[string]float64) {
		if s["day2_over_day1_traffic_pct"] < 8 {
			b.Fatalf("storm surge only %.1f%%, want ~16%%", s["day2_over_day1_traffic_pct"])
		}
		if s["day2_over_day1_tasks_pct"] < 0 {
			b.Fatalf("task count shrank during the storm: %v%%", s["day2_over_day1_tasks_pct"])
		}
		if s["day2_over_day1_tasks_pct"] >= s["day2_over_day1_traffic_pct"] {
			b.Fatalf("task growth (%.1f%%) not below traffic growth (%.1f%%): vertical-first shape lost",
				s["day2_over_day1_tasks_pct"], s["day2_over_day1_traffic_pct"])
		}
		if s["jobs_in_SLO_pct"] < 99 {
			b.Fatalf("SLO compliance %.2f%%, paper ~99.9%%", s["jobs_in_SLO_pct"])
		}
	})
}

func BenchmarkFig10Efficiency(b *testing.B) {
	runExperiment(b, "fig10", func(b *testing.B, s map[string]float64) {
		if s["task_drop_pct"] < 30 {
			b.Fatalf("task drop only %.1f%%, paper -64%%", s["task_drop_pct"])
		}
		if s["mem_saving_pct"] <= s["cpu_saving_pct"] {
			b.Fatalf("memory savings (%.1f%%) not above CPU savings (%.1f%%), paper 51%% vs 22%%",
				s["mem_saving_pct"], s["cpu_saving_pct"])
		}
		if s["lagged_jobs_end"] != 0 {
			b.Fatalf("%v jobs left lagging by the reclaim", s["lagged_jobs_end"])
		}
	})
}

func BenchmarkTableIJobStore(b *testing.B) {
	runExperiment(b, "tableI", func(b *testing.B, s map[string]float64) {
		if s["merged_task_count"] != 30 {
			b.Fatalf("precedence broken: merged taskCount %v, want 30", s["merged_task_count"])
		}
	})
}

func BenchmarkClaimGlobalPush(b *testing.B) {
	runExperiment(b, "claim-push", func(b *testing.B, s map[string]float64) {
		if s["push_minutes"] > 5 {
			b.Fatalf("global push took %.1f simulated minutes, paper < 5", s["push_minutes"])
		}
	})
}

func BenchmarkClaimE2ESchedule(b *testing.B) {
	runExperiment(b, "claim-e2e", func(b *testing.B, s map[string]float64) {
		if s["schedule_seconds"] > 180 {
			b.Fatalf("end-to-end scheduling %v s, paper 1-2 min", s["schedule_seconds"])
		}
		if s["failover_seconds"] > 180 {
			b.Fatalf("failover downtime %v s, paper < 2 min beyond the 60 s interval", s["failover_seconds"])
		}
	})
}

func BenchmarkClaimSimpleSync50K(b *testing.B) {
	// Full paper scale regardless of -short: this is the wall-clock claim.
	for i := 0; i < b.N; i++ {
		res := experiments.ClaimSimpleSync(experiments.Params{Seed: 42})
		if res.Summary["release_wall_secs"] > 10 {
			b.Fatalf("release round took %.1fs for %v jobs, paper: seconds", res.Summary["release_wall_secs"], res.Summary["jobs"])
		}
	}
}

func BenchmarkClaimPlacement100K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.ClaimPlacement(experiments.Params{Seed: 42})
		if res.Summary["placement_seconds"] > 2 {
			b.Fatalf("placing %v shards took %.2fs, paper < 2s", res.Summary["shards"], res.Summary["placement_seconds"])
		}
	}
}

func BenchmarkClaim33pct(b *testing.B) {
	runExperiment(b, "claim-33pct", func(b *testing.B, s map[string]float64) {
		if s["mean_saving_pct"] < 15 || s["mean_saving_pct"] > 60 {
			b.Fatalf("packing saving %.1f%%, paper ~33%%", s["mean_saving_pct"])
		}
	})
}

func BenchmarkAblationHistory(b *testing.B) {
	// Design-choice ablation (§V-C): preactive history checks must
	// materially reduce scaling churn on repeating diurnal load.
	for i := 0; i < b.N; i++ {
		res := experiments.AblationHistory(experiments.Params{Short: true, Seed: 42})
		with := res.Summary["churn_with_history"]
		without := res.Summary["churn_without_history"]
		if without < with*1.3 {
			b.Fatalf("history checks did not reduce churn: %v with vs %v without", with, without)
		}
	}
}

func BenchmarkAblationVertical(b *testing.B) {
	// Design-choice ablation (§V-E): vertical-first scaling must absorb a
	// surge with materially fewer parallelism changes (complex syncs)
	// than horizontal-only scaling.
	for i := 0; i < b.N; i++ {
		res := experiments.AblationVertical(experiments.Params{Short: true, Seed: 42})
		vfirst := res.Summary["complex_syncs_vertical_first"]
		honly := res.Summary["complex_syncs_horizontal_only"]
		if honly < vfirst*1.5 {
			b.Fatalf("vertical-first did not reduce parallelism changes: %v vs %v", vfirst, honly)
		}
		if res.Summary["vertical_ups"] == 0 {
			b.Fatal("vertical scaling never used")
		}
	}
}
