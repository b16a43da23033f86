package main

import (
	"fmt"
	"io"
	"math"
)

// exactPerSeed names, per workload, the per-layer values that the seed
// and the op count alone decide: simulated-time figures and the control
// plane's operation counts. Two runs of one seed and one op count must
// agree on them exactly; -repeat and bench_test.go both check it.
var exactPerSeed = map[string][]string{
	"steady_churn": {"jobservice.commits", "statesyncer.simple", "statesyncer.complex",
		"taskmanager.started", "taskmanager.restarted", "taskmanager.stopped", "taskservice.applied", "run.units"},
	"release_push": {"jobservice.commits", "statesyncer.simple",
		"taskmanager.started", "taskmanager.restarted", "taskservice.applied", "run.units"},
	"failover_storm": {"taskmanager.started", "taskmanager.addshard_calls", "shardmanager.moves", "run.units"},
	"sim_day": {"sim.schedule_simsec", "sim.failover_simsec", "sim.slo_attainment_pct",
		"sim.syncer_rounds", "sim.syncer_complex", "sim.tm_restarted", "autoscaler.scans", "autoscaler.actions", "run.units"},
}

// sameInputs reports which of the workload's exactPerSeed values differ
// between two runs.
func sameInputs(workload string, a, b *measured) []string {
	var diffs []string
	for _, name := range exactPerSeed[workload] {
		if a.layer[name] != b.layer[name] {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", name, a.layer[name], b.layer[name]))
		}
	}
	return diffs
}

// rawOf names the per-layer metric that holds an end-to-end time metric
// as measured, before the host calibration.
var rawOf = map[string]string{
	"setup_s":          "run.raw_setup_s",
	"actuation_ms_p50": "run.raw_actuation_ms_p50",
	"throughput_per_s": "run.raw_throughput_per_s",
	"cpu_ms_per_unit":  "run.raw_cpu_ms_per_unit",
}

// spread returns (max − min)/median.
func spread(vs []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return (hi - lo) / median(vs)
}

// runRepeat runs one workload n times on the one seed — the first run
// for opt.seconds, the others for exactly as many ops as the first made,
// so every run does identical work — and prints for every end-to-end
// metric its median, quartiles, the quartile spread as a share of the
// median (what the acceptance check computes) and (max − min)/median,
// next to the metric's bound, and under each calibrated time metric
// the same for its raw values: the calibration earns its keep where the
// raw spread is the wider one. A metric whose spread exceeds its bound is
// marked unresolved: a difference of that size between two commits could
// not be told from noise. It fails if the runs disagree on what one seed
// must repeat exactly, or on allocs_per_unit by more than 2 %.
func runRepeat(w io.Writer, opt options, n int) error {
	opt.trace = false
	values := make(map[string][]float64)
	var calib []float64
	var first *measured
	for i := 0; i < n; i++ {
		m, err := runOnce(opt)
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		if !m.Correct {
			return fmt.Errorf("run %d failed its correctness gate: %v", i+1, m.problems)
		}
		if first == nil {
			first = m
			opt.ops = m.ops
		} else if diffs := sameInputs(opt.workload, first, m); len(diffs) > 0 {
			return fmt.Errorf("run %d of seed %d differs from run 1 where one seed must repeat exactly: %v", i+1, opt.seed, diffs)
		}
		for name, v := range m.Metrics {
			values[name] = append(values[name], v.Value)
		}
		for _, name := range rawOf {
			values[name] = append(values[name], m.layer[name])
		}
		calib = append(calib, m.layer["host.calib_ms"])
		fmt.Fprintf(w, "run %d/%d seed %d, %d ops: actuation_ms_p50 %.3f (raw %.3f), host.calib_ms %.3f\n",
			i+1, n, opt.seed, m.ops, m.Metrics["actuation_ms_p50"].Value, m.layer["run.raw_actuation_ms_p50"], m.layer["host.calib_ms"])
	}
	fmt.Fprintf(w, "\n%-26s %12s %12s %12s %9s %9s %7s  %s\n",
		"metric", "median", "q1", "q3", "iqr/med", "range/med", "bound", "")
	row := func(name string, vs []float64, bound, verdict string) {
		q1, q3 := quartiles(vs)
		fmt.Fprintf(w, "%-26s %12.4f %12.4f %12.4f %8.2f%% %8.2f%% %7s  %s\n",
			name, median(vs), q1, q3, 100*(q3-q1)/median(vs), 100*spread(vs), bound, verdict)
	}
	for _, d := range endToEnd {
		vs := values[d.name]
		q1, q3 := quartiles(vs)
		iqr := (q3 - q1) / median(vs)
		verdict := "ok"
		switch {
		case iqr > d.bound:
			verdict = "unresolved"
		case iqr > d.bound/3:
			verdict = "ok (spread above a third of the bound)"
		}
		row(d.name, vs, fmt.Sprintf("%.0f%%", 100*d.bound), verdict)
		if raw, ok := rawOf[d.name]; ok {
			row("  "+raw, values[raw], "", "")
		}
	}
	fmt.Fprintf(w, "\nhost.calib_ms %.3f ms, (max − min)/median %.1f %% across the set\n", median(calib), 100*spread(calib))
	if s := spread(values["allocs_per_unit"]); s > 0.02 {
		return fmt.Errorf("allocs_per_unit moved by %.1f %% between runs of one seed, more than 2 %%", 100*s)
	}
	return nil
}
