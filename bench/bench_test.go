package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// smokeOps is how many timed ops each workload runs at smoke size: 3
// ticks, 3 waves, 2 failover cycles, and 27 ten-minute steps of a 6-hour
// scripted "day" — all four events and the restore after the host kill.
var smokeOps = map[string]int{"steady_churn": 3, "release_push": 3, "failover_storm": 2, "sim_day": 27}

func smokeRun(t *testing.T, workload string, trace bool) *measured {
	t.Helper()
	m, err := runOnce(options{workload: workload, seed: 1, smoke: true, ops: smokeOps[workload], trace: trace})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !m.Correct || m.Failed != 0 {
		t.Fatalf("%s failed its correctness gate: %d of %d: %v", workload, m.Failed, m.Attempted, m.problems)
	}
	return m
}

// TestSmokeEveryWorkload runs every workload at smoke size through its
// correctness gate, untraced and traced, and checks that each metric
// BENCHMARK.json names is emitted exactly once, with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	// The layers each workload exists to stress must have done work.
	exercised := map[string][]string{
		"steady_churn":   {"statesyncer.simple", "statesyncer.complex", "statesyncer.actuator_calls", "taskmanager.restarted", "wire.bytes"},
		"release_push":   {"statesyncer.simple", "taskmanager.restarted", "taskservice.applied"},
		"failover_storm": {"shardmanager.moves", "taskmanager.addshard_calls", "taskmanager.dropshard_calls"},
		"sim_day":        {"sim.schedule_simsec", "sim.failover_simsec", "autoscaler.scans", "capacity.checks", "sim.tm_restarted"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				m := smokeRun(t, w.name, trace)
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(m.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics emitted, want %d", trace, len(m.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := m.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("trace=%v: %s not emitted", trace, d.name)
					case v.Unit != d.unit:
						t.Errorf("%s: unit %q, want %q", d.name, v.Unit, d.unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s: value %v", d.name, v.Value)
					case !trace && v.Value <= 0:
						t.Errorf("%s: end-to-end value %v, must be positive", d.name, v.Value)
					}
				}
				if trace {
					for _, name := range exercised[w.name] {
						if m.Metrics[name].Value <= 0 {
							t.Errorf("%s = %v: the workload did not exercise it", name, m.Metrics[name].Value)
						}
					}
				}
			}
		})
	}
}

// TestSameSeedRepeats checks what must repeat exactly for one seed and
// one op count: the simulated-time figures and the control plane's
// operation counts (what -repeat checks at full size).
func TestSameSeedRepeats(t *testing.T) {
	for _, w := range workloads {
		if len(exactPerSeed[w.name]) == 0 {
			t.Errorf("%s: nothing listed that must repeat exactly", w.name)
		}
		a, b := smokeRun(t, w.name, false), smokeRun(t, w.name, false)
		for _, diff := range sameInputs(w.name, a, b) {
			t.Errorf("%s differs between two runs of one seed: %s", w.name, diff)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the
// workloads and metrics the harness knows, with the same units,
// directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []jsonMetric                 `json:"end_to_end"`
		PerLayer  []jsonMetric                 `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, listed []jsonMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			j := listed[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if j.Name != d.name || j.Unit != d.unit || j.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, j, d)
			}
			if bounded && (j.Bound == nil || *j.Bound != d.bound) {
				t.Errorf("%s: bound in BENCHMARK.json differs from the harness's %v", d.name, d.bound)
			}
			if !bounded && j.Bound != nil {
				t.Errorf("%s: per-layer metrics have no bound", d.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

// TestSelfTimes checks the span arithmetic: a parent's self time excludes
// the union of its children, and concurrent spans of one name count the
// wall time they cover, once.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "tick", Start: 0, End: 100e6, Parent: noSpan, Op: 1},
		{Name: "round", Start: 10e6, End: 60e6, Parent: 0, Op: 1},
		{Name: "actuator", Start: 20e6, End: 40e6, Parent: 1, Op: 1},
		{Name: "actuator", Start: 30e6, End: 50e6, Parent: 1, Op: 1}, // overlaps the first by 10 ms
		{Name: "refresh", Start: 60e6, End: 90e6, Parent: 0, Op: 1},
		{Name: "tick", Start: 200e6, End: 230e6, Parent: noSpan, Op: 2},
	}
	self := tr.selfTimes()
	want := map[string][]float64{
		"tick":     {20, 30}, // 100 − (50 + 30); second op has no children
		"round":    {20, 0},  // 50 − union(20..50)
		"actuator": {30, 0},  // union of the two overlapping calls
		"refresh":  {30, 0},
	}
	for name, w := range want {
		got := self[name]
		if len(got) != len(w) {
			t.Fatalf("%s: %v, want %v", name, got, w)
		}
		for i := range w {
			if math.Abs(got[i]-w[i]) > 1e-9 {
				t.Errorf("%s: %v, want %v", name, got, w)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	vs := []float64{12, 7, 3, 9, 15, 4, 11, 8, 6, 10}
	q1, q3 := quartiles(vs) // python: [5.5, 8.5, 11.25]
	if q1 != 5.5 || q3 != 11.25 {
		t.Errorf("quartiles = %v, %v; want 5.5, 11.25", q1, q3)
	}
}
