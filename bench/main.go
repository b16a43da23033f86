// Command bench is the repository's end-to-end actuation benchmark: it
// wires Turbine's real control plane, drives one workload on the wall
// clock, checks after every operation that the tasks run what was
// committed, and prints every metric by name and unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// built is one completed set-up: a runner over a converged fleet.
type built struct {
	run     runner
	seconds float64 // wall time of this set-up
	close   func()
}

// workloadSpec names one set of inputs the benchmark runs.
type workloadSpec struct {
	name string
	// build performs one complete set-up at the given scale.
	build func(smoke bool, seed int64, tr *tracer) (*built, error)
	// warmup ops run untimed first; minOps is the fewest timed ops a run
	// makes however short --seconds is.
	warmup, minOps int
	// op and unit name what one operation is and what throughput_per_s,
	// allocs_per_unit and cpu_ms_per_unit count on this workload.
	op, unit string
}

// Standard fleet F80K: 10 000 jobs × 8 tasks over the issue's 64
// containers and 4 096 shards — half the issue's F160K jobs, the largest
// fleet whose three set-ups and measured seconds fit the driver's time
// for a run with room for a slow host (see README.md). The simulated
// cluster holds 400 jobs on 32 hosts. Smoke sizes are for bench_test.go.
var (
	standardFleet = fleetSize{Jobs: 10000, TasksPerJob: 8, Partitions: 16, Containers: 64, Shards: 4096}
	smokeFleet    = fleetSize{Jobs: 200, TasksPerJob: 4, Partitions: 8, Containers: 8, Shards: 64}
	standardSim   = simSize{Jobs: 400, Hosts: 32, DayHours: 24}
	smokeSim      = simSize{Jobs: 20, Hosts: 4, DayHours: 6}
)

func fleetFor(smoke bool) fleetSize {
	if smoke {
		return smokeFleet
	}
	return standardFleet
}

func buildFleetRun(mk func(f *fleet, seed int64) runner) func(bool, int64, *tracer) (*built, error) {
	return func(smoke bool, seed int64, tr *tracer) (*built, error) {
		f, err := buildFleet(fleetFor(smoke), tr)
		if err != nil {
			return nil, err
		}
		return &built{run: mk(f, seed), seconds: f.setup.Total, close: f.close}, nil
	}
}

var workloads = []workloadSpec{
	{
		name: "steady_churn", warmup: 10, minOps: 3, op: "tick of 0.25 % of the jobs", unit: "job actuated",
		build: buildFleetRun(func(f *fleet, seed int64) runner { return newChurnRun(f, seed, churnBatch) }),
	},
	{
		name: "release_push", warmup: 10, minOps: 3, op: "release wave of 10 % of the jobs", unit: "job actuated",
		build: buildFleetRun(func(f *fleet, seed int64) runner { return newChurnRun(f, seed, releaseBatch) }),
	},
	{
		name: "failover_storm", warmup: 3, minOps: 2, op: "container failover", unit: "task recovered",
		build: buildFleetRun(func(f *fleet, seed int64) runner { return newStormRun(f, seed) }),
	},
	{
		name: "sim_day", warmup: 0, minOps: 144, op: "10 simulated minutes", unit: "simulated job-minute",
		build: func(smoke bool, seed int64, tr *tracer) (*built, error) {
			size := standardSim
			if smoke {
				size = smokeSim
			}
			s, err := buildSim(size, tr)
			if err != nil {
				return nil, err
			}
			return &built{run: newSimRun(s, seed), seconds: s.setupSeconds, close: func() {}}, nil
		},
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// setupsPerRun is how many times a run sets its workload up; setup_s is
// the median. The last fleet built is the one measured on.
const setupsPerRun = 3

// setupSlices is how many reference slices run before and after each
// set-up (some 25 ms each side against a set-up of seconds).
const setupSlices = 8

// options are one run's settings. Only workload, seed, seconds, trace and
// traceOut are flags; smoke and ops are for bench_test.go, and ops for
// -repeat, which pins every run of a set to the first run's op count.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	smoke    bool
	ops      int // > 0: run exactly this many timed ops, whatever seconds says
}

// measured is one run's outcome: the end-to-end or the per-layer metric
// set, depending on options.trace.
type measured struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	problems []string
	ops      int
	// layer holds every per-layer value, traced or not (an untraced run
	// has the counts but no span times): -repeat checks the ones that
	// must repeat exactly for one seed.
	layer map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOnce sets the workload up setupsPerRun times, measures on the last
// fleet for opt.seconds, and returns the metrics.
func runOnce(opt options) (*measured, error) {
	w := findWorkload(opt.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	ref := newHostRef()
	baseMB := liveHeapMB()
	tr := newTracer()

	var b *built
	var setups, rawSetups []float64
	for i := 0; i < setupsPerRun; i++ {
		if b != nil {
			b.close()
			b = nil
		}
		// A set-up's host speed comes from the slices right before and
		// right after it, each batch behind a collection so that no slice
		// shares the collector with the set-up's garbage.
		runtime.GC()
		around := ref.slices(setupSlices)
		var err error
		if b, err = w.build(opt.smoke, opt.seed, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		runtime.GC()
		around = append(around, ref.slices(setupSlices)...)
		rawSetups = append(rawSetups, b.seconds)
		setups = append(setups, b.seconds/(median(around)/refSliceMs))
	}
	defer b.close()
	heapMB := liveHeapMB() - baseMB

	for i := 0; i < w.warmup; i++ {
		b.run.op(true, false)
	}
	b.run.begin()
	start := time.Now()
	budget := time.Duration(opt.seconds * float64(time.Second))
	more := func(i int) bool {
		if opt.ops > 0 {
			return i < opt.ops
		}
		return i < w.minOps || time.Since(start) < budget
	}
	slices := []float64{ref.slice()}
	for i := 0; more(i); i++ {
		// Every other op of a traced run records spans; the rest give the
		// untraced baseline that trace.overhead_pct compares against.
		b.run.op(false, opt.trace && i%2 == 0)
		slices = append(slices, ref.slice())
	}
	res := b.run.finish()

	if opt.traceOut != "" {
		if err := tr.writeFile(opt.traceOut); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	if res.units == 0 || len(res.ops) != len(slices)-1 {
		return nil, fmt.Errorf("%d of %d ops completed, %d units of work verified (%d failures: %v)",
			len(res.ops), len(slices)-1, res.units, res.failed, res.problems)
	}

	m := &measured{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue),
		problems:  res.problems,
		ops:       len(res.ops),
		layer:     res.layer,
	}
	// Every time twice: calibrated — divided by the host speed around it —
	// for the bounded end-to-end metrics, and raw, as measured, beside it.
	p50, p90, perS, cpuPerUnit := opFigures(res, func(i int) float64 { return localSpeed(slices, i) })
	rawP50, _, rawPerS, rawCPUPerUnit := opFigures(res, func(int) float64 { return 1 })
	mallocs := 0.0
	for _, o := range res.ops {
		mallocs += o.mallocs
	}
	quarter := max(1, len(slices)/4)
	res.layer["host.calib_ms"] = median(slices)
	res.layer["host.calib_drift_pct"] = (median(slices[len(slices)-quarter:])/median(slices[:quarter]) - 1) * 100
	res.layer["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	res.layer["host.gogc"] = float64(gcPercent())
	res.layer["run.ops"] = float64(len(res.ops))
	res.layer["run.units"] = float64(res.units)
	res.layer["run.actuation_ms_p90"] = p90
	res.layer["run.raw_setup_s"] = median(rawSetups)
	res.layer["run.raw_actuation_ms_p50"] = rawP50
	res.layer["run.raw_throughput_per_s"] = rawPerS
	res.layer["run.raw_cpu_ms_per_unit"] = rawCPUPerUnit

	if !opt.trace {
		values := map[string]float64{
			"setup_s":          median(setups),
			"actuation_ms_p50": p50,
			"throughput_per_s": perS,
			"allocs_per_unit":  mallocs / float64(res.units),
			"cpu_ms_per_unit":  cpuPerUnit,
			"heap_mb":          heapMB,
		}
		for _, d := range endToEnd {
			m.Metrics[d.name] = metricValue{values[d.name], d.unit}
		}
		return m, nil
	}
	for _, d := range perLayer {
		m.Metrics[d.name] = metricValue{res.layer[d.name], d.unit}
	}
	for name := range res.layer {
		if _, listed := m.Metrics[name]; !listed {
			return nil, fmt.Errorf("workload emitted %q, which BENCHMARK.json does not list", name)
		}
	}
	return m, nil
}

// opFigures returns a run's op-time figures with every op's times divided
// by speed(i): the median and the 90th percentile of the op time in ms,
// units of work per second of op time, and CPU ms per unit of work.
func opFigures(res *result, speed func(i int) float64) (p50, p90, perS, cpuPerUnit float64) {
	ms := make([]float64, len(res.ops))
	var wallMs, cpuMs float64
	for i, o := range res.ops {
		ms[i] = o.ms / speed(i)
		wallMs += ms[i]
		cpuMs += o.cpuMs / speed(i)
	}
	return median(ms), percentile(ms, 90), float64(res.units) / (wallMs / 1000), cpuMs / float64(res.units)
}

// localSpeed is the host-speed factor for op i, which ran between
// slices[i] and slices[i+1]: the median of the 64 slices around it over
// the nominal slice time. The window follows the host when it changes
// pace in mid-run; the median over it shrugs off the single slice that
// shared the collector with the op before it.
func localSpeed(slices []float64, i int) float64 {
	const half = 32
	lo, hi := max(0, i+1-half), min(len(slices), i+1+half)
	return median(slices[lo:hi]) / refSliceMs
}

// print writes the human-readable table and, last, the one-line JSON
// result the driver reads.
func (m *measured) print(w io.Writer, spec *workloadSpec, trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "# %s: op = %s, unit = %s; %d ops\n", spec.name, spec.op, spec.unit, m.ops)
	if trace {
		fmt.Fprintf(w, "# *_ms of layers are raw; run.actuation_ms_p90 is at reference host speed\n")
	} else {
		fmt.Fprintf(w, "# times are at reference host speed; raw: setup_s %.4f, actuation_ms_p50 %.4f, throughput_per_s %.4f, cpu_ms_per_unit %.5f\n",
			m.layer["run.raw_setup_s"], m.layer["run.raw_actuation_ms_p50"], m.layer["run.raw_throughput_per_s"], m.layer["run.raw_cpu_ms_per_unit"])
	}
	fmt.Fprintf(w, "# host.calib_ms %.3f (nominal %.1f), drift over the run %+.1f %%\n",
		m.layer["host.calib_ms"], refSliceMs, m.layer["host.calib_drift_pct"])
	for _, d := range defs {
		if v, ok := m.Metrics[d.name]; ok {
			fmt.Fprintf(w, "%-44s %16.4f %s\n", d.name, v.Value, v.Unit)
		}
	}
	for _, p := range m.problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
	line, err := json.Marshal(m)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	var opt options
	var trace, repeat int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: steady_churn, release_push, failover_storm or sim_day")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&opt.seconds, "seconds", 12, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, spans recorded")
	flag.StringVar(&opt.traceOut, "trace-out", "", "with -trace 1, write the spans to this file (one JSON object per line)")
	flag.IntVar(&repeat, "repeat", 0, "run the workload N times on the one seed and report each end-to-end metric's spread against its bound")
	flag.Parse()
	opt.trace = trace != 0

	if repeat > 0 {
		if err := runRepeat(os.Stdout, opt, repeat); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	m, err := runOnce(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := m.print(os.Stdout, findWorkload(opt.workload), opt.trace); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !m.Correct {
		os.Exit(1)
	}
}
