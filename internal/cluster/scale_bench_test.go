package cluster

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/autoscaler"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/workload"
)

// simHourAllocCeiling bounds the objects one simulated hour of the
// sim_day-shaped cluster allocates. With the monitor's signals, task rates
// and per-job observations each cut from one slab per tick it measures
// ~5 k — those slabs, the scaler's scans — against ~30 k with one
// observation object per job per tick and ~134 k when every tick went to
// the bus and the checkpoint store once per partition, so a per-job or
// per-partition allocation creeping back into the simulated minute fails
// here.
const simHourAllocCeiling = 15_000

// BenchmarkScaleSimHour is BENCHMARK.json's sim_day workload as an in-repo
// benchmark: 400 long-tail diurnal jobs × 32 partitions on 32 hosts, Auto
// Scaler and Capacity Manager on, one simulated hour per op. Both ceilings
// are in-bench MemStats deltas, so one iteration (CI's scale-smoke job)
// arms them.
func BenchmarkScaleSimHour(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	const jobs, partitions = 400, 32
	c, err := New(Config{
		Name:           "simhour",
		Hosts:          32,
		EnableScaler:   true,
		EnableCapacity: true,
		Scaler:         autoscaler.Options{DownscaleAfter: 2 * time.Hour},
	})
	if err != nil {
		b.Fatal(err)
	}
	c.Start()
	want := 0
	for i, rate := range workload.LongTailRates(jobs, 3*mb, 42) {
		tasks := min(max(int(math.Ceil(rate/(4*mb))), 1), 6)
		want += tasks
		job := tailerJob(fmt.Sprintf("sim/t%04d", i), tasks, partitions)
		job.MaxTaskCount = partitions
		if err := c.AddJob(JobSpec{Config: job, Pattern: workload.Diurnal(rate, rate*0.3, 14, 0.01)}); err != nil {
			b.Fatal(err)
		}
	}
	c.Run(10 * time.Minute)
	if got := c.TotalRunningTasks(); got != want {
		b.Fatalf("%d tasks run after 10 simulated minutes, want %d", got, want)
	}
	// The scaler's estimates, metric history, and the one-off wave of
	// downscales DownscaleAfter from the start (56 complex syncs, ~20 k
	// objects) behind: at -benchtime 1x the measured hour is a steady one.
	c.Run(2 * time.Hour)

	var m0, m1 runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&m0)
	for i := 0; i < b.N; i++ {
		c.Run(time.Hour)
	}
	runtime.ReadMemStats(&m1)
	b.StopTimer()
	perHour := float64(m1.Mallocs-m0.Mallocs) / float64(b.N)
	b.ReportMetric(perHour, "allocs/simhour")
	if perHour > simHourAllocCeiling {
		b.Fatalf("a simulated hour allocates %.0f objects, ceiling %d", perHour, simHourAllocCeiling)
	}
	if v := c.Violations(); v != 0 {
		b.Fatalf("%d lease violations", v)
	}

	// A steady-state Task.Advance allocates nothing at any partition count:
	// its bus snapshot lands in scratch the task owns, its checkpoint write
	// in the job's record. Probe: one task of the fleet's widest shape — a
	// whole 32-partition category to itself, stateful so the checkpoint
	// write carries both halves — on the cluster's own bus and store.
	if err := c.Bus.CreateCategory("probe_in", partitions); err != nil {
		b.Fatal(err)
	}
	spec := &engine.TaskSpec{
		Job: "probe", TaskCount: 1, Threads: 2, Operator: config.OpAggregate,
		InputCategory: "probe_in", Partitions: engine.AssignPartitions(partitions, 1, 0),
		Resources: config.Resources{CPUCores: 2, MemoryBytes: 8 << 30},
	}
	probe := engine.NewTask(spec, engine.DefaultProfile(config.OpAggregate), c.Bus, c.Ckpt)
	if err := probe.Start(); err != nil {
		b.Fatal(err)
	}
	step := func() {
		if err := c.Bus.AppendEven("probe_in", 64*mb, 0); err != nil {
			b.Fatal(err)
		}
		if st := probe.Advance(time.Minute); st.ProcessedBytes == 0 {
			b.Fatal("the probe task processed nothing")
		}
	}
	step() // the job's checkpoint record grows on the first write
	const batch = 100
	runtime.ReadMemStats(&m0)
	for i := 0; i < batch; i++ {
		step()
	}
	runtime.ReadMemStats(&m1)
	// Fewer than one object per call: a process-wide delta picks up a stray
	// runtime object now and then, a per-call allocation shows up batch-fold.
	if n := m1.Mallocs - m0.Mallocs; n >= batch {
		b.Fatalf("a steady-state Advance over %d partitions allocates: %d objects in %d calls, want none", partitions, n, batch)
	}
}
