package cluster

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/autoscaler"
	"repro/internal/config"
	"repro/internal/workload"
)

// TestRecreatedJobServesFreshConfig: a job deleted and re-created under
// the same name starts again at running version 1, so a decode cached by
// version would serve the previous incarnation's configuration to the
// monitor, the scaler, the Capacity Manager and the health reporter. The
// cache is keyed on the store-wide commit revision, which never repeats.
func TestRecreatedJobServesFreshConfig(t *testing.T) {
	c := newCluster(t, Config{Hosts: 2})
	if err := c.AddJob(JobSpec{Config: tailerJob("j", 2, 8), Pattern: workload.Constant(mb)}); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Minute)
	if sig, ok := c.JobSignals("j"); !ok || sig.TaskCount != 2 {
		t.Fatalf("first incarnation: signals %+v (%v), want TaskCount 2", sig, ok)
	}
	if err := c.RemoveJob("j"); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Minute)
	if got := c.TotalRunningTasks(); got != 0 {
		t.Fatalf("%d tasks still run after the removal", got)
	}
	// Nothing of the removed job is left behind between monitor ticks.
	c.mu.Lock()
	left := len(c.records)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d job records left after the removal, want none", left)
	}

	if err := c.AddJob(JobSpec{Config: tailerJob("j", 4, 8), Pattern: workload.Constant(mb)}); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Minute)
	if got := c.JobRunningTasks("j"); got != 4 {
		t.Fatalf("second incarnation runs %d tasks, want 4", got)
	}
	if _, v, _ := c.Store.RunningDoc("j"); v != 1 {
		t.Fatalf("running version of the re-created job = %d; the scenario needs the version to repeat", v)
	}
	sig, ok := c.JobSignals("j")
	if !ok || sig.TaskCount != 4 {
		t.Fatalf("second incarnation: signals report TaskCount %d (%v), want 4", sig.TaskCount, ok)
	}
	want := config.Resources{CPUCores: 8, MemoryBytes: 8 << 30}
	jobs := c.ListJobs()
	if len(jobs) != 1 || jobs[0].Footprint != want {
		t.Fatalf("ListJobs = %+v, want one job with footprint %+v", jobs, want)
	}
	if got := c.Allocated(); got != want {
		t.Fatalf("Allocated = %+v, want %+v", got, want)
	}
	if h := c.JobHealth(); len(h) != 1 || h[0].DesiredTasks != 4 {
		t.Fatalf("JobHealth = %+v, want DesiredTasks 4", h)
	}
}

// TestAllocatedFollowsTheRunningTable: Allocated is memoised on the
// journal head, so it must move with every kind of running-table change —
// commit, re-commit at a new size, park, drop and a Restore — and agree
// with the fold over ListJobs it replaces after each.
func TestAllocatedFollowsTheRunningTable(t *testing.T) {
	c := newCluster(t, Config{Hosts: 2})
	check := func(when string) config.Resources {
		t.Helper()
		var want config.Resources
		for _, info := range c.ListJobs() {
			if !info.Stopped {
				want = want.Add(info.Footprint)
			}
		}
		for i := 0; i < 2; i++ { // the second read is served from the memo
			if got := c.Allocated(); got != want {
				t.Fatalf("%s: Allocated (read %d) = %+v, ListJobs adds up to %+v", when, i, got, want)
			}
		}
		return want
	}
	if got := check("empty cluster"); !got.IsZero() {
		t.Fatalf("empty cluster allocates %+v", got)
	}
	for _, name := range []string{"a", "b"} {
		if err := c.AddJob(JobSpec{Config: tailerJob(name, 2, 8), Pattern: workload.Constant(mb)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(2 * time.Minute)
	if got := check("two jobs"); got.CPUCores != 8 {
		t.Fatalf("two 2-task jobs allocate %+v, want 8 cores", got)
	}
	if err := c.Jobs.SetTaskCount("a", config.LayerOncall, 4); err != nil {
		t.Fatal(err)
	}
	c.Run(2 * time.Minute)
	if got := check("after scaling a"); got.CPUCores != 12 {
		t.Fatalf("after scaling a to 4 tasks: %+v, want 12 cores", got)
	}
	if err := c.Jobs.SetStopped("b", true); err != nil {
		t.Fatal(err)
	}
	c.Run(2 * time.Minute)
	if got := check("after parking b"); got.CPUCores != 8 {
		t.Fatalf("after parking b: %+v, want 8 cores", got)
	}
	data, err := c.Store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveJob("a"); err != nil {
		t.Fatal(err)
	}
	c.Run(2 * time.Minute)
	if got := check("after removing a"); !got.IsZero() {
		t.Fatalf("after removing a (b parked): %+v, want nothing", got)
	}
	if err := c.Store.Restore(data); err != nil {
		t.Fatal(err)
	}
	if got := check("after Restore"); got.CPUCores != 8 {
		t.Fatalf("after restoring the snapshot that still has a: %+v, want 8 cores", got)
	}
}

// signalHistory runs a small seeded cluster — jobs whose tasks share
// containers and, thanks to skewed input, process at different rates — and
// returns every job's signals at every monitor tick.
func signalHistory(t *testing.T) []map[string]autoscaler.Signals {
	t.Helper()
	c := newCluster(t, Config{Hosts: 2, EnableScaler: true})
	rates := workload.LongTailRates(3, 6*mb, 7)
	for i, rate := range rates {
		weights := make([]float64, 16)
		for p := range weights {
			weights[p] = 1 + float64((p*7+i)%5)
		}
		err := c.AddJob(JobSpec{
			Config:       tailerJob(fmt.Sprintf("j%d", i), 8, 16),
			Pattern:      workload.Diurnal(rate, rate*0.3, 14, 0.01),
			InputWeights: weights,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var history []map[string]autoscaler.Signals
	for tick := 0; tick < 30; tick++ {
		c.Run(time.Minute)
		now := make(map[string]autoscaler.Signals)
		for _, job := range c.JobNames() {
			if sig, ok := c.JobSignals(job); ok {
				now[job] = sig
			}
		}
		history = append(history, now)
	}
	if c.TotalRunningTasks() == 0 || c.Violations() != 0 {
		t.Fatalf("%d tasks running, %d violations", c.TotalRunningTasks(), c.Violations())
	}
	return history
}

// TestSignalsReplayBitIdentical: the monitor receives task stats in Go map
// order, and a float sum's last bit depends on the order of its terms. Two
// runs of the same cluster must still produce bit-identical signals, or a
// seed does not replay: ProcessingRate and TaskRates are folded in task
// order, whatever order the tasks arrive in.
func TestSignalsReplayBitIdentical(t *testing.T) {
	first, second := signalHistory(t), signalHistory(t)
	multi := false
	for tick := range first {
		if len(first[tick]) != len(second[tick]) {
			t.Fatalf("tick %d: %d jobs with signals, then %d", tick, len(first[tick]), len(second[tick]))
		}
		for job, a := range first[tick] {
			b := second[tick][job]
			if math.Float64bits(a.ProcessingRate) != math.Float64bits(b.ProcessingRate) {
				t.Fatalf("tick %d, %s: ProcessingRate %x vs %x", tick, job, math.Float64bits(a.ProcessingRate), math.Float64bits(b.ProcessingRate))
			}
			if len(a.TaskRates) != len(b.TaskRates) {
				t.Fatalf("tick %d, %s: %d task rates vs %d", tick, job, len(a.TaskRates), len(b.TaskRates))
			}
			for i := range a.TaskRates {
				if math.Float64bits(a.TaskRates[i]) != math.Float64bits(b.TaskRates[i]) {
					t.Fatalf("tick %d, %s: TaskRates %v vs %v", tick, job, a.TaskRates, b.TaskRates)
				}
			}
			a.TaskRates, b.TaskRates = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("tick %d, %s: signals\n %+v\n %+v", tick, job, a, b)
			}
			multi = multi || len(first[tick][job].TaskRates) > 2
		}
	}
	if !multi {
		t.Fatal("no job ever ran more than two tasks: the fold order was never exercised")
	}
}

// TestRecreatedJobInheritsNoOOMs: OOM kills are counted under the job's
// name, and a job that never had one must not be handed its predecessor's
// the first time the monitor looks at it — the scaler would see an OOM
// burst and raise the memory of a job that is nowhere near its limit.
func TestRecreatedJobInheritsNoOOMs(t *testing.T) {
	c := newCluster(t, Config{Hosts: 2})
	tight := tailerJob("j", 1, 2)
	tight.TaskResources.MemoryBytes = 64 * mb
	if err := c.AddJob(JobSpec{Config: tight, Pattern: workload.Constant(8 * mb)}); err != nil {
		t.Fatal(err)
	}
	ooms := 0
	for i := 0; i < 12; i++ {
		c.Run(time.Minute)
		if sig, ok := c.JobSignals("j"); ok {
			ooms += sig.OOMs
		}
	}
	if ooms < 3 {
		t.Fatalf("first incarnation: %d OOM kills signalled in 12 minutes; the scenario needs a history of them", ooms)
	}
	if err := c.RemoveJob("j"); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Minute)
	if got := c.TotalRunningTasks(); got != 0 {
		t.Fatalf("%d tasks still run after the removal", got)
	}

	if err := c.AddJob(JobSpec{Config: tailerJob("j", 1, 2), Pattern: workload.Constant(mb)}); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for i := 0; i < 10; i++ {
		c.Run(time.Minute)
		sig, ok := c.JobSignals("j")
		if !ok {
			continue
		}
		seen++
		if sig.OOMs != 0 {
			t.Fatalf("minute %d of the second incarnation (2 GB limit, 1 MB/s): %d OOM kills signalled, want 0", i+1, sig.OOMs)
		}
	}
	if seen < 5 || c.JobRunningTasks("j") != 1 {
		t.Fatalf("second incarnation: %d ticks with signals, %d tasks running", seen, c.JobRunningTasks("j"))
	}
}

// TestRemovedJobIsForgotten: once a removed job has been torn down,
// nothing learned about it is left — no scaler state, no metric series —
// so a job created under its name later starts as any new job does, not
// with its predecessor's rate estimate, symptom memory and input history.
// RemoveJob alone cannot see to that: until the syncer's teardown every
// monitor tick and scaler scan re-creates what it dropped.
func TestRemovedJobIsForgotten(t *testing.T) {
	c := newCluster(t, Config{Hosts: 2, EnableScaler: true})
	add := func() {
		t.Helper()
		if err := c.AddJob(JobSpec{Config: tailerJob("j", 2, 8), Pattern: workload.Constant(mb)}); err != nil {
			t.Fatal(err)
		}
	}
	input := autoscaler.InputRateSeries("j")
	add()
	c.Run(30 * time.Minute)
	if _, ok := c.Scaler.PEstimate("j"); !ok || c.Metrics.Len(input) < 25 {
		t.Fatalf("first incarnation: scaler state %v, %d input points; the scenario needs both", ok, c.Metrics.Len(input))
	}
	if err := c.RemoveJob("j"); err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Minute)
	if p, ok := c.Scaler.PEstimate("j"); ok {
		t.Fatalf("scaler still holds P = %v for the removed job", p)
	}
	if n := c.Metrics.Len(input); n != 0 {
		t.Fatalf("%d input-rate points of the removed job still stored", n)
	}
	// Per-job series only: a shard rebalanced meanwhile adds load series
	// of its own, which belong to no job.
	for _, name := range c.Metrics.Names() {
		if strings.HasPrefix(name, "job/") {
			t.Fatalf("series %s outlives the removed job", name)
		}
	}

	add()
	c.Run(3 * time.Minute)
	if c.JobRunningTasks("j") != 2 {
		t.Fatalf("second incarnation runs %d tasks, want 2", c.JobRunningTasks("j"))
	}
	if n := c.Metrics.Len(input); n == 0 || n > 3 {
		t.Fatalf("second incarnation has %d input-rate points after 3 minutes", n)
	}
}

// TestRecreatedJobReadsNoStaleHandle: the Pattern Analyzer keeps a handle
// to each job's input-rate series, and a job removed and created again
// under its name gets a new series. Whoever holds the old handle — the
// cluster's scaler, which is told to Forget, or a scaler or analyzer built
// beside the cluster, which is told nothing — must size the second
// incarnation from its own points: a recent peak that still saw the
// first's 12 MB/s would keep a 1 MB/s job at four tasks. The recent peak is
// a deque fed incrementally, so the probe also reads it every simulated
// minute — through the removal, while the name has no series, and into the
// second incarnation — and holds every answer to a fold of the window.
func TestRecreatedJobReadsNoStaleHandle(t *testing.T) {
	opts := autoscaler.Options{DownscaleAfter: 20 * time.Minute, DownscalePeakWindow: 3 * time.Hour}
	for _, external := range []bool{false, true} {
		c := newCluster(t, Config{Hosts: 2, EnableScaler: !external, Scaler: opts})
		if external {
			sc := autoscaler.New(c.Jobs, c, c.Metrics, c.Clk, c, nil, opts)
			c.Clk.TickEvery(time.Minute, func() { sc.Scan() })
		}
		probe := autoscaler.NewPatternAnalyzer(c.Metrics, c.Clk)
		recentPeak := func() (float64, bool) {
			t.Helper()
			now := c.Clk.Now()
			peak, ok := probe.RecentPeak("j", opts.DownscalePeakWindow, now)
			a := c.Metrics.RangeAgg(autoscaler.InputRateSeries("j"), now.Add(-opts.DownscalePeakWindow), now)
			if ok != (a.Count > 0) || math.Float64bits(peak) != math.Float64bits(a.Max) {
				t.Fatalf("external %v at %v: recent peak %v, %v; the window folds to %v over %d points",
					external, now, peak, ok, a.Max, a.Count)
			}
			return peak, ok
		}
		reads := c.Clk.TickEvery(time.Minute, func() { recentPeak() })
		add := func(rate float64) {
			t.Helper()
			if err := c.AddJob(JobSpec{Config: tailerJob("j", 8, 16), Pattern: workload.Constant(rate)}); err != nil {
				t.Fatal(err)
			}
		}
		taskCount := func() int {
			t.Helper()
			_, cfg, ok := c.runningRecord("j")
			if !ok {
				t.Fatal("j has no running configuration")
			}
			return cfg.TaskCount
		}

		add(12 * mb)
		c.Run(40 * time.Minute)
		if peak, ok := recentPeak(); !ok || peak < 10*mb {
			t.Fatalf("external %v, first incarnation: recent peak %v, %v; the scenario needs its 12 MB/s on record", external, peak, ok)
		}
		if n := taskCount(); n != 4 {
			t.Fatalf("external %v, first incarnation: %d tasks configured after 40 minutes at 12 MB/s, want the downscale to 4", external, n)
		}
		if err := c.RemoveJob("j"); err != nil {
			t.Fatal(err)
		}
		c.Run(5 * time.Minute)
		if got := c.TotalRunningTasks(); got != 0 {
			t.Fatalf("external %v: %d tasks still run after the removal", external, got)
		}

		add(mb)
		c.Run(40 * time.Minute)
		if peak, ok := recentPeak(); !ok || peak > 1.5*mb {
			t.Fatalf("external %v, second incarnation at 1 MB/s: recent peak %v, %v through the handle the first one left", external, peak, ok)
		}
		if n := taskCount(); n != 1 {
			t.Fatalf("external %v, second incarnation: %d tasks configured after 40 minutes at 1 MB/s, want the downscale to 1", external, n)
		}
		reads.Stop()
		if c.Violations() != 0 {
			t.Fatalf("external %v: %d lease violations", external, c.Violations())
		}
	}
}
