package capacity

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobservice"
	"repro/internal/jobstore"
	"repro/internal/simclock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

type fakeUsage struct {
	total, alloc config.Resources
}

func (f *fakeUsage) TotalCapacity() config.Resources { return f.total }
func (f *fakeUsage) Allocated() config.Resources     { return f.alloc }

type fakeLister struct{ jobs []JobInfo }

func (f *fakeLister) ListJobs() []JobInfo { return f.jobs }

func provision(t *testing.T, svc *jobservice.Service, name string, priority int) {
	t.Helper()
	err := svc.Provision(&config.JobConfig{
		Name:           name,
		Package:        config.Package{Name: "x", Version: "v1"},
		TaskCount:      4,
		ThreadsPerTask: 2,
		TaskResources:  config.Resources{CPUCores: 1, MemoryBytes: 1 << 30},
		Operator:       config.OpTailer,
		Input:          config.Input{Category: name + "_in", Partitions: 8},
		Priority:       priority,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAuthorizeUnderNormalLoad(t *testing.T) {
	usage := &fakeUsage{
		total: config.Resources{CPUCores: 100, MemoryBytes: 100 << 30},
		alloc: config.Resources{CPUCores: 50, MemoryBytes: 50 << 30},
	}
	m := New(simclock.NewSim(epoch), jobservice.New(jobstore.New()), usage, nil)
	if !m.AuthorizeScaleUp("j", 0, config.Resources{CPUCores: 10}) {
		t.Fatal("scale-up denied with ample headroom")
	}
}

func TestAuthorizeDeniedUnderPressure(t *testing.T) {
	usage := &fakeUsage{
		total: config.Resources{CPUCores: 100, MemoryBytes: 100 << 30},
		alloc: config.Resources{CPUCores: 84, MemoryBytes: 10 << 30},
	}
	m := New(simclock.NewSim(epoch), jobservice.New(jobstore.New()), usage, nil)
	// Projected 94% > 85% threshold: denied for unprivileged.
	if m.AuthorizeScaleUp("j", 0, config.Resources{CPUCores: 10}) {
		t.Fatal("unprivileged scale-up allowed past pressure threshold")
	}
	if m.Stats().Denial != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
	// Privileged jobs scale regardless (§V-F: prioritize privileged jobs).
	if !m.AuthorizeScaleUp("j", 9, config.Resources{CPUCores: 10}) {
		t.Fatal("privileged scale-up denied")
	}
	// A small unprivileged delta that stays under the threshold is fine.
	if !m.AuthorizeScaleUp("j", 0, config.Resources{CPUCores: 0.5}) {
		t.Fatal("harmless scale-up denied")
	}
}

func TestDominantUtilizationPicksWorstDimension(t *testing.T) {
	total := config.Resources{CPUCores: 100, MemoryBytes: 100, DiskBytes: 100, NetworkBps: 100}
	alloc := config.Resources{CPUCores: 10, MemoryBytes: 90, DiskBytes: 50, NetworkBps: 5}
	if got := dominantUtilization(alloc, total); got != 0.9 {
		t.Fatalf("dominantUtilization = %v, want 0.9", got)
	}
	if got := dominantUtilization(alloc, config.Resources{}); got != 0 {
		t.Fatalf("empty total -> %v", got)
	}
}

func TestPressureStateFlips(t *testing.T) {
	usage := &fakeUsage{total: config.Resources{CPUCores: 100}}
	clk := simclock.NewSim(epoch)
	m := New(clk, jobservice.New(jobstore.New()), usage, nil)
	usage.alloc = config.Resources{CPUCores: 90}
	m.Check()
	if !m.Pressured() {
		t.Fatal("not pressured at 90%")
	}
	usage.alloc = config.Resources{CPUCores: 40}
	m.Check()
	if m.Pressured() {
		t.Fatal("still pressured at 40%")
	}
	if st := m.Stats(); st.Checks != 2 || st.PressureRounds != 1 {
		t.Fatalf("stats = %+v, want 2 checks, 1 of them under pressure", st)
	}
}

func TestCriticalStopsLowestPriorityFirst(t *testing.T) {
	store := jobstore.New()
	svc := jobservice.New(store)
	provision(t, svc, "low", 1)
	provision(t, svc, "mid", 3)
	provision(t, svc, "vip", 9)

	usage := &fakeUsage{
		total: config.Resources{CPUCores: 100},
		alloc: config.Resources{CPUCores: 99},
	}
	lister := &fakeLister{jobs: []JobInfo{
		{Name: "vip", Priority: 9, Footprint: config.Resources{CPUCores: 30}},
		{Name: "mid", Priority: 3, Footprint: config.Resources{CPUCores: 30}},
		{Name: "low", Priority: 1, Footprint: config.Resources{CPUCores: 30}},
	}}
	m := New(simclock.NewSim(epoch), svc, usage, lister)
	m.Check()

	cfgLow, _, _ := svc.Desired("low")
	if !cfgLow.Stopped {
		t.Fatal("lowest-priority job not stopped")
	}
	// Stopping "low" projects 69% <= 95%: "mid" survives.
	cfgMid, _, _ := svc.Desired("mid")
	if cfgMid.Stopped {
		t.Fatal("mid-priority job stopped unnecessarily")
	}
	cfgVip, _, _ := svc.Desired("vip")
	if cfgVip.Stopped {
		t.Fatal("privileged job stopped")
	}
	if m.Stats().JobsStopped != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestParkedJobsRestartWhenPressureClears(t *testing.T) {
	store := jobstore.New()
	svc := jobservice.New(store)
	provision(t, svc, "low", 1)
	usage := &fakeUsage{
		total: config.Resources{CPUCores: 100},
		alloc: config.Resources{CPUCores: 99},
	}
	lister := &fakeLister{jobs: []JobInfo{
		{Name: "low", Priority: 1, Footprint: config.Resources{CPUCores: 50}},
	}}
	m := New(simclock.NewSim(epoch), svc, usage, lister)
	m.Check()
	if cfg, _, _ := svc.Desired("low"); !cfg.Stopped {
		t.Fatal("job not parked")
	}
	// Pressure clears.
	usage.alloc = config.Resources{CPUCores: 30}
	m.Check()
	if cfg, _, _ := svc.Desired("low"); cfg.Stopped {
		t.Fatal("parked job not restarted")
	}
	if m.Stats().JobsRestarted != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestPeriodicChecksOnClock(t *testing.T) {
	usage := &fakeUsage{total: config.Resources{CPUCores: 100}}
	clk := simclock.NewSim(epoch)
	m := New(clk, jobservice.New(jobstore.New()), usage, nil)
	m.Start()
	defer m.Stop()
	clk.RunFor(5 * time.Minute)
	if m.Stats().Checks != 5 {
		t.Fatalf("Checks = %d, want 5", m.Stats().Checks)
	}
	m.Start() // idempotent
	m.Stop()
	m.Stop()
}

func TestPoolTransferAndSettle(t *testing.T) {
	p := NewPool()
	res := config.Resources{CPUCores: 100, MemoryBytes: 1 << 40}
	p.Transfer("dc1", "dc2", res)
	if got := p.Adjustment("dc2"); got != res {
		t.Fatalf("dc2 adjustment = %+v", got)
	}
	if got := p.Adjustment("dc1"); got.CPUCores != -100 {
		t.Fatalf("dc1 adjustment = %+v", got)
	}
	// Nets out through chained transfers.
	p.Transfer("dc2", "dc1", res)
	if got := p.Adjustment("dc1"); !got.IsZero() {
		t.Fatalf("dc1 not settled: %+v", got)
	}
	p.Transfer("dc1", "dc3", res)
	p.Settle()
	if !p.Adjustment("dc3").IsZero() {
		t.Fatal("Settle did not clear adjustments")
	}
}

func TestUtilizationAccessor(t *testing.T) {
	usage := &fakeUsage{
		total: config.Resources{CPUCores: 10},
		alloc: config.Resources{CPUCores: 7},
	}
	m := New(simclock.NewSim(epoch), jobservice.New(jobstore.New()), usage, nil)
	if got := m.Utilization(); got != 0.7 {
		t.Fatalf("Utilization = %v", got)
	}
}
