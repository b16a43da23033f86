package autoscaler

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobservice"
	"repro/internal/jobstore"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

const mb = 1 << 20

// fakeSource serves canned signals, kept sorted by job the way the
// cluster's running table hands them over.
type fakeSource struct {
	jobs []string
	sigs []*Signals
}

// set gives job the signals sig from the next scan on. The signals of an
// earlier set are replaced, never written: a scan may still hold them.
func (f *fakeSource) set(job string, sig Signals) {
	i, found := slices.BinarySearch(f.jobs, job)
	if !found {
		f.jobs = slices.Insert(f.jobs, i, job)
		f.sigs = slices.Insert(f.sigs, i, nil)
	}
	f.sigs[i] = &sig
}

// Signals hands the fleet over as the cluster does: the one allocation is
// the copy of the signals slice.
func (f *fakeSource) Signals() ([]string, []*Signals) {
	return f.jobs, slices.Clone(f.sigs)
}

type fakeRebalancer struct {
	calls []string
}

func (f *fakeRebalancer) RebalanceInput(job string) error {
	f.calls = append(f.calls, job)
	return nil
}

type denyAll struct{}

func (denyAll) AuthorizeScaleUp(string, int, config.Resources) bool { return false }

// harness bundles the scaler with its dependencies.
type harness struct {
	clk    *simclock.Sim
	jobs   *jobservice.Service
	store  *metrics.Store
	source *fakeSource
	scaler *Scaler
	reb    *fakeRebalancer
	alerts []Alert
}

func newHarness(t *testing.T, opts Options, auth Authorizer) *harness {
	t.Helper()
	h := &harness{
		clk:    simclock.NewSim(epoch),
		jobs:   jobservice.New(jobstore.New()),
		source: &fakeSource{},
		reb:    &fakeRebalancer{},
	}
	h.store = metrics.NewStore(h.clk, 15*24*time.Hour)
	opts.OnAlert = func(a Alert) { h.alerts = append(h.alerts, a) }
	h.scaler = New(h.jobs, h.source, h.store, h.clk, h.reb, auth, opts)
	return h
}

func (h *harness) provision(t *testing.T, name string, tasks, partitions, maxTasks int) {
	t.Helper()
	err := h.jobs.Provision(&config.JobConfig{
		Name:           name,
		Package:        config.Package{Name: "tailer", Version: "v1"},
		TaskCount:      tasks,
		ThreadsPerTask: 2,
		TaskResources:  config.Resources{CPUCores: 2, MemoryBytes: 1 << 30},
		Operator:       config.OpTailer,
		Input:          config.Input{Category: name + "_in", Partitions: partitions},
		MaxTaskCount:   maxTasks,
		SLOSeconds:     90,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func (h *harness) desiredTasks(t *testing.T, job string) int {
	t.Helper()
	cfg, _, err := h.jobs.Desired(job)
	if err != nil {
		t.Fatal(err)
	}
	return cfg.TaskCount
}

// baseSignals returns a healthy 4-task tailer at 8 MB/s.
func baseSignals() Signals {
	return Signals{
		InputRate:      8 * mb,
		ProcessingRate: 8 * mb,
		BacklogBytes:   0,
		TaskRates:      []float64{2 * mb, 2 * mb, 2 * mb, 2 * mb},
		TaskCount:      4,
		Threads:        2,
		TaskResources:  config.Resources{CPUCores: 2, MemoryBytes: 1 << 30},
		Partitions:     256,
		SLOSeconds:     90,
	}
}

func TestTimeLaggedEquation(t *testing.T) {
	s := Signals{BacklogBytes: 100 * mb, ProcessingRate: 10 * mb}
	if got := s.TimeLagged(0); got != 10 {
		t.Fatalf("TimeLagged = %v, want 10", got)
	}
	// Stalled job falls back to the provided capacity.
	s.ProcessingRate = 0
	if got := s.TimeLagged(50 * mb); got != 2 {
		t.Fatalf("TimeLagged fallback = %v, want 2", got)
	}
	// Nothing to fall back on: effectively stalled.
	if got := s.TimeLagged(0); got != 3600 {
		t.Fatalf("TimeLagged stalled = %v", got)
	}
	s.BacklogBytes = 0
	if got := s.TimeLagged(0); got != 0 {
		t.Fatalf("no backlog TimeLagged = %v", got)
	}
}

func TestEstimatorEquations(t *testing.T) {
	// Equation 2: X=100MB/s, P=2MB/s, k=5 -> 10 tasks.
	if got := TasksForRate(100*mb, 2*mb, 5); got != 10 {
		t.Fatalf("TasksForRate = %d, want 10", got)
	}
	// Equation 3: backlog 600MB over 60s adds 10MB/s -> 11 tasks.
	if got := TasksForRecovery(100*mb, 600*mb, 60, 2*mb, 5); got != 11 {
		t.Fatalf("TasksForRecovery = %d, want 11", got)
	}
	if got := TasksForRate(0, 2*mb, 5); got != 1 {
		t.Fatalf("zero input needs %d tasks, want 1", got)
	}
	if got := TasksForRate(100, 0, 5); got != 1 {
		t.Fatalf("degenerate P -> %d", got)
	}
	if CoresForPerTaskRate(4*mb, 2*mb) != 2 {
		t.Fatal("CoresForPerTaskRate wrong")
	}
	if MemoryEstimate(1000, 1.3) != 1300 {
		t.Fatal("MemoryEstimate wrong")
	}
	if MemoryEstimate(1000, 0.5) != 1000 {
		t.Fatal("MemoryEstimate margin floor wrong")
	}
}

func TestLaggedJobScalesHorizontally(t *testing.T) {
	h := newHarness(t, Options{DefaultP: 2 * mb}, nil)
	h.provision(t, "j1", 4, 256, 0)
	sig := baseSignals()
	// Saturated: 8 MB/s in, capacity 4 tasks x 2 threads x 2MB/s = 16,
	// but huge backlog means lag >> SLO. ProcessingRate at capacity.
	sig.InputRate = 40 * mb
	sig.ProcessingRate = 16 * mb
	sig.BacklogBytes = 100 * 1024 * mb // 100 GB backlog
	sig.TaskRates = []float64{4 * mb, 4 * mb, 4 * mb, 4 * mb}
	h.source.set("j1", sig)

	actions := h.scaler.Scan()
	if len(actions) != 1 || actions[0].Type != ActionHorizontalUp {
		t.Fatalf("actions = %+v", actions)
	}
	if got := h.desiredTasks(t, "j1"); got <= 4 {
		t.Fatalf("desired tasks = %d, want > 4", got)
	}
	if h.scaler.Stats().HorizontalUps != 1 {
		t.Fatalf("stats = %+v", h.scaler.Stats())
	}
}

func TestLaggedJobPrefersVerticalWithinCap(t *testing.T) {
	h := newHarness(t, Options{
		DefaultP:          2 * mb,
		ContainerCapacity: config.Resources{CPUCores: 40, MemoryBytes: 200 << 30},
	}, nil)
	h.provision(t, "j1", 4, 256, 0)
	sig := baseSignals()
	// Tasks CPU-capped at 1 core of their 2 threads; modest lag that one
	// more core per task would fix.
	sig.TaskResources.CPUCores = 1
	sig.InputRate = 7 * mb
	sig.ProcessingRate = 8 * mb
	sig.BacklogBytes = 1200 * mb // lag = 150s > 90s SLO
	sig.TaskRates = []float64{2 * mb, 2 * mb, 2 * mb, 2 * mb}
	h.source.set("j1", sig)

	actions := h.scaler.Scan()
	if len(actions) != 1 || actions[0].Type != ActionVerticalCPU {
		t.Fatalf("actions = %+v", actions)
	}
	cfg, _, _ := h.jobs.Desired("j1")
	if cfg.TaskResources.CPUCores <= 1 {
		t.Fatalf("CPU not raised: %+v", cfg.TaskResources)
	}
	if cfg.TaskCount != 4 {
		t.Fatalf("task count changed on vertical action: %d", cfg.TaskCount)
	}
}

func TestImbalancedInputRebalancesInsteadOfScaling(t *testing.T) {
	h := newHarness(t, Options{DefaultP: 2 * mb}, nil)
	h.provision(t, "j1", 4, 256, 0)
	sig := baseSignals()
	sig.BacklogBytes = 10 * 1024 * mb
	sig.ProcessingRate = 10 * mb
	// One hot task, three idle: heavy imbalance.
	sig.TaskRates = []float64{9 * mb, 0.3 * mb, 0.3 * mb, 0.3 * mb}
	h.source.set("j1", sig)

	actions := h.scaler.Scan()
	if len(actions) != 1 || actions[0].Type != ActionRebalance {
		t.Fatalf("actions = %+v", actions)
	}
	if len(h.reb.calls) != 1 || h.reb.calls[0] != "j1" {
		t.Fatalf("rebalancer calls = %v", h.reb.calls)
	}
	if got := h.desiredTasks(t, "j1"); got != 4 {
		t.Fatalf("task count changed: %d", got)
	}
}

func TestOOMGrowsMemoryVertically(t *testing.T) {
	h := newHarness(t, Options{DefaultP: 2 * mb}, nil)
	h.provision(t, "j1", 4, 256, 0)
	sig := baseSignals()
	sig.OOMs = 2
	sig.MemPeakBytes = 1200 * mb
	h.source.set("j1", sig)

	actions := h.scaler.Scan()
	if len(actions) != 1 || actions[0].Type != ActionVerticalMemory {
		t.Fatalf("actions = %+v", actions)
	}
	cfg, _, _ := h.jobs.Desired("j1")
	if cfg.TaskResources.MemoryBytes <= 1<<30 {
		t.Fatalf("memory not raised: %d", cfg.TaskResources.MemoryBytes)
	}
}

func TestOOMAtVerticalCapGoesHorizontal(t *testing.T) {
	h := newHarness(t, Options{
		DefaultP:          2 * mb,
		ContainerCapacity: config.Resources{CPUCores: 40, MemoryBytes: 10 << 30}, // cap = 2 GB
	}, nil)
	h.provision(t, "j1", 4, 256, 0)
	sig := baseSignals()
	sig.OOMs = 1
	sig.TaskResources.MemoryBytes = 1900 * mb
	sig.MemPeakBytes = 3000 * mb // estimate exceeds the 2 GB cap
	h.source.set("j1", sig)

	actions := h.scaler.Scan()
	if len(actions) != 1 || actions[0].Type != ActionHorizontalUp {
		t.Fatalf("actions = %+v", actions)
	}
	if got := h.desiredTasks(t, "j1"); got <= 4 {
		t.Fatalf("tasks = %d", got)
	}
}

func TestUntriagedProblemAlertsInsteadOfScaling(t *testing.T) {
	h := newHarness(t, Options{DefaultP: 2 * mb}, nil)
	h.provision(t, "j1", 4, 256, 0)
	sig := baseSignals()
	// Lag, but input is tiny vs capacity, no imbalance, no OOM: a
	// dependency failure the scaler must not "fix" with more tasks.
	sig.InputRate = 1 * mb
	sig.ProcessingRate = 0.1 * mb
	sig.BacklogBytes = 1024 * mb
	sig.TaskRates = []float64{0.025 * mb, 0.025 * mb, 0.025 * mb, 0.025 * mb}
	h.source.set("j1", sig)

	actions := h.scaler.Scan()
	if len(actions) != 1 || actions[0].Type != ActionUntriagedAlert {
		t.Fatalf("actions = %+v", actions)
	}
	if got := h.desiredTasks(t, "j1"); got != 4 {
		t.Fatalf("untriaged problem changed task count to %d", got)
	}
	if len(h.alerts) != 1 || !strings.Contains(h.alerts[0].Reason, "untriaged") {
		t.Fatalf("alerts = %+v", h.alerts)
	}
}

func TestHorizontalCapClampsAndAlerts(t *testing.T) {
	h := newHarness(t, Options{DefaultP: 2 * mb}, nil)
	h.provision(t, "j1", 4, 256, 32) // unprivileged cap 32 (§VI-B1)
	sig := baseSignals()
	sig.MaxTaskCount = 32
	sig.InputRate = 500 * mb
	sig.ProcessingRate = 16 * mb
	sig.BacklogBytes = 1024 * 1024 * mb
	sig.TaskRates = []float64{4 * mb, 4 * mb, 4 * mb, 4 * mb}
	h.source.set("j1", sig)

	actions := h.scaler.Scan()
	if len(actions) != 1 || actions[0].Type != ActionHorizontalUp || actions[0].ToTasks != 32 {
		t.Fatalf("actions = %+v", actions)
	}
	found := false
	for _, a := range h.alerts {
		if strings.Contains(a.Reason, "cap reached") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cap alert: %+v", h.alerts)
	}
	// Oncall lifts the cap: next scan scales further (fig 8's flow).
	if err := h.jobs.SetMaxTaskCount("j1", 256); err != nil {
		t.Fatal(err)
	}
	sig.TaskCount = 32
	sig.MaxTaskCount = 256
	h.source.set("j1", sig)
	actions = h.scaler.Scan()
	if len(actions) != 1 || actions[0].ToTasks <= 32 {
		t.Fatalf("post-cap actions = %+v", actions)
	}
}

func TestDownscaleAfterQuietPeriod(t *testing.T) {
	h := newHarness(t, Options{DefaultP: 2 * mb, DownscaleAfter: time.Hour}, nil)
	h.provision(t, "j1", 4, 256, 0)
	sig := baseSignals()
	sig.InputRate = 2 * mb // one task would do
	sig.ProcessingRate = 2 * mb
	sig.TaskRates = []float64{0.5 * mb, 0.5 * mb, 0.5 * mb, 0.5 * mb}
	h.source.set("j1", sig)
	// Record history so RecentPeak works.
	for i := 0; i < 120; i++ {
		h.store.Record(InputRateSeries("j1"), 2*mb)
		h.clk.RunFor(time.Minute)
	}

	// First scan: job just discovered, quiet period not yet met.
	if actions := h.scaler.Scan(); len(actions) != 0 {
		t.Fatalf("premature action: %+v", actions)
	}
	h.clk.RunFor(2 * time.Hour)
	actions := h.scaler.Scan()
	if len(actions) != 1 || actions[0].Type != ActionHorizontalDown {
		t.Fatalf("actions = %+v", actions)
	}
	if got := h.desiredTasks(t, "j1"); got >= 4 {
		t.Fatalf("tasks = %d, want < 4", got)
	}
}

func TestDownscaleVetoWhenItWouldBreakJob(t *testing.T) {
	h := newHarness(t, Options{DefaultP: 2 * mb, DownscaleAfter: time.Hour}, nil)
	h.provision(t, "j1", 4, 256, 0)
	sig := baseSignals()
	// Live traffic nearly saturates capacity; recent peak (history) low,
	// so nPrime would be small — the veto must catch it.
	sig.InputRate = 15 * mb
	sig.ProcessingRate = 15 * mb
	h.source.set("j1", sig)
	h.scaler.Scan() // first sighting starts the quiet period
	h.clk.RunFor(2 * time.Hour)
	h.store.Record(InputRateSeries("j1"), 1*mb) // misleadingly low recent peak

	if actions := h.scaler.Scan(); len(actions) != 0 {
		t.Fatalf("vetoed downscale acted: %+v", actions)
	}
	if h.scaler.Stats().DownscalesVetoed != 1 {
		t.Fatalf("stats = %+v", h.scaler.Stats())
	}
	if got := h.desiredTasks(t, "j1"); got != 4 {
		t.Fatalf("tasks = %d", got)
	}
}

func TestDownscaleSkippedWhenHistoryShowsPeaks(t *testing.T) {
	h := newHarness(t, Options{DefaultP: 2 * mb, DownscaleAfter: time.Hour}, nil)
	h.provision(t, "j1", 4, 256, 0)

	// Build 3 days of history: every day, 2 hours from "now"-of-day there
	// is a 14 MB/s peak. Current traffic is 2 MB/s.
	sig := baseSignals()
	sig.InputRate = 2 * mb
	sig.ProcessingRate = 2 * mb
	h.source.set("j1", sig)
	h.scaler.Scan() // first sighting starts the quiet period
	start := h.clk.Now()
	for m := 0; m < 3*24*60; m++ {
		at := start.Add(time.Duration(m) * time.Minute)
		rate := 2.0 * mb
		// Peak at minutes 90..150 of each day-relative window.
		dayMin := m % (24 * 60)
		if dayMin >= 90 && dayMin <= 150 {
			rate = 14 * mb
		}
		h.store.RecordAt(InputRateSeries("j1"), at, rate)
	}
	h.clk.RunFor(3 * 24 * time.Hour)

	actions := h.scaler.Scan()
	if len(actions) != 0 {
		t.Fatalf("downscale despite historical peaks: %+v", actions)
	}
	if h.scaler.Stats().DownscalesSkippedHist == 0 {
		t.Fatalf("stats = %+v", h.scaler.Stats())
	}
}

func TestOutlierDisablesHistoryBasedDownscale(t *testing.T) {
	h := newHarness(t, Options{DefaultP: 2 * mb, DownscaleAfter: time.Hour}, nil)
	h.provision(t, "j1", 4, 256, 0)

	// 3 quiet days at 4 MB/s, then the last 30 minutes at 0.2 MB/s — an
	// unusual lull (maybe upstream is broken). The outlier check must
	// block the tempting deep downscale.
	sig := baseSignals()
	sig.InputRate = 4 * mb
	sig.ProcessingRate = 4 * mb
	h.source.set("j1", sig)
	h.scaler.Scan() // first sighting starts the quiet period
	start := h.clk.Now()
	total := 3 * 24 * 60
	for m := 0; m < total; m++ {
		rate := 4.0 * mb
		if m >= total-30 {
			rate = 0.2 * mb
		}
		h.store.RecordAt(InputRateSeries("j1"), start.Add(time.Duration(m)*time.Minute), rate)
	}
	h.clk.RunFor(3 * 24 * time.Hour)

	sig.InputRate = 0.2 * mb
	sig.ProcessingRate = 0.2 * mb
	h.source.set("j1", sig)

	if actions := h.scaler.Scan(); len(actions) != 0 {
		t.Fatalf("outlier downscale acted: %+v", actions)
	}
	if h.scaler.Stats().DownscalesSkippedHist == 0 {
		t.Fatalf("stats = %+v", h.scaler.Stats())
	}
}

func TestPAdjustedUpwardWhenSaturated(t *testing.T) {
	h := newHarness(t, Options{DefaultP: 1 * mb}, nil)
	h.provision(t, "j1", 4, 256, 0)
	sig := baseSignals()
	// Job saturated at 4 MB/s per task (2 MB/s per thread), P thought 1.
	sig.InputRate = 40 * mb
	sig.ProcessingRate = 16 * mb
	sig.BacklogBytes = 100 * 1024 * mb
	h.source.set("j1", sig)
	h.scaler.Scan()
	p, ok := h.scaler.PEstimate("j1")
	if !ok || p < 1.9*mb {
		t.Fatalf("P = %v, want ~2MB/s", p)
	}
}

func TestPAdjustedDownAfterFailedDownscale(t *testing.T) {
	h := newHarness(t, Options{DefaultP: 8 * mb, DownscaleAfter: time.Minute}, nil)
	h.provision(t, "j1", 4, 256, 0)
	sig := baseSignals() // 8 MB/s input, healthy
	h.source.set("j1", sig)
	h.scaler.Scan() // first sighting starts the quiet period
	for i := 0; i < 40; i++ {
		h.store.Record(InputRateSeries("j1"), 8*mb)
		h.clk.RunFor(time.Minute)
	}
	actions := h.scaler.Scan() // overconfident P=8MB/s -> deep downscale
	if len(actions) != 1 || actions[0].Type != ActionHorizontalDown {
		t.Fatalf("actions = %+v", actions)
	}
	newN := actions[0].ToTasks
	pBefore, _ := h.scaler.PEstimate("j1")

	// The downscale broke the job: lag appears.
	sig.TaskCount = newN
	sig.BacklogBytes = 10 * 1024 * mb
	sig.ProcessingRate = float64(newN) * 2 * mb
	sig.TaskRates = nil
	h.source.set("j1", sig)
	h.scaler.Scan()

	pAfter, _ := h.scaler.PEstimate("j1")
	if pAfter >= pBefore {
		t.Fatalf("P not adjusted down: %v -> %v", pBefore, pAfter)
	}
	if h.scaler.Stats().PAdjustments == 0 {
		t.Fatalf("stats = %+v", h.scaler.Stats())
	}
}

func TestCapacityDenialBlocksScaleUp(t *testing.T) {
	h := newHarness(t, Options{DefaultP: 2 * mb}, denyAll{})
	h.provision(t, "j1", 4, 256, 0)
	sig := baseSignals()
	sig.InputRate = 100 * mb
	sig.ProcessingRate = 16 * mb
	sig.BacklogBytes = 100 * 1024 * mb
	h.source.set("j1", sig)

	h.scaler.Scan()
	if got := h.desiredTasks(t, "j1"); got != 4 {
		t.Fatalf("denied scale-up still landed: %d tasks", got)
	}
	if h.scaler.Stats().ScaleUpsDenied == 0 {
		t.Fatalf("stats = %+v", h.scaler.Stats())
	}
}

func TestCorrelatedMemoryAdjustOnStatefulHorizontalUp(t *testing.T) {
	h := newHarness(t, Options{DefaultP: 2 * mb}, nil)
	err := h.jobs.Provision(&config.JobConfig{
		Name:           "agg",
		Package:        config.Package{Name: "agg", Version: "v1"},
		TaskCount:      4,
		ThreadsPerTask: 2,
		TaskResources:  config.Resources{CPUCores: 2, MemoryBytes: 8 << 30},
		Operator:       config.OpAggregate,
		Input:          config.Input{Category: "agg_in", Partitions: 256},
		SLOSeconds:     90,
	})
	if err != nil {
		t.Fatal(err)
	}
	sig := baseSignals()
	sig.Stateful = true
	sig.TaskResources.MemoryBytes = 8 << 30
	sig.InputRate = 100 * mb
	sig.ProcessingRate = 16 * mb
	sig.BacklogBytes = 100 * 1024 * mb
	h.source.set("agg", sig)

	h.scaler.Scan()
	cfg, _, _ := h.jobs.Desired("agg")
	if cfg.TaskCount <= 4 {
		t.Fatalf("no horizontal up: %d", cfg.TaskCount)
	}
	if cfg.TaskResources.MemoryBytes >= 8<<30 {
		t.Fatalf("memory not correlated down: %d", cfg.TaskResources.MemoryBytes)
	}
}

func TestPeriodicScanOnClock(t *testing.T) {
	h := newHarness(t, Options{DefaultP: 2 * mb, ScanInterval: time.Minute}, nil)
	h.provision(t, "j1", 4, 256, 0)
	sig := baseSignals()
	sig.InputRate = 100 * mb
	sig.ProcessingRate = 16 * mb
	sig.BacklogBytes = 100 * 1024 * mb
	h.source.set("j1", sig)
	h.scaler.Start()
	defer h.scaler.Stop()
	h.clk.RunFor(61 * time.Second)
	if h.scaler.Stats().Scans == 0 {
		t.Fatal("no periodic scans ran")
	}
	if got := h.desiredTasks(t, "j1"); got <= 4 {
		t.Fatalf("tasks = %d", got)
	}
	h.scaler.Start() // idempotent
	h.scaler.Stop()
	h.scaler.Stop()
}

func TestMemoryReclaimWhenPeakFarBelowReservation(t *testing.T) {
	h := newHarness(t, Options{DefaultP: 2 * mb, DownscaleAfter: time.Hour}, nil)
	h.provision(t, "j1", 4, 256, 0)
	sig := baseSignals()
	// Traffic sized so exactly 4 tasks are needed: no horizontal-down
	// competes with the memory reclaim under test.
	sig.InputRate = 13 * mb
	sig.ProcessingRate = 13 * mb
	sig.TaskRates = []float64{3.25 * mb, 3.25 * mb, 3.25 * mb, 3.25 * mb}
	sig.MemPeakBytes = 300 * mb // reservation 1 GB
	h.source.set("j1", sig)
	h.scaler.Scan() // first sighting starts the quiet period
	for i := 0; i < 130; i++ {
		h.store.Record(InputRateSeries("j1"), 13*mb)
		h.clk.RunFor(time.Minute)
	}
	actions := h.scaler.Scan()
	if len(actions) != 1 || actions[0].Type != ActionVerticalMemoryDown {
		t.Fatalf("actions = %+v", actions)
	}
	cfg, _, _ := h.jobs.Desired("j1")
	if cfg.TaskResources.MemoryBytes >= 1<<30 {
		t.Fatalf("memory not reclaimed: %d", cfg.TaskResources.MemoryBytes)
	}
	if cfg.TaskResources.MemoryBytes < 256*mb {
		t.Fatalf("memory below floor: %d", cfg.TaskResources.MemoryBytes)
	}
}

func TestActionTypeStrings(t *testing.T) {
	for a, want := range map[ActionType]string{
		ActionNone: "none", ActionRebalance: "rebalance",
		ActionVerticalCPU: "vertical-cpu", ActionVerticalMemory: "vertical-memory",
		ActionHorizontalUp: "horizontal-up", ActionHorizontalDown: "horizontal-down",
		ActionVerticalMemoryDown: "vertical-memory-down",
		ActionUntriagedAlert:     "untriaged-alert", ActionType(99): "action(99)",
	} {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

func TestSoftLimitMemoryAdjustmentWithoutOOM(t *testing.T) {
	// §V-A third detection mode: tasks without memory enforcement never
	// OOM-kill; the scaler compares ongoing usage to the soft limit.
	h := newHarness(t, Options{DefaultP: 2 * mb}, nil)
	h.provision(t, "j1", 4, 256, 0)
	sig := baseSignals()
	sig.Enforcement = config.EnforceNone
	sig.OOMs = 0
	sig.MemPeakBytes = 1500 * mb // soft limit is 1 GB
	h.source.set("j1", sig)

	actions := h.scaler.Scan()
	if len(actions) != 1 || actions[0].Type != ActionVerticalMemory {
		t.Fatalf("actions = %+v", actions)
	}
	cfg, _, _ := h.jobs.Desired("j1")
	if cfg.TaskResources.MemoryBytes <= 1<<30 {
		t.Fatalf("soft-limit breach did not raise memory: %d", cfg.TaskResources.MemoryBytes)
	}
}

func TestEnforcedJobIgnoresSoftLimitPath(t *testing.T) {
	// A cgroup-enforced job over its limit would have OOMed; without an
	// OOM signal its high usage is just headroom consumption — no action.
	h := newHarness(t, Options{DefaultP: 2 * mb}, nil)
	h.provision(t, "j1", 4, 256, 0)
	sig := baseSignals()
	sig.Enforcement = config.EnforceCgroup
	sig.MemPeakBytes = 1500 * mb
	h.source.set("j1", sig)
	if actions := h.scaler.Scan(); len(actions) != 0 {
		t.Fatalf("actions = %+v", actions)
	}
}

func TestDiskEstimatorGrowsReservation(t *testing.T) {
	// §V-B: join jobs' disk is proportional to their window; the disk
	// estimator grows the reservation as the spill approaches it.
	h := newHarness(t, Options{DefaultP: 2 * mb}, nil)
	err := h.jobs.Provision(&config.JobConfig{
		Name:           "join1",
		Package:        config.Package{Name: "join", Version: "v1"},
		TaskCount:      4,
		ThreadsPerTask: 2,
		TaskResources:  config.Resources{CPUCores: 2, MemoryBytes: 2 << 30, DiskBytes: 1 << 30},
		Operator:       config.OpJoin,
		Input:          config.Input{Category: "join_in", Partitions: 64},
		SLOSeconds:     90,
	})
	if err != nil {
		t.Fatal(err)
	}
	sig := baseSignals()
	sig.Stateful = true
	sig.TaskResources.DiskBytes = 1 << 30
	sig.DiskPeakBytes = 900 * mb // within 20% of the 1 GB reservation
	h.source.set("join1", sig)

	actions := h.scaler.Scan()
	if len(actions) != 1 || actions[0].Type != ActionVerticalDisk {
		t.Fatalf("actions = %+v", actions)
	}
	cfg, _, _ := h.jobs.Desired("join1")
	if cfg.TaskResources.DiskBytes <= 1<<30 {
		t.Fatalf("disk not grown: %d", cfg.TaskResources.DiskBytes)
	}
	if h.scaler.Stats().VerticalDiskUps != 1 {
		t.Fatalf("stats = %+v", h.scaler.Stats())
	}
}

func TestDiskWellUnderReservationNoAction(t *testing.T) {
	h := newHarness(t, Options{DefaultP: 2 * mb}, nil)
	h.provision(t, "j1", 4, 256, 0)
	sig := baseSignals()
	sig.TaskResources.DiskBytes = 10 << 30
	sig.DiskPeakBytes = 1 << 30 // 10% used
	h.source.set("j1", sig)
	if actions := h.scaler.Scan(); len(actions) != 0 {
		t.Fatalf("actions = %+v", actions)
	}
}
