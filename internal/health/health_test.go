package health

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

type fakeSource struct{ jobs []JobHealth }

func (f *fakeSource) JobHealth() []JobHealth { return f.jobs }

func healthyJob(name string, tasks int) JobHealth {
	return JobHealth{
		Name: name, DesiredTasks: tasks, RunningTasks: tasks,
		TimeLagged: 0, SLOSeconds: 90,
	}
}

func newReporter(src *fakeSource, opts Options) (*Reporter, *simclock.Sim, *metrics.Store) {
	clk := simclock.NewSim(epoch)
	store := metrics.NewStore(clk, time.Hour)
	return New(src, store, clk, opts), clk, store
}

func TestHealthyFleetSnapshot(t *testing.T) {
	src := &fakeSource{jobs: []JobHealth{healthyJob("a", 4), healthyJob("b", 2)}}
	r, _, store := newReporter(src, Options{})
	snap := r.Evaluate()
	if snap.Jobs != 2 || snap.TasksDesired != 6 || snap.TasksRunning != 6 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.PctNotRunning != 0 || snap.PctLagging != 0 || snap.PctUnhealthy != 0 {
		t.Fatalf("healthy fleet has nonzero percentages: %+v", snap)
	}
	if len(r.ActiveAlerts()) != 0 {
		t.Fatalf("alerts on a healthy fleet: %+v", r.ActiveAlerts())
	}
	if store.WindowAgg("health/pctNotRunning", time.Hour).Count == 0 {
		t.Fatal("series not recorded")
	}
}

func TestPercentages(t *testing.T) {
	src := &fakeSource{jobs: []JobHealth{
		{Name: "a", DesiredTasks: 8, RunningTasks: 6, SLOSeconds: 90},                  // 2 missing
		{Name: "b", DesiredTasks: 2, RunningTasks: 2, TimeLagged: 500, SLOSeconds: 90}, // lagging
		{Name: "c", DesiredTasks: 2, RunningTasks: 2, SLOSeconds: 90, OOMs: 3},         // OOMing
		{Name: "d", DesiredTasks: 4, RunningTasks: 4, SLOSeconds: 90},                  // fine
	}}
	r, _, _ := newReporter(src, Options{})
	snap := r.Evaluate()
	if snap.PctNotRunning != 12.5 { // 2 of 16
		t.Fatalf("PctNotRunning = %v", snap.PctNotRunning)
	}
	if snap.PctLagging != 25 { // 1 of 4
		t.Fatalf("PctLagging = %v", snap.PctLagging)
	}
	if snap.PctUnhealthy != 75 { // a, b, c
		t.Fatalf("PctUnhealthy = %v", snap.PctUnhealthy)
	}
	if len(snap.LaggingJobs) != 1 || snap.LaggingJobs[0] != "b" {
		t.Fatalf("LaggingJobs = %v", snap.LaggingJobs)
	}
}

func TestStoppedJobsExcluded(t *testing.T) {
	src := &fakeSource{jobs: []JobHealth{
		healthyJob("a", 4),
		{Name: "parked", DesiredTasks: 8, RunningTasks: 0, Stopped: true},
	}}
	r, _, _ := newReporter(src, Options{})
	snap := r.Evaluate()
	if snap.PctNotRunning != 0 {
		t.Fatalf("stopped job counted as not-running: %+v", snap)
	}
}

func TestAlertDeduplication(t *testing.T) {
	var raised []Alert
	src := &fakeSource{jobs: []JobHealth{
		{Name: "a", DesiredTasks: 10, RunningTasks: 9, SLOSeconds: 90}, // 10% not running
	}}
	r, _, _ := newReporter(src, Options{
		OnAlert: func(a Alert) { raised = append(raised, a) },
	})

	r.Evaluate()
	r.Evaluate()
	r.Evaluate()
	if len(raised) != 1 {
		t.Fatalf("dedup failed: %d alerts for a steady condition", len(raised))
	}
	if raised[0].Key != "tasks-not-running" || raised[0].Level != LevelWarn {
		t.Fatalf("alert = %+v", raised[0])
	}

	// Escalation re-raises at the higher level.
	src.jobs = []JobHealth{{Name: "a", DesiredTasks: 10, RunningTasks: 5, SLOSeconds: 90}}
	r.Evaluate()
	if len(raised) != 2 || raised[1].Level != LevelCritical {
		t.Fatalf("escalation not raised: %+v", raised)
	}

	// Recovery resolves the alert without notifying.
	if active := r.ActiveAlerts(); len(active) != 1 || active[0].Key != "tasks-not-running" {
		t.Fatalf("active before recovery = %+v", active)
	}
	src.jobs = []JobHealth{healthyJob("a", 10)}
	r.Evaluate()
	r.Evaluate()
	if len(raised) != 2 {
		t.Fatalf("recovery raised an alert: %+v", raised)
	}
	if len(r.ActiveAlerts()) != 0 {
		t.Fatalf("active = %+v", r.ActiveAlerts())
	}
}

func TestQuarantineAlertCritical(t *testing.T) {
	src := &fakeSource{jobs: []JobHealth{
		{Name: "a", DesiredTasks: 2, RunningTasks: 2, SLOSeconds: 90, Quarantined: true},
	}}
	r, _, _ := newReporter(src, Options{})
	snap := r.Evaluate()
	if len(snap.QuarantinedJobs) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	alerts := r.ActiveAlerts()
	found := false
	for _, a := range alerts {
		if a.Key == "jobs-quarantined" && a.Level == LevelCritical {
			found = true
		}
	}
	if !found {
		t.Fatalf("no critical quarantine alert: %+v", alerts)
	}
}

func TestPeriodicEvaluationOnClock(t *testing.T) {
	src := &fakeSource{jobs: []JobHealth{healthyJob("a", 1)}}
	r, clk, _ := newReporter(src, Options{Interval: time.Minute})
	r.Start()
	defer r.Stop()
	clk.RunFor(5 * time.Minute)
	if r.Evaluations() != 5 {
		t.Fatalf("Evaluations = %d", r.Evaluations())
	}
	if r.Last().Jobs != 1 {
		t.Fatalf("Last = %+v", r.Last())
	}
	r.Start() // idempotent
	r.Stop()
	r.Stop()
}

func TestLevelString(t *testing.T) {
	if LevelWarn.String() != "WARN" || LevelCritical.String() != "CRITICAL" {
		t.Fatal("level strings changed")
	}
}
