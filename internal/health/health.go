// Package health implements Turbine's fleet-health reporting (paper §VII):
// "Aside from job level monitoring and alert dashboards, Turbine has
// several tools to report the percentage of tasks not running, lagging, or
// unhealthy." Each of those higher-level metrics backs a runbook; this
// package computes them, keeps their history, and routes deduplicated
// alerts — the operational layer that, per the paper's lessons, keeps
// clusters healthy with little human oversight.
package health

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
)

// JobHealth is one job's health inputs, assembled by the cluster monitor.
type JobHealth struct {
	Name         string
	DesiredTasks int
	RunningTasks int
	TimeLagged   float64 // seconds, equation (1)
	SLOSeconds   float64
	OOMs         int
	Quarantined  bool
	Stopped      bool
}

// Source provides the per-job health inputs.
type Source interface {
	JobHealth() []JobHealth
}

// Snapshot is one evaluation of fleet health: the §VII top-line numbers.
type Snapshot struct {
	At              time.Time
	Jobs            int
	TasksDesired    int
	TasksRunning    int
	PctNotRunning   float64 // % of desired tasks not running
	PctLagging      float64 // % of jobs out of SLO
	PctUnhealthy    float64 // % of jobs not running clean (lag/OOM/quarantine)
	LaggingJobs     []string
	QuarantinedJobs []string
}

// Level classifies an alert.
type Level int

// Alert levels.
const (
	LevelWarn Level = iota
	LevelCritical
)

func (l Level) String() string {
	if l == LevelCritical {
		return "CRITICAL"
	}
	return "WARN"
}

// Alert is a deduplicated fleet-health alert: one per (key) until it
// resolves, mirroring how production alerting avoids paging storms.
type Alert struct {
	Key     string
	Level   Level
	Message string
	At      time.Time
}

// Alert thresholds on the §VII top-line percentages.
const (
	// warnNotRunningPct of desired tasks not running raises the
	// tasks-not-running alert; critNotRunningPct escalates it.
	warnNotRunningPct = 5
	critNotRunningPct = 20
	// warnLaggingPct of jobs out of SLO raises the jobs-lagging alert.
	warnLaggingPct = 1
)

// Options tune the reporter.
type Options struct {
	// Interval between evaluations (default 60 s).
	Interval time.Duration
	// OnAlert receives newly raised (or escalated) alerts.
	OnAlert func(Alert)
}

// Reporter periodically evaluates fleet health, records the top-line
// series into the metric store, and raises deduplicated alerts.
type Reporter struct {
	source Source
	store  *metrics.Store
	clock  simclock.Clock
	opts   Options

	mu      sync.Mutex
	last    Snapshot
	active  map[string]Alert
	history int
	ticker  simclock.Ticker
}

// New builds a Reporter. store may be nil (no series recorded).
func New(source Source, store *metrics.Store, clock simclock.Clock, opts Options) *Reporter {
	if opts.Interval <= 0 {
		opts.Interval = time.Minute
	}
	return &Reporter{
		source: source,
		store:  store,
		clock:  clock,
		opts:   opts,
		active: make(map[string]Alert),
	}
}

// Start schedules periodic evaluations.
func (r *Reporter) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ticker == nil {
		r.ticker = r.clock.TickEvery(r.opts.Interval, func() { r.Evaluate() })
	}
}

// Stop cancels periodic evaluations.
func (r *Reporter) Stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ticker != nil {
		r.ticker.Stop()
		r.ticker = nil
	}
}

// Last returns the most recent snapshot.
func (r *Reporter) Last() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// ActiveAlerts returns currently firing alerts, sorted by key.
func (r *Reporter) ActiveAlerts() []Alert {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Alert, 0, len(r.active))
	for _, a := range r.active {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Evaluations reports how many evaluations have run.
func (r *Reporter) Evaluations() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.history
}

// Evaluate computes one snapshot, updates series and alert state, and
// returns the snapshot.
func (r *Reporter) Evaluate() Snapshot {
	now := r.clock.Now()
	jobs := r.source.JobHealth()

	snap := Snapshot{At: now, Jobs: len(jobs)}
	unhealthy := 0
	for _, j := range jobs {
		if j.Stopped {
			continue
		}
		snap.TasksDesired += j.DesiredTasks
		snap.TasksRunning += j.RunningTasks
		slo := j.SLOSeconds
		if slo <= 0 {
			slo = 90
		}
		lagging := j.TimeLagged > slo
		if lagging {
			snap.LaggingJobs = append(snap.LaggingJobs, j.Name)
		}
		if j.Quarantined {
			snap.QuarantinedJobs = append(snap.QuarantinedJobs, j.Name)
		}
		if lagging || j.Quarantined || j.OOMs > 0 || j.RunningTasks < j.DesiredTasks {
			unhealthy++
		}
	}
	sort.Strings(snap.LaggingJobs)
	sort.Strings(snap.QuarantinedJobs)
	if snap.TasksDesired > 0 {
		snap.PctNotRunning = 100 * float64(snap.TasksDesired-snap.TasksRunning) / float64(snap.TasksDesired)
		if snap.PctNotRunning < 0 {
			snap.PctNotRunning = 0
		}
	}
	if snap.Jobs > 0 {
		snap.PctLagging = 100 * float64(len(snap.LaggingJobs)) / float64(snap.Jobs)
		snap.PctUnhealthy = 100 * float64(unhealthy) / float64(snap.Jobs)
	}

	if r.store != nil {
		r.store.Record("health/pctNotRunning", snap.PctNotRunning)
		r.store.Record("health/pctLagging", snap.PctLagging)
		r.store.Record("health/pctUnhealthy", snap.PctUnhealthy)
	}

	r.mu.Lock()
	r.last = snap
	r.history++
	r.mu.Unlock()

	notRunning := LevelWarn
	if snap.PctNotRunning >= critNotRunningPct {
		notRunning = LevelCritical
	}
	r.updateAlert("tasks-not-running", now, snap.PctNotRunning >= warnNotRunningPct, notRunning,
		fmt.Sprintf("%.1f%% of desired tasks not running", snap.PctNotRunning))
	r.updateAlert("jobs-lagging", now, snap.PctLagging >= warnLaggingPct,
		LevelWarn,
		fmt.Sprintf("%.1f%% of jobs out of SLO (%d jobs)", snap.PctLagging, len(snap.LaggingJobs)))
	r.updateAlert("jobs-quarantined", now, len(snap.QuarantinedJobs) > 0,
		LevelCritical,
		fmt.Sprintf("%d jobs quarantined awaiting oncall", len(snap.QuarantinedJobs)))
	return snap
}

// updateAlert raises the keyed alert on a false→true edge, re-raises on a
// level escalation, and resolves on a true→false edge. Steady state never
// re-notifies: deduplication.
func (r *Reporter) updateAlert(key string, at time.Time, firing bool, level Level, msg string) {
	r.mu.Lock()
	cur, active := r.active[key]
	var raise *Alert
	switch {
	case firing && (!active || level > cur.Level):
		a := Alert{Key: key, Level: level, Message: msg, At: at}
		r.active[key] = a
		raise = &a
	case firing:
		// Still firing at the same level: refresh the message silently.
		cur.Message = msg
		r.active[key] = cur
	case active:
		delete(r.active, key)
	}
	r.mu.Unlock()

	if raise != nil && r.opts.OnAlert != nil {
		r.opts.OnAlert(*raise)
	}
}
