// Package capacity implements Turbine's Capacity Manager (paper §V-F): the
// cluster-level arm of resource management.
//
// The Capacity Manager monitors aggregate resource usage, makes sure each
// resource type has sufficient cluster-wide allocation, and during events
// like disaster-recovery storms communicates with the Auto Scaler — it
// reports the remaining capacity and instructs the scaler to prioritize
// privileged jobs (implemented here as the scaler's Authorizer). In the
// extreme case of a cluster running out of resources it is authorized to
// stop lower-priority jobs and redistribute their resources toward
// unblocking higher-priority ones; it restarts them when pressure clears.
//
// A Pool models the temporary transfer of capacity between clusters for
// better global utilization (datacenter outages, drills).
package capacity

import (
	"sort"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/jobservice"
	"repro/internal/simclock"
)

// UsageSource reports the cluster's aggregate capacity and allocation; the
// cluster harness implements it.
type UsageSource interface {
	// TotalCapacity is the sum of all healthy containers' capacities.
	TotalCapacity() config.Resources
	// Allocated is the sum of all running jobs' reservations
	// (taskCount × per-task resources).
	Allocated() config.Resources
}

// JobInfo describes one job for priority decisions.
type JobInfo struct {
	Name      string
	Priority  int
	Footprint config.Resources // total reservation
	Stopped   bool
}

// JobLister enumerates running jobs for the stop-low-priority path.
type JobLister interface {
	ListJobs() []JobInfo
}

// The manager's control constants (§V-F).
const (
	// pressureThreshold: above this utilization fraction the cluster is
	// under pressure and unprivileged scale-ups are denied.
	pressureThreshold = 0.85
	// criticalThreshold: above this, low-priority jobs are stopped until
	// projected utilization returns below it.
	criticalThreshold = 0.95
	// priorityFloor: jobs at or above this priority are privileged — they
	// scale even under pressure and are never stopped.
	priorityFloor = 5
	// checkInterval between utilization checks.
	checkInterval = time.Minute
)

// Stats are cumulative counters.
type Stats struct {
	Checks         int
	Denial         int
	JobsStopped    int
	JobsRestarted  int
	PressureRounds int
}

// Manager is the Capacity Manager. It implements autoscaler.Authorizer.
type Manager struct {
	clock simclock.Clock
	jobs  *jobservice.Service
	usage UsageSource
	list  JobLister

	mu        sync.Mutex
	pressured bool
	stopped   map[string]struct{} // jobs this manager parked
	stats     Stats
	ticker    simclock.Ticker
}

// New builds a Manager. list may be nil, disabling the stop-low-priority
// escalation.
func New(clock simclock.Clock, jobs *jobservice.Service, usage UsageSource, list JobLister) *Manager {
	return &Manager{
		clock:   clock,
		jobs:    jobs,
		usage:   usage,
		list:    list,
		stopped: make(map[string]struct{}),
	}
}

// Start schedules periodic utilization checks.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ticker == nil {
		m.ticker = m.clock.TickEvery(checkInterval, func() { m.Check() })
	}
}

// Stop cancels periodic checks.
func (m *Manager) Stop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ticker != nil {
		m.ticker.Stop()
		m.ticker = nil
	}
}

// Stats returns cumulative counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Pressured reports whether the cluster is currently under pressure.
func (m *Manager) Pressured() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pressured
}

// Utilization returns the dominant utilization fraction across dimensions.
func (m *Manager) Utilization() float64 {
	return dominantUtilization(m.usage.Allocated(), m.usage.TotalCapacity())
}

func dominantUtilization(alloc, total config.Resources) float64 {
	u := 0.0
	if total.CPUCores > 0 {
		u = max(u, alloc.CPUCores/total.CPUCores)
	}
	if total.MemoryBytes > 0 {
		u = max(u, float64(alloc.MemoryBytes)/float64(total.MemoryBytes))
	}
	if total.DiskBytes > 0 {
		u = max(u, float64(alloc.DiskBytes)/float64(total.DiskBytes))
	}
	if total.NetworkBps > 0 {
		u = max(u, float64(alloc.NetworkBps)/float64(total.NetworkBps))
	}
	return u
}

// AuthorizeScaleUp implements the Auto Scaler's capacity gate: privileged
// jobs always scale; others scale while the projected utilization stays
// under the pressure threshold.
func (m *Manager) AuthorizeScaleUp(job string, priority int, delta config.Resources) bool {
	if priority >= priorityFloor {
		return true
	}
	total := m.usage.TotalCapacity()
	projected := m.usage.Allocated().Add(delta)
	if dominantUtilization(projected, total) <= pressureThreshold {
		return true
	}
	m.mu.Lock()
	m.stats.Denial++
	m.mu.Unlock()
	return false
}

// Check evaluates utilization once: flips pressure state, stops
// low-priority jobs above the critical threshold, and restarts parked jobs
// once utilization recovers.
func (m *Manager) Check() {
	util := m.Utilization()

	m.mu.Lock()
	m.stats.Checks++
	m.pressured = util > pressureThreshold
	if m.pressured {
		m.stats.PressureRounds++
	}
	m.mu.Unlock()

	switch {
	case util > criticalThreshold && m.list != nil:
		m.stopLowPriority()
	case util <= pressureThreshold:
		m.restartParked()
	}
}

// stopLowPriority parks the lowest-priority running jobs until the
// projected utilization returns below the critical threshold.
func (m *Manager) stopLowPriority() {
	total := m.usage.TotalCapacity()
	alloc := m.usage.Allocated()
	jobs := m.list.ListJobs()
	// Lowest priority first; deterministic by name within a priority.
	sort.Slice(jobs, func(i, j int) bool {
		if jobs[i].Priority != jobs[j].Priority {
			return jobs[i].Priority < jobs[j].Priority
		}
		return jobs[i].Name < jobs[j].Name
	})
	for _, j := range jobs {
		if dominantUtilization(alloc, total) <= criticalThreshold {
			break
		}
		if j.Stopped || j.Priority >= priorityFloor {
			continue
		}
		if err := m.jobs.SetStopped(j.Name, true); err != nil {
			continue
		}
		alloc = alloc.Sub(j.Footprint)
		m.mu.Lock()
		m.stopped[j.Name] = struct{}{}
		m.stats.JobsStopped++
		m.mu.Unlock()
	}
}

// restartParked un-stops jobs this manager stopped, but only while the
// projected utilization (with the job's footprint back) stays under the
// pressure threshold — otherwise stop/restart would oscillate.
func (m *Manager) restartParked() {
	m.mu.Lock()
	names := make([]string, 0, len(m.stopped))
	for j := range m.stopped {
		names = append(names, j)
	}
	sort.Strings(names)
	m.mu.Unlock()
	if len(names) == 0 {
		return
	}

	footprints := make(map[string]config.Resources)
	if m.list != nil {
		for _, j := range m.list.ListJobs() {
			footprints[j.Name] = j.Footprint
		}
	}
	total := m.usage.TotalCapacity()
	alloc := m.usage.Allocated()
	for _, j := range names {
		projected := alloc.Add(footprints[j])
		if dominantUtilization(projected, total) > pressureThreshold {
			continue
		}
		if err := m.jobs.SetStopped(j, false); err != nil {
			continue
		}
		alloc = projected
		m.mu.Lock()
		delete(m.stopped, j)
		m.stats.JobsRestarted++
		m.mu.Unlock()
	}
}

// Pool tracks capacity lent between clusters during datacenter-wide
// events (§V-F): Transfer moves headroom from one cluster's books to
// another's; Restore gives it back.
type Pool struct {
	mu       sync.Mutex
	clusters map[string]config.Resources // extra (possibly negative) capacity
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{clusters: make(map[string]config.Resources)}
}

// Transfer moves res of capacity from one cluster to another.
func (p *Pool) Transfer(from, to string, res config.Resources) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.clusters[from] = p.clusters[from].Sub(res)
	p.clusters[to] = p.clusters[to].Add(res)
}

// Adjustment returns the net capacity lent to (positive) or borrowed from
// (negative) the named cluster.
func (p *Pool) Adjustment(cluster string) config.Resources {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clusters[cluster]
}

// Settle clears all adjustments (the event is over).
func (p *Pool) Settle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.clusters = make(map[string]config.Resources)
}
