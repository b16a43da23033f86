// Package shardmanager models Facebook's Shard Manager service (paper
// §IV-A; similar to Google's Slicer): the general mechanism for balanced
// assignment of shards to containers that Turbine builds its two-level
// task placement on.
//
// Tasks never appear here. Task Managers hash task IDs to shard IDs
// locally (ShardOf); the Shard Manager only decides which container owns
// which shard, which is exactly the decoupling that lets Turbine keep
// scheduling when the Job Management layer is down and vice versa (§IV-D).
//
// Responsibilities reproduced from the paper:
//
//   - shard movement via the DROP_SHARD / ADD_SHARD protocol (§IV-A2);
//   - heartbeat-based fail-over: a container missing heartbeats for a full
//     fail-over interval (60 s) is presumed dead and its shards are moved
//     (§IV-C);
//   - periodic load balancing: a bin-packing of shards to containers that
//     keeps each container's total load within a utilization band (e.g.
//     ±10%) of the mean while satisfying capacity and headroom constraints
//     (§IV-B).
//
// Internally the manager is organised around incrementally-maintained
// state so the fleet-wide fan-in paths scale (DESIGN.md §11):
//
//   - heartbeats land in a lock-striped liveness table and load reports in
//     a lock-striped shard-load table, so neither serializes on the
//     assignment lock;
//   - the assignment carries a persistent reverse index (container →
//     shard set) plus per-container running load, updated on every
//     placement, move, and fail-over — balancing never rebuilds them;
//   - readers (Owner, Mapping) go through an immutable copy-on-write
//     snapshot republished after each mutating pass, so the degraded-mode
//     read path (§IV-D) never contends with balancing.
package shardmanager

import (
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/simclock"
	"repro/internal/stripe"
)

// ErrUnavailable is returned by Heartbeat while the Shard Manager service
// is down. Task Managers entering this degraded mode keep their shards
// and tasks running from the stored mapping (§IV-D): with the Shard
// Manager down, nothing can fail their shards over, so continuing is safe.
var ErrUnavailable = errors.New("shardmanager: service unavailable")

// ErrTimeout is the network-partition-shaped heartbeat failure: the call
// never reached the Shard Manager's endpoint. Unlike ErrUnavailable, the
// Task Manager cannot tell whether the service is alive — its shards MAY
// be failed over to another container — so it must count the silence
// toward its proactive connection timeout (§IV-C). Produced by the fault
// injector's heartbeat blackouts.
var ErrTimeout = errors.New("shardmanager: heartbeat timed out")

// DefaultFailoverInterval is how long a container may miss heartbeats
// before its shards are failed over (§IV-C). Exported so the Task
// Manager's timing validation can check the 40s < 60s invariant against
// the default when no override is configured.
const DefaultFailoverInterval = 60 * time.Second

// ShardID identifies one shard of the task hash space.
type ShardID int

// ShardOf maps a stable task identity to its shard: the MD5 hash of the
// task ID modulo the shard count. Every Task Manager computes this locally
// from its task-spec snapshot (§IV-A1).
func ShardOf(taskID string, numShards int) ShardID {
	if numShards <= 0 {
		return 0
	}
	sum := md5.Sum([]byte(taskID))
	return ShardID(binary.BigEndian.Uint64(sum[:8]) % uint64(numShards))
}

// Handler is the shard-movement interface each Turbine container's Task
// Manager exposes to the Shard Manager.
type Handler interface {
	// AddShard tells the container it now owns the shard: it must
	// retrieve the shard's tasks and start them.
	AddShard(ShardID) error
	// DropShard tells the container to stop the shard's tasks and forget
	// the shard.
	DropShard(ShardID) error
}

// headroom is the fraction of each container's capacity balancing keeps
// free to absorb workload spikes (§VI-A).
const headroom = 0.10

// Options tune the manager. Zero values take the paper's defaults.
type Options struct {
	// NumShards is the size of the shard space (default 1024).
	NumShards int
	// UtilizationBand is the allowed relative deviation of a container's
	// load from the mean (default 0.10 = ±10%, §IV-B).
	UtilizationBand float64
	// FailoverInterval is how long a container may miss heartbeats before
	// its shards are failed over (default 60 s, §IV-C).
	FailoverInterval time.Duration
	// FailureCheckInterval is how often heartbeats are scanned
	// (default 10 s).
	FailureCheckInterval time.Duration
	// RebalanceInterval is how often the shard→container mapping is
	// re-generated from fresh loads (default 30 min, §IV-B).
	RebalanceInterval time.Duration
}

func (o *Options) fillDefaults() {
	if o.NumShards <= 0 {
		o.NumShards = 1024
	}
	if o.UtilizationBand <= 0 {
		o.UtilizationBand = 0.10
	}
	if o.FailoverInterval <= 0 {
		o.FailoverInterval = DefaultFailoverInterval
	}
	if o.FailureCheckInterval <= 0 {
		o.FailureCheckInterval = 10 * time.Second
	}
	if o.RebalanceInterval <= 0 {
		o.RebalanceInterval = 30 * time.Minute
	}
}

type containerState struct {
	id       string
	capacity config.Resources
	handler  Handler
	region   string
}

// Stats are cumulative counters.
type Stats struct {
	Moves       int           // shard movements (balancing + failover)
	Failovers   int           // containers failed over
	Rebalances  int           // balancing passes that ran
	DropErrors  int           // DROP_SHARD failures (source forcefully killed)
	AddErrors   int           // ADD_SHARD failures
	LastBalance time.Duration // wall-clock cost of the last mapping pass
}

// hbStripeCount is the heartbeat-table stripe fan-out: power of two so
// the stripe index is a mask; 16 stripes keep a 10K-container fleet's
// 10-second heartbeat fan-in off any single mutex.
const hbStripeCount = 16

// hbStripe holds last-heartbeat times for the container IDs that hash to
// it. Presence in the table is what makes a heartbeat legal: Register
// inserts, Unregister and fail-over delete.
type hbStripe struct {
	mu   sync.Mutex
	last map[string]time.Time
}

// Manager is the Shard Manager. Safe for concurrent use.
//
// Lock order (for paths that take more than one): mu, then a heartbeat or
// load stripe. Heartbeat and ReportShardLoads take only their stripes;
// Owner and Mapping take no lock at all (atomic snapshot).
type Manager struct {
	clock simclock.Clock
	opts  Options

	unavailable atomic.Bool
	hb          [hbStripeCount]hbStripe
	ld          [loadStripeCount]loadStripe
	snap        atomic.Pointer[mappingSnapshot]

	mu         sync.RWMutex
	containers map[string]*containerState
	assignment map[ShardID]string
	// contShards is the persistent reverse index: container → set of
	// shards it owns. Maintained by every placement, move and fail-over
	// so ShardsOf and balancing never scan the full assignment.
	contShards map[string]map[ShardID]struct{}
	// contLoad is the running per-container resource load: the sum of
	// applied[s] over contShards. Updated incrementally on placement,
	// move, fail-over and load-fold.
	contLoad map[string]config.Resources
	// applied is the per-shard load currently folded into contLoad;
	// foldLoadsLocked syncs it from the striped report table.
	applied map[ShardID]config.Resources
	// unassigned is the explicit set of shards without an owner, so
	// placement never iterates the whole shard space.
	unassigned       map[ShardID]struct{}
	regions          map[ShardID]string // shard -> required region ("" = any)
	balancingEnabled bool
	snapDirty        bool
	stats            Stats
	tickers          []simclock.Ticker
}

// New returns a Manager with the given options.
func New(clock simclock.Clock, opts Options) *Manager {
	opts.fillDefaults()
	m := &Manager{
		clock:            clock,
		opts:             opts,
		containers:       make(map[string]*containerState),
		assignment:       make(map[ShardID]string),
		contShards:       make(map[string]map[ShardID]struct{}),
		contLoad:         make(map[string]config.Resources),
		applied:          make(map[ShardID]config.Resources),
		unassigned:       make(map[ShardID]struct{}, opts.NumShards),
		regions:          make(map[ShardID]string),
		balancingEnabled: true,
	}
	for s := ShardID(0); s < ShardID(opts.NumShards); s++ {
		m.unassigned[s] = struct{}{}
	}
	for i := range m.hb {
		m.hb[i].last = make(map[string]time.Time)
	}
	for i := range m.ld {
		m.ld[i].loads = make(map[ShardID]config.Resources)
		m.ld[i].dirty = make(map[ShardID]struct{})
	}
	m.snap.Store(&mappingSnapshot{owners: map[ShardID]string{}})
	return m
}

// NumShards returns the shard-space size.
func (m *Manager) NumShards() int { return m.opts.NumShards }

// Start schedules the periodic failure check and rebalance on the clock.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.tickers) > 0 {
		return
	}
	m.tickers = append(m.tickers,
		m.clock.TickEvery(m.opts.FailureCheckInterval, func() { m.CheckFailures() }),
		m.clock.TickEvery(m.opts.RebalanceInterval, func() { m.Rebalance() }),
	)
}

// Stop cancels the periodic work.
func (m *Manager) Stop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.tickers {
		t.Stop()
	}
	m.tickers = nil
}

// SetBalancingEnabled toggles the load balancer (used by the Figure 7
// experiment). Fail-over continues to work while balancing is off.
func (m *Manager) SetBalancingEnabled(enabled bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.balancingEnabled = enabled
}

// Register adds a container (or re-registers one after a reboot). A
// re-registering container keeps whatever shards are still mapped to it;
// a brand-new one starts empty and receives shards from AssignUnassigned
// or the next rebalance ("gradually added", §IV-C).
func (m *Manager) Register(id string, capacity config.Resources, h Handler) {
	m.RegisterInRegion(id, "", capacity, h)
}

// RegisterInRegion adds a container tagged with a region. Shards
// constrained to a region (SetShardRegion) are only placed on containers
// of that region — the paper's "satisfying regional constraints" (§IV-B).
func (m *Manager) RegisterInRegion(id, region string, capacity config.Resources, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.containers[id] = &containerState{
		id:       id,
		capacity: capacity,
		handler:  h,
		region:   region,
	}
	if m.contShards[id] == nil {
		m.contShards[id] = make(map[ShardID]struct{})
	}
	st := m.hbStripeFor(id)
	st.mu.Lock()
	st.last[id] = m.clock.Now()
	st.mu.Unlock()
}

// SetShardRegion constrains a shard to containers of the given region
// (empty clears the constraint). Takes effect on the next placement pass;
// a shard currently outside its region moves at the next rebalance.
func (m *Manager) SetShardRegion(shard ShardID, region string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if region == "" {
		delete(m.regions, shard)
		return
	}
	m.regions[shard] = region
}

// regionOKLocked reports whether a container may host a shard.
func (m *Manager) regionOKLocked(shard ShardID, c *containerState) bool {
	want := m.regions[shard]
	return want == "" || want == c.region
}

// Unregister removes a container without failing over its shards; callers
// that need failover semantics use CheckFailures or FailoverContainer.
// The shards stay mapped to the departed ID (and its reverse-index entry
// is kept consistent) until a fail-over or re-register.
func (m *Manager) Unregister(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.containers, id)
	m.hbDeleteLocked(id)
}

// SetAvailable simulates the Shard Manager service going down or coming
// back. While down, heartbeats fail with ErrUnavailable and no failovers
// or rebalances run; the shard→container mapping remains readable — the
// "stored mapping" Task Managers degrade to (§IV-D). On recovery all
// heartbeat deadlines reset, so the outage itself does not trigger a mass
// failover.
func (m *Manager) SetAvailable(available bool) {
	wasDown := m.unavailable.Swap(!available)
	if available && wasDown {
		now := m.clock.Now()
		for i := range m.hb {
			st := &m.hb[i]
			st.mu.Lock()
			for id := range st.last {
				st.last[id] = now
			}
			st.mu.Unlock()
		}
	}
}

// Heartbeat records liveness for a container. It returns ErrUnavailable
// while the service is down, or an error if the container is unknown
// (e.g. already failed over) — the Task Manager must then re-register as
// a new, empty container.
//
// Heartbeats touch only their liveness stripe: a fleet-wide heartbeat
// fan-in never waits behind balancing or other containers' stripes.
func (m *Manager) Heartbeat(id string) error {
	if m.unavailable.Load() {
		return ErrUnavailable
	}
	st := m.hbStripeFor(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.last[id]; !ok {
		return fmt.Errorf("shardmanager: unknown container %q", id)
	}
	st.last[id] = m.clock.Now()
	return nil
}

// hbStripeFor hashes a container ID onto its liveness stripe.
func (m *Manager) hbStripeFor(id string) *hbStripe {
	return &m.hb[stripe.Hash(id)&(hbStripeCount-1)]
}

// hbDeleteLocked drops a container from the liveness table (m.mu held).
func (m *Manager) hbDeleteLocked(id string) {
	st := m.hbStripeFor(id)
	st.mu.Lock()
	delete(st.last, id)
	st.mu.Unlock()
}

// Stats returns cumulative counters.
func (m *Manager) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.stats
}

// ContainerIDs returns registered containers, sorted.
func (m *Manager) ContainerIDs() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.containers))
	for id := range m.containers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// CheckFailures scans heartbeats and fails over every container that has
// been silent for a full fail-over interval: its shards move to the
// least-loaded surviving containers and the container is forgotten. It
// returns the IDs of failed-over containers.
//
// The scan reads only the liveness stripes; the assignment lock is taken
// just for the (normally empty) set of dead containers, with a per-ID
// re-check so a heartbeat racing the scan wins.
func (m *Manager) CheckFailures() []string {
	if m.unavailable.Load() {
		return nil
	}
	now := m.clock.Now()
	var candidates []string
	for i := range m.hb {
		st := &m.hb[i]
		st.mu.Lock()
		for id, last := range st.last {
			if now.Sub(last) >= m.opts.FailoverInterval {
				candidates = append(candidates, id)
			}
		}
		st.mu.Unlock()
	}
	if len(candidates) == 0 {
		return nil
	}
	sort.Strings(candidates)
	m.mu.Lock()
	defer m.mu.Unlock()
	var dead []string
	for _, id := range candidates {
		if _, ok := m.containers[id]; !ok {
			continue
		}
		st := m.hbStripeFor(id)
		st.mu.Lock()
		last, ok := st.last[id]
		st.mu.Unlock()
		if !ok || now.Sub(last) < m.opts.FailoverInterval {
			continue // a heartbeat raced the scan; the container lives
		}
		m.failoverLocked(id)
		dead = append(dead, id)
	}
	m.publishLocked()
	return dead
}

// FailoverContainer forces immediate fail-over of one container
// (experiments use it to model maintenance events, §VI-A).
func (m *Manager) FailoverContainer(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.containers[id]; ok {
		m.failoverLocked(id)
		m.publishLocked()
	}
}

func (m *Manager) failoverLocked(id string) {
	delete(m.containers, id)
	m.hbDeleteLocked(id)
	m.stats.Failovers++
	// Orphan the dead container's shards via the reverse index, then
	// place them like fresh shards. The dead handler is never called (it
	// cannot respond); the Task Manager's own proactive timeout
	// guarantees it already stopped processing before this point (§IV-C).
	for s := range m.contShards[id] {
		delete(m.assignment, s)
		m.unassigned[s] = struct{}{}
		m.snapDirty = true
	}
	delete(m.contShards, id)
	delete(m.contLoad, id)
	moved := m.assignUnassignedLocked()
	m.stats.Moves += moved
}

func (m *Manager) sortedContainersLocked() []*containerState {
	out := make([]*containerState, 0, len(m.containers))
	for _, c := range m.containers {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// score is the scalar balancing load of a resource vector: the sum of
// dimension loads normalized by a reference capacity, so heterogeneous
// dimensions compare. Used for both shards and containers.
func score(load, ref config.Resources) float64 {
	s := 0.0
	if ref.CPUCores > 0 {
		s += load.CPUCores / ref.CPUCores
	}
	if ref.MemoryBytes > 0 {
		s += float64(load.MemoryBytes) / float64(ref.MemoryBytes)
	}
	if ref.DiskBytes > 0 {
		s += float64(load.DiskBytes) / float64(ref.DiskBytes)
	}
	if ref.NetworkBps > 0 {
		s += float64(load.NetworkBps) / float64(ref.NetworkBps)
	}
	return s
}

// placeLocked assigns an unowned shard to a container, maintaining the
// reverse index, running load, unassigned set and snapshot dirtiness,
// and notifies the container (ADD_SHARD).
func (m *Manager) placeLocked(s ShardID, c *containerState) {
	m.assignment[s] = c.id
	set := m.contShards[c.id]
	if set == nil {
		set = make(map[ShardID]struct{})
		m.contShards[c.id] = set
	}
	set[s] = struct{}{}
	if l, ok := m.applied[s]; ok {
		m.contLoad[c.id] = m.contLoad[c.id].Add(l)
	}
	delete(m.unassigned, s)
	m.snapDirty = true
	if c.handler != nil {
		if err := c.handler.AddShard(s); err != nil {
			m.stats.AddErrors++
		}
	}
}

// moveLocked executes the shard movement protocol (§IV-A2): DROP_SHARD on
// the source, update the mapping, ADD_SHARD on the destination. A failed
// drop is counted (the Task Manager force-kills the stuck tasks); a failed
// add leaves the mapping in place — the destination picks the shard's
// tasks up on its next snapshot fetch.
func (m *Manager) moveLocked(shard ShardID, from, to string) {
	if c := m.containers[from]; c != nil && c.handler != nil {
		if err := c.handler.DropShard(shard); err != nil {
			m.stats.DropErrors++
		}
	}
	l := m.applied[shard]
	if set := m.contShards[from]; set != nil {
		delete(set, shard)
		m.contLoad[from] = m.contLoad[from].Sub(l)
	}
	m.assignment[shard] = to
	set := m.contShards[to]
	if set == nil {
		set = make(map[ShardID]struct{})
		m.contShards[to] = set
	}
	set[shard] = struct{}{}
	m.contLoad[to] = m.contLoad[to].Add(l)
	m.snapDirty = true
	if c := m.containers[to]; c != nil && c.handler != nil {
		if err := c.handler.AddShard(shard); err != nil {
			m.stats.AddErrors++
		}
	}
}
