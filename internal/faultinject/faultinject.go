// Package faultinject is a deterministic, seed-driven fault injector for
// the Turbine control plane. It wraps the seams where the paper's failure
// modes enter the system — the State Syncer's actuator boundary, the Task
// Manager ↔ Shard Manager RPCs, task-spec snapshot fetches, and Job Store
// commits — and injects error returns, added latency, heartbeat
// blackouts, and crash-before/after-commit events.
//
// Every decision is a pure function of (seed, operation, key, per-key
// call number): two runs with the same seed and the same per-key call
// sequences make identical decisions, regardless of how goroutines
// interleave across keys. The injector records every injected fault in a
// trace, so a chaos run can be replayed and diffed event-for-event.
package faultinject

import (
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/jobstore"
	"repro/internal/shardmanager"
	"repro/internal/simclock"
	"repro/internal/statesyncer"
	"repro/internal/taskmanager"
	"repro/internal/taskservice"
	"repro/internal/wire"
)

// Op names an injection point. Rules match on it.
type Op string

const (
	OpActuatorStop         Op = "actuator.stop"
	OpActuatorRedistribute Op = "actuator.redistribute"
	OpActuatorResume       Op = "actuator.resume"
	OpSMHeartbeat          Op = "sm.heartbeat"
	OpSMReportLoads        Op = "sm.reportLoads"
	OpTaskFetch            Op = "taskservice.fetch"
	OpStoreCommit          Op = "store.commit"
	OpShardRound           Op = "syncer.shardRound"
	OpSpecFeed             Op = "jobservice.specFeed"
	// OpFeedConn fires inside the spec feed's socket transport, on the
	// individual Read/Write calls of a wrapped net.Conn — below the
	// frame layer, where real networks actually fail.
	OpFeedConn Op = "jobservice.feedConn"
)

// Kind is what happens when a rule fires.
type Kind string

const (
	// KindError fails the call with an injected error.
	KindError Kind = "error"
	// KindTimeout fails the call partition-shaped: heartbeats return
	// shardmanager.ErrTimeout (counting toward the proactive connection
	// timeout, §IV-C); other ops get a timeout-flavored error.
	KindTimeout Kind = "timeout"
	// KindLatency records added latency in the trace without failing the
	// call. Under the simulated clock this is observational — latency
	// becomes a real delay only if a schedule advances the clock on it.
	KindLatency Kind = "latency"
	// KindCrashBeforeCommit refuses a store commit and reports a crash:
	// the process died before the write landed.
	KindCrashBeforeCommit Kind = "crash-before-commit"
	// KindCrashAfterCommit lets the commit land, then reports a crash:
	// the process died with the write durable but nothing after it run.
	KindCrashAfterCommit Kind = "crash-after-commit"
	// KindPartialBatch (spec feed) clamps the poll's batch bound to one
	// entry: the subscriber receives a correct but minimal window and
	// must paginate. Models a flow-controlled or lossy transport that
	// still preserves frame integrity — deltas are never torn.
	KindPartialBatch Kind = "partial-batch"
	// KindForceResync (spec feed) corrupts the poll's cursor to a
	// position the journal never issued, forcing the server's
	// redirect: a storm of full walks of the running table when armed
	// at a high rate.
	KindForceResync Kind = "force-resync"
	// KindTornWrite (feed conn) lets half of a Write's bytes escape onto
	// the wire, then severs the connection: the peer reads a partial
	// frame that must never surface as a complete one.
	KindTornWrite Kind = "torn-write"
	// KindShortRead (feed conn) clamps a Read to one byte without
	// failing it: the frame arrives, but sliced at an adversarial
	// boundary — wire.ReadFrame's many-read path under load.
	KindShortRead Kind = "short-read"
	// KindHungConn (feed conn) models a peer that stays connected but
	// goes silent: the call fails with the deadline-expiry error a real
	// hung socket produces once its read/write deadline fires.
	KindHungConn Kind = "hung-conn"
	// KindDisconnect (feed conn) severs the connection mid-call — the
	// RST-shaped failure. At a high rate this is a disconnect storm; the
	// client must ride it out on reconnect backoff with zero resyncs as
	// long as the journal doesn't overflow.
	KindDisconnect Kind = "disconnect"
)

// Rule arms one fault. The first matching armed rule wins.
type Rule struct {
	Op  Op
	Key string // job name or container ID; "" matches any key
	// Rate is the per-call firing probability in [0, 1]. 1 fires on
	// every matched call (use with After/Until or MaxHits to bound it).
	Rate    float64
	Kind    Kind
	Latency time.Duration // for KindLatency
	// After/Until bound the active window, measured from injector
	// creation. Zero Until means no upper bound.
	After, Until time.Duration
	// MaxHits caps how many times this rule fires; 0 means unlimited.
	MaxHits int
}

// Event is one injected fault, as recorded in the trace.
type Event struct {
	At      time.Time
	Op      Op
	Key     string
	Call    uint64 // per-(op,key) call number the fault fired on
	Kind    Kind
	Latency time.Duration
}

func (e Event) String() string {
	return fmt.Sprintf("%s %s/%s#%d %s", e.At.Format("15:04:05"), e.Op, e.Key, e.Call, e.Kind)
}

type opKey struct {
	op  Op
	key string
}

// Injector decides and records faults. One injector serves a whole
// cluster; wrap the individual seams with Actuator, ShardManagerClient,
// TaskSource, and InstallStoreHooks.
type Injector struct {
	seed  uint64
	clock simclock.Clock
	start time.Time

	mu           sync.Mutex
	rules        []Rule
	hits         []int
	calls        map[opKey]uint64
	trace        []Event
	onCrash      func(Event)
	crashed      bool
	pendingAfter []Event // crash-after-commit events awaiting their After hook
}

// New builds an injector. The rule list is fixed for the injector's
// lifetime — determinism depends on it.
func New(seed uint64, clock simclock.Clock, rules []Rule) *Injector {
	return &Injector{
		seed:  seed,
		clock: clock,
		start: clock.Now(),
		rules: rules,
		hits:  make([]int, len(rules)),
		calls: make(map[opKey]uint64),
	}
}

// OnCrash installs the crash handler, invoked (outside the injector
// lock) whenever a crash-kind rule fires — for crash-after-commit, only
// once the commit has actually landed. The harness uses it to Kill the
// victim. After a crash the injector suppresses further faults until
// Rearm — a dead process injects nothing.
func (in *Injector) OnCrash(fn func(Event)) {
	in.mu.Lock()
	in.onCrash = fn
	in.mu.Unlock()
}

// Rearm clears the crashed latch after the harness restarted the victim,
// re-enabling injection.
func (in *Injector) Rearm() {
	in.mu.Lock()
	in.crashed = false
	in.mu.Unlock()
}

// Crashed reports whether a crash fault fired and Rearm has not run.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// Trace returns a copy of every injected fault so far, in firing order.
func (in *Injector) Trace() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.trace))
	copy(out, in.trace)
	return out
}

// TraceKeys summarizes the trace as sorted "op key kind xN" lines —
// a compact, order-insensitive digest for replay comparisons.
func (in *Injector) TraceKeys() []string {
	in.mu.Lock()
	counts := make(map[string]int)
	for _, e := range in.trace {
		counts[fmt.Sprintf("%s %s %s", e.Op, e.Key, e.Kind)]++
	}
	in.mu.Unlock()
	out := make([]string, 0, len(counts))
	for k, n := range counts {
		out = append(out, fmt.Sprintf("%s x%d", k, n))
	}
	sort.Strings(out)
	return out
}

// fnv64 hashes the decision inputs; the result is compared against
// Rate·2⁶⁴ to fire. The rule index salts the hash so rules matching the
// same call draw independently — otherwise a low-rate rule listed after
// a higher-rate rule on the same op could never fire.
func fnv64(seed uint64, op Op, key string, call, rule uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(seed)
	h.Write([]byte(op))
	h.Write([]byte{0})
	h.Write([]byte(key))
	h.Write([]byte{0})
	put(call)
	put(rule)
	return h.Sum64()
}

// decide runs the per-call decision and, if a rule fires, records the
// event and latches/dispatches crashes. Crash-after-commit events are
// parked for the store's After hook instead of firing immediately — the
// crash must postdate the durable write.
func (in *Injector) decide(op Op, key string) (Event, bool) {
	in.mu.Lock()
	ck := opKey{op, key}
	call := in.calls[ck]
	in.calls[ck] = call + 1

	if in.crashed {
		in.mu.Unlock()
		return Event{}, false
	}
	elapsed := in.clock.Now().Sub(in.start)
	for i := range in.rules {
		r := &in.rules[i]
		if r.Op != op || (r.Key != "" && r.Key != key) {
			continue
		}
		if elapsed < r.After || (r.Until > 0 && elapsed >= r.Until) {
			continue
		}
		if r.MaxHits > 0 && in.hits[i] >= r.MaxHits {
			continue
		}
		if r.Rate < 1 {
			// threshold = Rate·2⁶⁴, computed in float; exact for the
			// rates chaos schedules use (0.01, 0.1, …).
			if float64(fnv64(in.seed, op, key, call, uint64(i))) >= r.Rate*float64(1<<63)*2 {
				continue
			}
		}
		in.hits[i]++
		ev := Event{
			At: in.clock.Now(), Op: op, Key: key, Call: call,
			Kind: r.Kind, Latency: r.Latency,
		}
		in.trace = append(in.trace, ev)
		crash := r.Kind == KindCrashBeforeCommit || r.Kind == KindCrashAfterCommit
		if crash {
			in.crashed = true
		}
		if r.Kind == KindCrashAfterCommit {
			in.pendingAfter = append(in.pendingAfter, ev)
			in.mu.Unlock()
			return ev, true
		}
		handler := in.onCrash
		in.mu.Unlock()
		if crash && handler != nil {
			handler(ev)
		}
		return ev, true
	}
	in.mu.Unlock()
	return Event{}, false
}

// commitLanded fires the parked crash-after-commit handler for job, if
// one is waiting. Called from the store's After hook.
func (in *Injector) commitLanded(job string) {
	in.mu.Lock()
	var fire *Event
	for i := range in.pendingAfter {
		if in.pendingAfter[i].Key == job {
			ev := in.pendingAfter[i]
			in.pendingAfter = append(in.pendingAfter[:i], in.pendingAfter[i+1:]...)
			fire = &ev
			break
		}
	}
	handler := in.onCrash
	in.mu.Unlock()
	if fire != nil && handler != nil {
		handler(*fire)
	}
}

// errFor converts a fired event into the error the wrapped call returns.
func errFor(ev Event) error {
	switch ev.Kind {
	case KindTimeout:
		if ev.Op == OpSMHeartbeat {
			return shardmanager.ErrTimeout
		}
		return fmt.Errorf("faultinject: %s %q call %d timed out", ev.Op, ev.Key, ev.Call)
	case KindLatency:
		return nil // latency is recorded, not failed
	default:
		return fmt.Errorf("faultinject: injected %s on %s %q call %d", ev.Kind, ev.Op, ev.Key, ev.Call)
	}
}

// ---- Actuator seam ----

type actuator struct {
	in    *Injector
	inner statesyncer.Actuator
}

// Actuator wraps the State Syncer's actuator: StopJobTasks,
// RedistributeCheckpoints, and ResumeJob can fail by injection, keyed by
// job name.
func (in *Injector) Actuator(inner statesyncer.Actuator) statesyncer.Actuator {
	return &actuator{in: in, inner: inner}
}

func (a *actuator) StopJobTasks(job string) error {
	if ev, ok := a.in.decide(OpActuatorStop, job); ok {
		if err := errFor(ev); err != nil {
			return err
		}
	}
	return a.inner.StopJobTasks(job)
}

func (a *actuator) RedistributeCheckpoints(job string, partitions, oldTaskCount, newTaskCount int) error {
	if ev, ok := a.in.decide(OpActuatorRedistribute, job); ok {
		if err := errFor(ev); err != nil {
			return err
		}
	}
	return a.inner.RedistributeCheckpoints(job, partitions, oldTaskCount, newTaskCount)
}

func (a *actuator) ResumeJob(job string) error {
	if ev, ok := a.in.decide(OpActuatorResume, job); ok {
		if err := errFor(ev); err != nil {
			return err
		}
	}
	return a.inner.ResumeJob(job)
}

// ---- Shard Manager RPC seam ----

type smClient struct {
	taskmanager.ShardManagerClient
	in *Injector
	id string
}

// ShardManagerClient wraps one container's view of the Shard Manager,
// keyed by container ID. Heartbeat faults of KindTimeout surface as
// shardmanager.ErrTimeout — the partition-shaped failure the Task
// Manager must count toward its proactive connection timeout; the Shard
// Manager never hears the beat. A faulted ReportShardLoads is dropped
// (lost in transit).
func (in *Injector) ShardManagerClient(id string, inner taskmanager.ShardManagerClient) taskmanager.ShardManagerClient {
	return &smClient{ShardManagerClient: inner, in: in, id: id}
}

func (c *smClient) Heartbeat(id string) error {
	if ev, ok := c.in.decide(OpSMHeartbeat, c.id); ok {
		if err := errFor(ev); err != nil {
			return err
		}
	}
	return c.ShardManagerClient.Heartbeat(id)
}

func (c *smClient) ReportShardLoads(loads map[shardmanager.ShardID]config.Resources) {
	if ev, ok := c.in.decide(OpSMReportLoads, c.id); ok {
		if errFor(ev) != nil {
			return // report lost in transit
		}
	}
	c.ShardManagerClient.ReportShardLoads(loads)
}

// ---- Task-spec fetch seam ----

type taskSource struct {
	in    *Injector
	id    string
	inner taskmanager.TaskSource

	mu     sync.Mutex
	cached *taskservice.SnapshotIndex
}

// TaskSource wraps one container's snapshot fetches, keyed by container
// ID. A faulted fetch returns the last successfully fetched index — the
// Task Manager keeps reconciling against stale-but-valid specs, exactly
// the §IV-D degraded behavior — falling through to a live fetch only
// when no fetch has ever succeeded.
func (in *Injector) TaskSource(id string, inner taskmanager.TaskSource) taskmanager.TaskSource {
	return &taskSource{in: in, id: id, inner: inner}
}

func (s *taskSource) Index() *taskservice.SnapshotIndex {
	if ev, ok := s.in.decide(OpTaskFetch, s.id); ok && errFor(ev) != nil {
		s.mu.Lock()
		cached := s.cached
		s.mu.Unlock()
		if cached != nil {
			return cached
		}
	}
	idx := s.inner.Index()
	s.mu.Lock()
	s.cached = idx
	s.mu.Unlock()
	return idx
}

// ---- Shard-round seam ----

type shardDriver struct {
	in    *Injector
	key   string
	inner statesyncer.ShardDriver
}

// ShardDriver wraps one shard slice's transport (the syncer Node ↔
// slice round-engine boundary), keyed by slice index. KindError and
// KindTimeout fail the round partition-shaped — the Node skips the
// round and, because it renews a slice lease only after a successful
// round, a sustained partition lets the lease run down until a peer
// steals the slice: lease expiry falls out of this one seam. A
// KindLatency rule records a slow shard without failing the round.
func (in *Injector) ShardDriver(slice int, inner statesyncer.ShardDriver) statesyncer.ShardDriver {
	return &shardDriver{in: in, key: strconv.Itoa(slice), inner: inner}
}

func (d *shardDriver) RunSliceRound() (statesyncer.RoundResult, error) {
	if ev, ok := d.in.decide(OpShardRound, d.key); ok {
		if err := errFor(ev); err != nil {
			return statesyncer.RoundResult{}, err
		}
	}
	return d.inner.RunSliceRound()
}

// ---- Spec feed seam ----

type specFeed struct {
	in    *Injector
	key   string
	inner taskservice.SpecFeed
}

// SpecFeed wraps a spec-feed transport (the Job/Task Service RPC seam),
// keyed by subscriber ID. KindError/KindTimeout fail the poll — the
// subscriber's cursor is untouched and it retries, degrading to its
// stale mirror exactly as §IV-D degrades Task Managers. KindPartialBatch
// clamps the batch bound to 1 so the window arrives in single-entry
// frames; KindForceResync corrupts the cursor so the server redirects
// into a full walk of the running table. KindLatency records a slow poll
// without failing it.
func (in *Injector) SpecFeed(id string, inner taskservice.SpecFeed) taskservice.SpecFeed {
	return &specFeed{in: in, key: id, inner: inner}
}

func (f *specFeed) PollFeed(req wire.FeedRequest, buf []byte) ([]byte, error) {
	if ev, ok := f.in.decide(OpSpecFeed, f.key); ok {
		switch ev.Kind {
		case KindPartialBatch:
			req.Max = 1
		case KindForceResync:
			if !req.Resync {
				// ^0 is ahead of any journal head, which ChangesSince
				// rejects deterministically with a resync redirect.
				req.Cursor = ^uint64(0)
			}
		default:
			if err := errFor(ev); err != nil {
				return nil, err
			}
		}
	}
	return f.inner.PollFeed(req, buf)
}

// ---- Feed-conn byte-stream seam ----

// feedConn injects faults below the frame layer: on the Read/Write
// calls of the spec feed's socket transport.
type feedConn struct {
	net.Conn
	in  *Injector
	key string
}

// FeedConn returns a taskservice.DialOptions.WrapConn hook that wraps
// each freshly dialed feed connection, keyed by subscriber ID. Faults
// fire on individual Read/Write calls:
//
//   - KindTornWrite writes half the bytes, then severs the conn;
//   - KindShortRead clamps a read to one byte (no failure) so frames
//     arrive sliced at adversarial boundaries;
//   - KindHungConn fails the call with os.ErrDeadlineExceeded — the
//     outcome of a silent peer once the socket deadline fires;
//   - KindDisconnect severs the conn mid-call;
//   - KindError/KindTimeout fail the call and sever the conn;
//   - KindLatency records a slow conn without failing it.
//
// Every failing kind leaves the transport on its reconnect/backoff
// path with the subscriber's cursor intact — the invariant under any
// storm of these is "errors, never torn frames".
func (in *Injector) FeedConn(key string) func(net.Conn) net.Conn {
	return func(inner net.Conn) net.Conn {
		return &feedConn{Conn: inner, in: in, key: key}
	}
}

func (c *feedConn) Read(p []byte) (int, error) {
	if ev, ok := c.in.decide(OpFeedConn, c.key); ok {
		switch ev.Kind {
		case KindShortRead:
			if len(p) > 1 {
				p = p[:1]
			}
		case KindHungConn:
			return 0, fmt.Errorf("faultinject: hung conn %q call %d: %w", ev.Key, ev.Call, os.ErrDeadlineExceeded)
		case KindDisconnect, KindTornWrite:
			// A torn-write rule firing on a read call still severs: the
			// stream is cut under the reader either way.
			c.Conn.Close()
			return 0, fmt.Errorf("faultinject: injected disconnect on conn %q call %d", ev.Key, ev.Call)
		default:
			if err := errFor(ev); err != nil {
				c.Conn.Close()
				return 0, err
			}
		}
	}
	return c.Conn.Read(p)
}

func (c *feedConn) Write(p []byte) (int, error) {
	if ev, ok := c.in.decide(OpFeedConn, c.key); ok {
		switch ev.Kind {
		case KindTornWrite:
			n := len(p) / 2
			if n > 0 {
				// Half the frame escapes onto the wire before the cut —
				// the peer reads a partial frame it must never surface.
				c.Conn.Write(p[:n])
			}
			c.Conn.Close()
			return n, fmt.Errorf("faultinject: torn write on conn %q call %d (%d of %d bytes)", ev.Key, ev.Call, n, len(p))
		case KindHungConn:
			return 0, fmt.Errorf("faultinject: hung conn %q call %d: %w", ev.Key, ev.Call, os.ErrDeadlineExceeded)
		case KindDisconnect:
			c.Conn.Close()
			return 0, fmt.Errorf("faultinject: injected disconnect on conn %q call %d", ev.Key, ev.Call)
		case KindShortRead:
			// Read-shaped fault on a write call: no-op.
		default:
			if err := errFor(ev); err != nil {
				c.Conn.Close()
				return 0, err
			}
		}
	}
	return c.Conn.Write(p)
}

// ---- Job Store commit seam ----

// InstallStoreHooks arms the commit seam on the store, keyed by job
// name: crash-before-commit kills the victim (via OnCrash) and refuses
// the write; crash-after-commit lets the write land and kills once it
// has; KindError/KindTimeout refuse the write without a crash. The store
// models a durable external database, so only the syncer-side effects
// die with the process.
func (in *Injector) InstallStoreHooks(store *jobstore.Store) {
	store.SetCommitHooks(&jobstore.CommitHooks{
		Before: func(job string) error {
			if ev, ok := in.decide(OpStoreCommit, job); ok {
				switch ev.Kind {
				case KindCrashBeforeCommit, KindError, KindTimeout:
					return fmt.Errorf("faultinject: commit of %q refused (%s)", job, ev.Kind)
				}
			}
			return nil
		},
		After: in.commitLanded,
	})
}
