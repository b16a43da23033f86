// Package chaos is the cluster-level fault-injection soak harness. It
// runs two identically-scheduled simulated clusters — one fault-free
// baseline, one with a seeded faultinject.Injector wired into every
// control-plane seam — through a timeline of job adds, scales, releases,
// deletions, host kills, heartbeat blackouts, and State Syncer
// crash-restarts, and asserts the paper's safety and convergence
// invariants:
//
//   - No duplicate task instances, ever — including across the §IV-C
//     failover protocol (proactive 40 s reboot < 60 s failover) driven
//     by both short (< failover) and long (> failover) blackouts.
//   - No orphaned tasks after a teardown, even one faulted mid-flight.
//   - Once faults stop, the faulty cluster's Job Store converges to a
//     state byte-identical to the fault-free baseline's.
//   - Each store's diverged set equals a from-scratch expected/running
//     comparison, and is empty once the fault-free tail has run.
//
// Everything is driven by the simulated clock and a single seed, so a
// run is replayable event-for-event.
package chaos

import (
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/jobservice"
	"repro/internal/jobstore"
	"repro/internal/simclock"
	"repro/internal/statesyncer"
	"repro/internal/taskmanager"
	"repro/internal/taskservice"
	"repro/internal/workload"
)

// Options select a soak run. Zero values take defaults.
type Options struct {
	Seed uint64
	// SyncerShards is the number of lease-coordinated State Syncer Nodes
	// in BOTH clusters (baseline and faulty); <= 1 means one. Every run
	// faults the Node ↔ slice transport and asserts zero lease
	// violations; runs with a peer to steal (N > 1) additionally
	// schedule a Node crash + lease-steal sequence.
	SyncerShards int
	// FeedTransport selects the remote Task Service's spec-feed binding:
	// "" or "loopback" polls the feed server in process, under the
	// force-resync storm; "tcp" serves the feed on a real localhost
	// socket and swaps the storm for byte-stream faults (torn frames
	// mid-write, short reads, hung conns, disconnect storms) on the
	// OpFeedConn seam. TCP runs additionally assert the degraded-mode
	// contract: zero torn frames delivered, no full resync beyond the
	// ones store restores license (reconnects resume the cursor — the
	// journal never overflows mid-soak), and a staleness bound that is
	// monotone while dark and resets on resume.
	FeedTransport string
}

// Result is what a soak run observed.
type Result struct {
	Trace     []faultinject.Event
	TraceKeys []string
	// Final full Job Store snapshots of the faulty and baseline
	// clusters. A converged faulty store matches the baseline's byte for
	// byte — including the sync section, which must be empty.
	FaultySnapshot   []byte
	BaselineSnapshot []byte
	SyncerRestarts   int
	// StoreRestores counts Job Store Snapshot/Restore round-trips in the
	// faulty run (syncer crash-restart boots). Each one burns a journal
	// seq and invalidates every feed cursor by design, so it licenses at
	// most one full resync; TCP runs assert Resyncs never exceeds it —
	// i.e. reconnects alone never cost a resync.
	StoreRestores int
	// LeaseSteals counts slices whose lease epoch moved past its first
	// grant in the faulty run — evidence the steal path actually ran
	// (runs with more than one Node schedule at least one).
	LeaseSteals int
	// RemoteFeed is the faulty cluster's remote Task Service subscriber
	// counters: its polls ran through the OpSpecFeed fault rules, and its
	// Resyncs > 0 is evidence the force-resync storm actually redirected
	// it onto the walk of the running table before the final
	// index-identity check
	// (in-process runs only; TCP runs drop the storm and require zero).
	RemoteFeed taskservice.FeedClientStats
	// RemoteDial and Listener are the socket-binding counters of a TCP
	// run (zero values on in-process runs): reconnect/backoff churn on the
	// client side, accepted conns and bad frames on the server side.
	RemoteDial taskservice.DialStats
	Listener   jobservice.ListenerStats
	// ServerFeed is the faulty cluster's spec-feed server counters.
	ServerFeed jobservice.FeedStats
}

const (
	mb = 1 << 20
	// faultsFrom/faultsUntil bound the background error-rate window,
	// measured on the sim timeline from cluster start.
	faultsFrom  = 2 * time.Minute
	faultsUntil = 22 * time.Minute
	// tail is the fault-free convergence window before the final
	// store-equality check.
	tail = 10 * time.Minute
)

// soakJobs long-lived jobs run on soakHosts hosts; one additional job is
// created and deleted mid-run to probe teardown under faults.
const (
	soakJobs  = 6
	soakHosts = 4
)

func jobName(i int) string { return fmt.Sprintf("soak/j%02d", i) }

const teardownJob = "soak/teardown-probe"

// remoteSub names the faulty cluster's remote Task Service subscriber —
// the OpSpecFeed rule key and the feed registry entry.
func remoteSub(clusterName string) string { return clusterName + "-remote-ts" }

func jobConfig(name string, tasks, partitions int) *config.JobConfig {
	return &config.JobConfig{
		Name:           name,
		Package:        config.Package{Name: "scuba_tailer", Version: "v1"},
		TaskCount:      tasks,
		ThreadsPerTask: 2,
		TaskResources:  config.Resources{CPUCores: 2, MemoryBytes: 2 << 30},
		Operator:       config.OpTailer,
		Input:          config.Input{Category: name + "_in", Partitions: partitions},
		Enforcement:    config.EnforceCgroup,
		SLOSeconds:     90,
	}
}

// rules is the seeded fault schedule: background error rates on every
// seam during the fault window, two bounded heartbeat blackouts (one
// shorter than the failover interval, one longer), and one syncer crash
// on each side of a commit, plus background shard-round partitions and
// slow-shard latency on the Node ↔ slice transport; TCP feed runs swap
// the force-resync storm for byte-stream faults on the socket itself.
func rules(clusterName string, transport string) []faultinject.Rule {
	// Container IDs follow the cluster's deterministic layout:
	// <name>-tc<host>-<slot>. The blackout victims sit on hosts 0 and 1;
	// the host-kill event below uses host 2, so the faults never overlap
	// on one container.
	shortVictim := clusterName + "-tc0000-0"
	longVictim := clusterName + "-tc0001-0"
	rs := []faultinject.Rule{
		// Background failure rates across the actuator boundary, spec
		// fetches, load reports, and store commits.
		{Op: faultinject.OpActuatorStop, Rate: 0.10, Kind: faultinject.KindError, After: faultsFrom, Until: faultsUntil},
		{Op: faultinject.OpActuatorResume, Rate: 0.05, Kind: faultinject.KindError, After: faultsFrom, Until: faultsUntil},
		{Op: faultinject.OpActuatorRedistribute, Rate: 0.05, Kind: faultinject.KindError, After: faultsFrom, Until: faultsUntil},
		{Op: faultinject.OpStoreCommit, Rate: 0.05, Kind: faultinject.KindError, After: faultsFrom, Until: faultsUntil},
		// Note: no OpTaskFetch faults here. A spec fetch faulted across a
		// stop→redistribute→commit cycle leaves a Task Manager acting on
		// the pre-redistribution task layout; the checkpoint-lease layer
		// blocks the resurrection, but it counts the attempt as a
		// duplicate-ownership violation — and this soak's invariant is
		// the stricter "no attempt, ever". The stale-cache degradation
		// itself is covered by faultinject's unit tests.
		{Op: faultinject.OpSMReportLoads, Rate: 0.20, Kind: faultinject.KindError, After: faultsFrom, Until: faultsUntil},
		{Op: faultinject.OpActuatorStop, Rate: 0.05, Kind: faultinject.KindLatency, Latency: 2 * time.Second, After: faultsFrom, Until: faultsUntil},
		// Short blackout, shorter than the 60 s failover interval: four
		// consecutive 10 s beats are lost (the Shard Manager observes
		// 50 s of silence — under its failover deadline), the victim
		// proactively reboots at 40 s, then reconnects, keeps its
		// shards, and restarts tasks in place — no failover, no overlap.
		{Op: faultinject.OpSMHeartbeat, Key: shortVictim, Rate: 1, Kind: faultinject.KindTimeout,
			After: 3*time.Minute + 55*time.Second, Until: 4*time.Minute + 36*time.Second},
		// Long blackout: 75 s > the failover interval. The victim reboots
		// at 40 s — before the Shard Manager gives its shards away at
		// 60 s — so the failed-over tasks never overlap with its own.
		{Op: faultinject.OpSMHeartbeat, Key: longVictim, Rate: 1, Kind: faultinject.KindTimeout,
			After: 10 * time.Minute, Until: 10*time.Minute + 75*time.Second},
		// One syncer crash with the commit durable but its follow-ups
		// unrun, and one with the commit refused.
		{Op: faultinject.OpStoreCommit, Rate: 1, Kind: faultinject.KindCrashAfterCommit,
			After: 6 * time.Minute, Until: 8 * time.Minute, MaxHits: 1},
		{Op: faultinject.OpStoreCommit, Rate: 1, Kind: faultinject.KindCrashBeforeCommit,
			After: 14 * time.Minute, Until: 16 * time.Minute, MaxHits: 1},
		// Spec-feed seam, keyed by the remote Task Service subscriber:
		// dropped polls (the client retries the identical window),
		// partial batches (batch bound clamped to one entry, paginating
		// the delta), and a force-resync storm (corrupted cursors
		// redirecting the client onto full fleet walks mid-run). The
		// remote mirror must still end the run byte-identical to the
		// local index.
		{Op: faultinject.OpSpecFeed, Key: remoteSub(clusterName), Rate: 0.15, Kind: faultinject.KindTimeout, After: faultsFrom, Until: faultsUntil},
		{Op: faultinject.OpSpecFeed, Key: remoteSub(clusterName), Rate: 0.20, Kind: faultinject.KindPartialBatch, After: faultsFrom, Until: faultsUntil},
	}
	if transport == "tcp" {
		// Byte-stream faults on the real socket, below the frame layer.
		// No force-resync storm here on purpose: with the journal never
		// overflowing mid-soak, every one of these disconnects must be
		// ridden out by cursor-carrying session resume alone — the run
		// asserts no resync beyond the store-restore-licensed ones. Rates
		// are per Read/Write call (several per poll), so they sit lower
		// than the per-poll OpSpecFeed rates.
		rs = append(rs,
			faultinject.Rule{Op: faultinject.OpFeedConn, Key: remoteSub(clusterName), Rate: 0.04, Kind: faultinject.KindDisconnect, After: faultsFrom, Until: faultsUntil},
			faultinject.Rule{Op: faultinject.OpFeedConn, Key: remoteSub(clusterName), Rate: 0.03, Kind: faultinject.KindTornWrite, After: faultsFrom, Until: faultsUntil},
			faultinject.Rule{Op: faultinject.OpFeedConn, Key: remoteSub(clusterName), Rate: 0.03, Kind: faultinject.KindHungConn, After: faultsFrom, Until: faultsUntil},
			faultinject.Rule{Op: faultinject.OpFeedConn, Key: remoteSub(clusterName), Rate: 0.15, Kind: faultinject.KindShortRead, After: faultsFrom, Until: faultsUntil},
			faultinject.Rule{Op: faultinject.OpFeedConn, Key: remoteSub(clusterName), Rate: 0.02, Kind: faultinject.KindLatency, Latency: 500 * time.Millisecond, After: faultsFrom, Until: faultsUntil},
			// A concentrated disconnect storm: every conn touch severs for
			// 30 s of the timeline — the client must spend it in backoff,
			// then resume its cursor with no resync.
			faultinject.Rule{Op: faultinject.OpFeedConn, Key: remoteSub(clusterName), Rate: 1, Kind: faultinject.KindDisconnect,
				After: 12 * time.Minute, Until: 12*time.Minute + 30*time.Second},
		)
	} else {
		rs = append(rs,
			faultinject.Rule{Op: faultinject.OpSpecFeed, Key: remoteSub(clusterName), Rate: 0.10, Kind: faultinject.KindForceResync, After: faultsFrom, Until: faultsUntil},
		)
	}
	// Shard-round partitions: the Node skips the slice's round and
	// withholds its lease renewal, so a sustained partition decays the
	// lease toward a steal (or, with no peer, toward the Node's own
	// re-acquire); the slice's diverged set still holds whatever the
	// skipped rounds missed. Latency records slow shards without failing
	// them.
	return append(rs,
		faultinject.Rule{Op: faultinject.OpShardRound, Rate: 0.10, Kind: faultinject.KindError, After: faultsFrom, Until: faultsUntil},
		faultinject.Rule{Op: faultinject.OpShardRound, Rate: 0.05, Kind: faultinject.KindLatency, Latency: 3 * time.Second, After: faultsFrom, Until: faultsUntil},
	)
}

// Run executes one soak. It returns an error the moment any invariant
// breaks; a nil error means every check passed.
func Run(opts Options) (*Result, error) {
	res := &Result{}

	baseline, _, err := newCluster(opts, "base", false)
	if err != nil {
		return nil, err
	}
	faulty, inj, err := newCluster(opts, "chaos", true)
	if err != nil {
		return nil, err
	}

	if err := runSchedule(baseline, nil, opts, res); err != nil {
		return nil, fmt.Errorf("baseline run: %w", err)
	}
	if err := runSchedule(faulty, inj, opts, res); err != nil {
		return nil, fmt.Errorf("faulty run (seed %d): %w", opts.Seed, err)
	}

	res.Trace = inj.Trace()
	res.TraceKeys = inj.TraceKeys()

	// Lease rows carry holder identities and steal-bumped epochs, which
	// legitimately differ between a fault-free and a faulted run whose
	// job state is identical — count the steals, then reset ownership on
	// both sides so the byte-identity check compares job state only.
	for _, l := range faulty.Store.ShardLeases() {
		if l.Epoch > 1 {
			res.LeaseSteals++
		}
	}
	baseline.Store.ClearShardLeases()
	faulty.Store.ClearShardLeases()
	for _, store := range []*jobstore.Store{baseline.Store, faulty.Store} {
		if _, err := checkDivergedSet(store); err != nil {
			return res, fmt.Errorf("seed %d: %w", opts.Seed, err)
		}
	}

	res.BaselineSnapshot, err = baseline.Store.Snapshot()
	if err != nil {
		return nil, err
	}
	res.FaultySnapshot, err = faulty.Store.Snapshot()
	if err != nil {
		return nil, err
	}
	if string(res.BaselineSnapshot) != string(res.FaultySnapshot) {
		return res, fmt.Errorf("seed %d: faulty store did not converge to the baseline state after the fault-free tail", opts.Seed)
	}
	return res, nil
}

// newCluster builds one soak cluster; with faults it wires a seeded
// injector into every control-plane seam.
func newCluster(opts Options, name string, faults bool) (*cluster.Cluster, *faultinject.Injector, error) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	cfg := cluster.Config{
		Name:         name,
		Hosts:        soakHosts,
		StartTime:    start,
		SyncerShards: opts.SyncerShards,
	}
	var inj *faultinject.Injector
	if faults {
		clk := simclock.NewSim(start)
		inj = faultinject.New(opts.Seed, clk, rules(name, opts.FeedTransport))
		cfg.Clock = clk
		cfg.WrapActuator = inj.Actuator
		cfg.WrapSM = func(id string, inner taskmanager.ShardManagerClient) taskmanager.ShardManagerClient {
			return inj.ShardManagerClient(id, inner)
		}
		cfg.WrapTaskSource = func(id string, inner taskmanager.TaskSource) taskmanager.TaskSource {
			return inj.TaskSource(id, inner)
		}
		cfg.WrapSpecFeed = func(id string, inner taskservice.SpecFeed) taskservice.SpecFeed {
			return inj.SpecFeed(id, inner)
		}
		cfg.WrapShardDriver = func(slice int, d statesyncer.ShardDriver) statesyncer.ShardDriver {
			return inj.ShardDriver(slice, d)
		}
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if faults {
		inj.InstallStoreHooks(c.Store)
	}
	return c, inj, nil
}

// runSchedule drives one cluster through the shared operation timeline.
// The schedule is identical for baseline and faulty runs — only the
// injector (and the host-kill event, itself a fault) differ.
func runSchedule(c *cluster.Cluster, inj *faultinject.Injector, opts Options, res *Result) error {
	var remote *taskservice.FeedClient
	var dialTr *taskservice.DialTransport
	var feedLis *jobservice.FeedListener
	var staleErr error
	if inj != nil {
		// Remote Task Service, its polls running through the OpSpecFeed
		// fault rules. It pumps on a fixed cadence through the whole storm;
		// dropped polls and force-resync redirects just leave it lagging or
		// mid-walk until the next tick. By default it polls the feed
		// server in process; "tcp" serves the feed on a real localhost
		// socket and dials it through the OpFeedConn byte-stream faults,
		// the OpSpecFeed rules still stacked above the transport.
		sub := remoteSub(c.Cfg.Name)
		if opts.FeedTransport == "tcp" {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return fmt.Errorf("chaos: feed listener: %w", err)
			}
			feedLis = jobservice.ServeFeed(c.Feed, lis, jobservice.ListenerOptions{})
			defer func() {
				res.Listener = feedLis.Stats()
				feedLis.Close()
			}()
			dialTr = taskservice.DialFeed(lis.Addr().String(), taskservice.DialOptions{
				// Backoff rides the sim clock so the disconnect storm's
				// redial cadence is part of the replayable timeline.
				Clock:       c.Clk,
				BackoffBase: time.Second,
				BackoffMax:  time.Minute,
				WrapConn:    inj.FeedConn(sub),
			})
			defer func() { res.RemoteDial = dialTr.Stats() }()
			remote = c.NewRemoteTaskServiceOver(sub, dialTr)
		} else {
			remote = c.NewRemoteTaskService(sub)
		}
		// The pump tick also audits the degraded-mode contract on every
		// beat: the staleness bound must grow monotonically while the feed
		// is dark and reset to zero the moment a poll succeeds.
		var lastStale time.Duration
		c.Clk.TickEvery(15*time.Second, func() {
			_, err := remote.Pump()
			stale := remote.StaleFor()
			if err != nil {
				if stale < lastStale && staleErr == nil {
					staleErr = fmt.Errorf("staleness bound moved backward while dark: %v -> %v at %v",
						lastStale, stale, c.Clk.Now().Format("15:04:05"))
				}
				lastStale = stale
				return
			}
			if stale != 0 && staleErr == nil {
				staleErr = fmt.Errorf("staleness bound %v did not reset on successful poll at %v",
					stale, c.Clk.Now().Format("15:04:05"))
			}
			lastStale = 0
		})
		// A crash fault kills the syncer Node driving the faulted job's
		// slice on the spot (the crash fires inside its round); a
		// 10-second supervisor poll then boots a replacement from the
		// store's serialized snapshot and re-arms injection — the
		// crash-restart loop the durable sync state exists for. Only the
		// victim is restarted — its peers, if any, keep their slices.
		crashVictim := 0
		inj.OnCrash(func(ev faultinject.Event) {
			crashVictim = c.SyncerNodeFor(ev.Key)
			c.KillSyncerNode(crashVictim)
		})
		c.Clk.TickEvery(10*time.Second, func() {
			if inj.Crashed() {
				if err := c.RestartSyncerNode(crashVictim, true); err != nil {
					panic(fmt.Sprintf("chaos: syncer restart: %v", err))
				}
				inj.Rearm()
				res.SyncerRestarts++
				res.StoreRestores++
			}
		})
	}
	c.Start()

	// step advances the timeline and stops the run the moment the
	// duplicate-instance invariant breaks, so violations are caught near
	// their cause rather than at the end.
	step := func(d time.Duration) error {
		c.Run(d)
		if v := c.Violations(); v != 0 {
			return fmt.Errorf("%d duplicate-instance violations by %v", v, c.Clk.Now().Format("15:04:05"))
		}
		return nil
	}

	tasksOf := make(map[string]int)
	for i := 0; i < soakJobs; i++ {
		name := jobName(i)
		tasksOf[name] = 4
		if err := c.AddJob(cluster.JobSpec{
			Config:  jobConfig(name, 4, 16),
			Pattern: workload.Constant(4 * mb),
		}); err != nil {
			return err
		}
	}
	if err := c.AddJob(cluster.JobSpec{
		Config:  jobConfig(teardownJob, 4, 16),
		Pattern: workload.Constant(2 * mb),
	}); err != nil {
		return err
	}

	if err := step(3 * time.Minute); err != nil { // t=3m: fleet converged
		return err
	}
	c.Jobs.SetTaskCount(jobName(0), config.LayerOncall, 6)
	tasksOf[jobName(0)] = 6
	c.Jobs.SetPackageVersion(jobName(1), "v2")
	if err := step(3 * time.Minute); err != nil { // t=6m: crash-after window opens
		return err
	}
	c.Jobs.SetTaskCount(jobName(2), config.LayerScaler, 8)
	tasksOf[jobName(2)] = 8
	if err := step(3 * time.Minute); err != nil { // t=9m
		return err
	}
	if inj != nil {
		// Host failure (distinct from the blackout victims' hosts): its
		// containers die and the SM fails their shards over.
		if err := c.KillHost(c.Hosts()[2]); err != nil {
			return err
		}
		if len(c.Syncer) > 1 { // a steal needs a peer
			// Scheduled Node crash: Node 1 goes dark mid-storm. Its
			// slice lease (90 s TTL) expires unrenewed and a peer steals
			// the slice — including any divergence the dead Node left
			// behind, converged by the thief's O(slice) resync round.
			c.KillSyncerNode(1)
		}
	}
	if err := step(3 * time.Minute); err != nil { // t=12m: long blackout ran 10:00–11:15
		return err
	}
	if inj != nil {
		if err := c.RestoreHost(c.Hosts()[2]); err != nil {
			return err
		}
		if len(c.Syncer) > 1 {
			// The crashed Node returns (via the snapshot-restore boot
			// path) after its slice was stolen: it must respect the
			// thief's live lease and run as a standby, not force the
			// slice back.
			if err := c.RestartSyncerNode(1, true); err != nil {
				return err
			}
			res.StoreRestores++
		}
	}
	// Teardown under fire: the delete lands inside the fault window, so
	// its stop/teardown path gets faulted and must retry to completion.
	if err := c.RemoveJob(teardownJob); err != nil {
		return err
	}
	c.Jobs.SetTaskCount(jobName(3), config.LayerScaler, 2)
	tasksOf[jobName(3)] = 2
	if err := step(3 * time.Minute); err != nil { // t=15m: crash-before window 14–16m
		return err
	}
	c.Jobs.SetTaskCount(jobName(0), config.LayerOncall, 5)
	tasksOf[jobName(0)] = 5
	c.Jobs.SetPackageVersion(jobName(4), "v3")
	if err := step(7 * time.Minute); err != nil { // t=22m: fault window closes
		return err
	}

	// Oncall sweep: clear anything the syncer quarantined during the
	// storm (a no-op on the baseline), then let the fault-free tail
	// converge everything.
	for _, q := range c.Jobs.Quarantined() {
		if err := c.Jobs.ClearQuarantine(q.Name); err != nil {
			return err
		}
	}
	if err := step(tail); err != nil {
		return err
	}

	// No orphans: the job deleted mid-storm left nothing behind.
	if n := c.JobRunningTasks(teardownJob); n != 0 {
		return fmt.Errorf("%d orphaned tasks of deleted job %s", n, teardownJob)
	}
	if n := c.Ckpt.LiveOwners(teardownJob); n != 0 {
		return fmt.Errorf("%d live checkpoint owners of deleted job %s", n, teardownJob)
	}
	if _, _, ok := c.Store.RunningDoc(teardownJob); ok {
		return fmt.Errorf("deleted job %s still has a running entry", teardownJob)
	}

	// Full convergence: every job runs exactly its configured task count
	// and the syncer's transient bookkeeping has drained.
	for name, want := range tasksOf {
		if got := c.JobRunningTasks(name); got != want {
			return fmt.Errorf("job %s runs %d tasks, want %d", name, got, want)
		}
	}
	if diverged, err := checkDivergedSet(c.Store); err != nil {
		return err
	} else if len(diverged) != 0 {
		return fmt.Errorf("jobs still diverged after the tail: %v", diverged)
	}
	if qs := c.Jobs.Quarantined(); len(qs) != 0 {
		return fmt.Errorf("jobs still quarantined after the tail: %v", qs)
	}
	// No round ever committed against a stolen lease, and every slice
	// ends the run under a live lease (fully serviced).
	for k, node := range c.Syncer {
		if v := node.Violations(); v != 0 {
			return fmt.Errorf("syncer node %d committed %d rounds against stolen leases", k, v)
		}
	}
	now := c.Clk.Now()
	live := 0
	for _, l := range c.Store.ShardLeases() {
		if l.Live(now) {
			live++
		}
	}
	if live != len(c.Syncer) {
		return fmt.Errorf("%d of %d shard slices under a live lease after the tail", live, len(c.Syncer))
	}
	// Remote-vs-local index identity across the spec-feed seam: after the
	// fault-free tail the remote subscriber — dropped polls, clamped
	// batches, forced resyncs and all — drains its feed and must serve a
	// task-spec index identical, spec for spec and field for field
	// (IndexEqual), to the in-process Task Service's.
	if remote != nil {
		if staleErr != nil {
			return staleErr
		}
		if err := remote.Sync(0); err != nil {
			return fmt.Errorf("remote task service did not converge after the tail: %w", err)
		}
		if !taskservice.IndexEqual(c.TaskSvc.Index(), remote.Index()) {
			return fmt.Errorf("remote task service index diverged from the local index after the tail")
		}
		res.RemoteFeed = remote.Stats()
		res.ServerFeed = c.Feed.Stats()
	}
	return nil
}

// checkDivergedSet holds the store's diverged set to the comparison the
// paper's stateless State Syncer makes from scratch, read off the store's
// serialized snapshot: every job that holds a sync record, or has an
// expected or a running entry and no running entry realizing the
// expected version. It returns the set.
func checkDivergedSet(store *jobstore.Store) ([]string, error) {
	data, err := store.Snapshot()
	if err != nil {
		return nil, err
	}
	var snap struct {
		Expected, Running map[string]struct{ Version int64 }
		Sync              map[string]json.RawMessage
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, err
	}
	var names []string
	for _, m := range []map[string]struct{ Version int64 }{snap.Expected, snap.Running} {
		for name := range m {
			names = append(names, name)
		}
	}
	for name := range snap.Sync {
		names = append(names, name)
	}
	slices.Sort(names)
	var want []string
	for _, name := range slices.Compact(names) {
		e, hasExp := snap.Expected[name]
		r, hasRun := snap.Running[name]
		_, held := snap.Sync[name]
		if held || !hasExp || !hasRun || r.Version != e.Version {
			want = append(want, name)
		}
	}
	got := store.DivergedRangeInto(0, jobstore.NumStripes, nil)
	if !slices.Equal(got, want) {
		return got, fmt.Errorf("diverged set %v, from-scratch comparison %v", got, want)
	}
	return got, nil
}
