package taskmanager

// Property test of the bucket-identity reconcile against a spec-level
// oracle. A seeded churn matrix — the Task Service's PR 7 matrix (commit,
// byte-identical recommit, drop, quiesce/unquiesce, journal-overflow
// burst) extended with everything that moves a Task Manager (task-count
// change through the actuator protocol, shard moves, StopJob, proactive
// reboot, container death and revival at seconds 1/31/58 of the fetch
// period, a foreign lease that makes a Start fail, a Refresh held back by
// each of its gates while the source publishes on, a shard handed to a
// manager that cannot reconcile it, a Task Service restart that
// republishes every bucket in a new array) — runs on a real Shard
// Manager and a running clock, so most Refresh calls are the system's own
// (fetch ticks, AddShard, stored-mapping adoption), not the test's.
//
// Every entry point into a manager is probed: its clock wraps each ticker
// callback, its Shard Manager link wraps the shard-move handler, and its
// task source notes the index and the running set at the instant a
// Refresh passes its gates. After every entry the oracle compares what
// runs with what ran, from the index alone — no port of any reconcile
// loop, old or new — and checks the invariant the per-job lookups rest
// on: every owned shard holds no bucket yet or the one the retained index
// publishes, and the index is retained exactly while something runs.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/jobstore"
	"repro/internal/scribe"
	"repro/internal/shardmanager"
	"repro/internal/simclock"
	"repro/internal/taskservice"
	"repro/internal/tupperware"
)

const (
	churnShards     = 64
	churnContainers = 4
	churnJobPool    = 30
	churnRounds     = 60
	conflictJob     = "zz-conflict" // touched by the scripted lease conflict only
)

// taskView is what the oracle reads off one running task.
type taskView struct{ instance, content string }

// reconcileStart is what the task-source probe records when a Refresh has
// passed its gates and fetched the index: the inputs the oracle needs to
// say what must run once that Refresh returns.
type reconcileStart struct {
	idx   *taskservice.SnapshotIndex
	owned []shardmanager.ShardID
	pre   map[string]taskView
}

// publishedBucket is a bucket as it was when a manager first fetched it:
// the slice itself (which pins its array, so the address stays unique) and
// a deep copy of every entry and spec.
type publishedBucket struct {
	bucket  []taskservice.IndexedSpec
	entries []taskservice.IndexedSpec
	specs   []engine.TaskSpec
}

type churnHarness struct {
	t   *testing.T
	w   *world
	rng *rand.Rand

	last      []map[string]taskView // per manager: what ran at its last check
	lastStats []Stats
	recon     []*reconcileStart // per manager: set iff a Refresh reconciled since the last check
	killed    []bool            // per manager: the tasks that went since the last check were killed, not stopped
	stale     []time.Duration   // per manager: the staleness its task source reports
	mismatch  []bool            // per manager: its Shard Manager link reports another shard-space size

	blocked        map[string]bool // task IDs whose Start must fail: a foreign lease holds a partition
	quiesced       map[string]bool // jobs the matrix left quiesced
	wantViolations int
	seen           map[string]struct{} // every instance ever observed
	seqBase        uint64              // the run's first instance number
	trace          []string            // "manager task@relative-instance-number", in start order
	published      map[*taskservice.IndexedSpec]*publishedBucket

	reconciles, keptAcrossOverflow int
	gated                          [3]int // refreshes each gate held back while the source had moved on
	stopsBehindSource              int    // tasks StopJob found in buckets the source no longer publishes
	adoptedGated                   int    // shards handed to a manager whose Refresh a gate held back
}

// --- probes -----------------------------------------------------------

type probeSource struct {
	h *churnHarness
	k int
}

// StaleFor makes the probe a StalenessSource: the second gate.
func (p *probeSource) StaleFor() time.Duration { return p.h.stale[p.k] }

func (p *probeSource) Index() *taskservice.SnapshotIndex {
	idx := p.h.w.ts.Index()
	if p.h.mismatch[p.k] {
		return idx // the shard-space gate is about to turn this Refresh away
	}
	tm := p.h.w.tms[p.k]
	owned := tm.Shards()
	for _, s := range owned {
		p.h.recordPublished(idx.ShardSpecs(s))
	}
	p.h.recon[p.k] = &reconcileStart{idx: idx, owned: owned, pre: p.h.view(tm)}
	return idx
}

// probeClock runs after() once each periodic callback of its manager
// (fetch, heartbeat, load report) has returned.
type probeClock struct {
	simclock.Clock
	after func()
}

func (c probeClock) TickEvery(d time.Duration, f func()) simclock.Ticker {
	return c.Clock.TickEvery(d, func() { f(); c.after() })
}

// probeSM hands the Shard Manager a handler that runs after() once each
// AddShard / DropShard has returned.
type probeSM struct {
	ShardManagerClient
	after    func()
	mismatch *bool // report a shard space twice the real one: the third gate
}

func (p probeSM) NumShards() int {
	if *p.mismatch {
		return 2 * churnShards
	}
	return p.ShardManagerClient.NumShards()
}

func (p probeSM) RegisterInRegion(id, region string, capacity config.Resources, h shardmanager.Handler) {
	p.ShardManagerClient.RegisterInRegion(id, region, capacity, probeHandler{h, p.after})
}

type probeHandler struct {
	inner shardmanager.Handler
	after func()
}

func (p probeHandler) AddShard(s shardmanager.ShardID) error {
	err := p.inner.AddShard(s)
	p.after()
	return err
}

func (p probeHandler) DropShard(s shardmanager.ShardID) error {
	err := p.inner.DropShard(s)
	p.after()
	return err
}

// --- world ------------------------------------------------------------

func newChurnHarness(t *testing.T, seed int64) *churnHarness {
	t.Helper()
	w := &world{
		clk:   simclock.NewSim(epoch),
		store: jobstore.New(),
		bus:   scribe.NewBus(),
		ckpt:  engine.NewCheckpointStore(),
		tw:    tupperware.NewCluster(),
	}
	w.ts = taskservice.New(w.store, w.clk, 90*time.Second, churnShards)
	w.sm = shardmanager.New(w.clk, shardmanager.Options{NumShards: churnShards})
	h := &churnHarness{
		t: t, w: w, rng: rand.New(rand.NewSource(seed)),
		last:      make([]map[string]taskView, churnContainers),
		lastStats: make([]Stats, churnContainers),
		recon:     make([]*reconcileStart, churnContainers),
		killed:    make([]bool, churnContainers),
		stale:     make([]time.Duration, churnContainers),
		mismatch:  make([]bool, churnContainers),
		blocked:   make(map[string]bool),
		quiesced:  make(map[string]bool),
		seen:      make(map[string]struct{}),
		published: make(map[*taskservice.IndexedSpec]*publishedBucket),
	}
	profile := func(spec engine.TaskSpec) *engine.Profile { return engine.DefaultProfile(spec.Operator) }
	for k := 0; k < churnContainers; k++ {
		host := fmt.Sprintf("h%d", k)
		if err := w.tw.AddHost(host, config.Resources{CPUCores: 48, MemoryBytes: 256 << 30}); err != nil {
			t.Fatal(err)
		}
		ct, err := w.tw.AllocateOn(host, fmt.Sprintf("tc%d", k), config.Resources{CPUCores: 40, MemoryBytes: 200 << 30})
		if err != nil {
			t.Fatal(err)
		}
		k := k
		after := func() { h.check(k) }
		w.tms = append(w.tms, New(ct, probeClock{w.clk, after}, &probeSource{h, k}, probeSM{w.sm, after, &h.mismatch[k]}, w.bus, w.ckpt, profile, Options{}))
	}
	for _, tm := range w.tms {
		tm.Start()
	}
	w.sm.AssignUnassigned()
	w.sm.Start()
	t.Cleanup(w.sm.Stop)
	return h
}

// view reads what runs on tm, checking the per-shard table's structure on
// the way: slots parallel to the bucket, every task live and started from
// its slot's spec, the running count right, and no empty slot in a shard
// that is not pending.
func (h *churnHarness) view(tm *Manager) map[string]taskView {
	h.t.Helper()
	tm.mu.Lock()
	defer tm.mu.Unlock()
	out := make(map[string]taskView)
	if (tm.retained == nil) != (tm.running == 0) {
		h.t.Fatalf("%s: %d tasks run, index retained = %v; it is held exactly while something runs", tm.id, tm.running, tm.retained != nil)
	}
	for s, sh := range tm.shards {
		if len(sh.tasks) != len(sh.bucket) {
			h.t.Fatalf("%s shard %d: %d task slots for a bucket of %d", tm.id, s, len(sh.tasks), len(sh.bucket))
		}
		if tm.retained != nil && sh.bucket != nil && !taskservice.SameBucket(sh.bucket, tm.retained.ShardSpecs(s)) {
			h.t.Fatalf("%s shard %d: holds a bucket of %d entries that is not the one the retained index (version %d) publishes",
				tm.id, s, len(sh.bucket), tm.retained.Version())
		}
		for i, task := range sh.tasks {
			is := sh.bucket[i]
			if task == nil {
				if !sh.pending {
					h.t.Fatalf("%s shard %d: slot %d (%s) is empty but the shard is not pending", tm.id, s, i, is.ID)
				}
				continue
			}
			spec := task.Spec()
			if !task.Running() || spec.ID() != is.ID || is.Shard != s {
				h.t.Fatalf("%s shard %d slot %d: task %s (running=%v) under entry %s of shard %d",
					tm.id, s, i, spec.ID(), task.Running(), is.ID, is.Shard)
			}
			content := fingerprint(h.t, spec)
			if want := fingerprint(h.t, is.Spec); content != want {
				h.t.Fatalf("%s: %s runs spec %s, its bucket entry says %s", tm.id, is.ID, content, want)
			}
			out[is.ID] = taskView{instance: task.Instance(), content: content}
		}
	}
	if tm.running != len(out) {
		h.t.Fatalf("%s: running counter %d, %d tasks in the table", tm.id, tm.running, len(out))
	}
	return out
}

// fingerprint is the oracle's own notion of a spec's content — its
// encoding/json form, which names every field — so that what the manager
// keeps and restarts is judged independently of engine.TaskSpec.Equal.
func fingerprint(t *testing.T, spec *engine.TaskSpec) string {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// --- the oracle -------------------------------------------------------

// check runs after every entry into manager k. Between two checks a
// manager does at most: stop (or have killed) some tasks, then reconcile
// once. Nothing may start outside a reconcile; a reconcile must leave
// exactly index ∩ owned shards running, keep the instance of every task
// whose spec did not change, and move the counters by the set differences.
func (h *churnHarness) check(k int) {
	h.t.Helper()
	tm := h.w.tms[k]
	now, st := h.view(tm), tm.Stats()
	prev, prevSt := h.last[k], h.lastStats[k]
	rc, killed := h.recon[k], h.killed[k]
	h.recon[k], h.killed[k] = nil, false

	// What ran once the interval's stops were done: when the reconcile
	// began, or — without one — now. Nothing in it may be new.
	settled := now
	if rc != nil {
		settled = rc.pre
	}
	for id, v := range settled {
		if prev[id] != v {
			h.t.Fatalf("%s: %s (%s) started outside a reconcile", tm.id, id, v.instance)
		}
	}
	var want Stats // deltas
	if !killed {
		want.Stopped = len(prev) - len(settled)
	}
	if rc != nil {
		h.reconciles++
		desired := make(map[string]string) // ID → content: the index's specs on owned shards
		for _, s := range rc.owned {
			for _, is := range rc.idx.ShardSpecs(s) {
				desired[is.ID] = fingerprint(h.t, is.Spec)
			}
		}
		for id, v := range rc.pre {
			if content, ok := desired[id]; !ok {
				want.Stopped++
			} else if content != v.content {
				want.Restarted++
			}
		}
		for id, content := range desired {
			pre, ran := rc.pre[id]
			got, runs := now[id]
			switch {
			case ran && pre.content == content:
				if got != pre {
					h.t.Fatalf("%s: %s kept its spec but went from instance %q to %q", tm.id, id, pre.instance, got.instance)
				}
			case h.blocked[id]:
				if runs {
					h.t.Fatalf("%s: %s runs although a foreign lease holds its partition", tm.id, id)
				}
				want.StartErrors++
				h.wantViolations++
			default:
				if !runs || got.content != content {
					h.t.Fatalf("%s: %s should run spec %s after the refresh, got %+v (running=%v)", tm.id, id, content, got, runs)
				}
				if _, old := h.seen[got.instance]; old {
					h.t.Fatalf("%s: %s changed spec but kept instance %s", tm.id, id, got.instance)
				}
				want.Started++
			}
		}
		for id := range now {
			if _, ok := desired[id]; !ok {
				h.t.Fatalf("%s: %s still runs after a refresh whose index ∩ owned shards lacks it", tm.id, id)
			}
		}
	}
	got := Stats{
		Started: st.Started - prevSt.Started, Stopped: st.Stopped - prevSt.Stopped,
		Restarted: st.Restarted - prevSt.Restarted, StartErrors: st.StartErrors - prevSt.StartErrors,
	}
	if got != want {
		h.t.Fatalf("%s: counters moved by %+v, the set differences say %+v", tm.id, got, want)
	}
	if v := h.w.ckpt.Violations(); v != h.wantViolations {
		h.t.Fatalf("%d lease violations, want %d (the seeded conflict's failed starts only)", v, h.wantViolations)
	}
	h.noteStarts(tm, now)
	h.last[k], h.lastStats[k] = now, st
}

// noteStarts appends the instances seen for the first time to the trace,
// in start order, numbered relative to the run's first instance.
func (h *churnHarness) noteStarts(tm *Manager, now map[string]taskView) {
	type started struct {
		id  string
		seq uint64
	}
	var fresh []started
	for id, v := range now {
		if _, old := h.seen[v.instance]; old {
			continue
		}
		h.seen[v.instance] = struct{}{}
		seq, err := strconv.ParseUint(v.instance[strings.LastIndexByte(v.instance, '@')+1:], 10, 64)
		if err != nil {
			h.t.Fatalf("instance %q: %v", v.instance, err)
		}
		fresh = append(fresh, started{id, seq})
	}
	slices.SortFunc(fresh, func(a, b started) int { return int(a.seq) - int(b.seq) })
	for _, f := range fresh {
		if h.seqBase == 0 {
			h.seqBase = f.seq
		}
		h.trace = append(h.trace, fmt.Sprintf("%s %s@%d", tm.id, f.id, f.seq-h.seqBase))
	}
}

// recordPublished fingerprints a bucket the first time any manager
// fetches it.
func (h *churnHarness) recordPublished(b []taskservice.IndexedSpec) {
	if len(b) == 0 {
		return
	}
	if _, ok := h.published[&b[0]]; ok {
		return
	}
	p := &publishedBucket{bucket: b, entries: slices.Clone(b), specs: make([]engine.TaskSpec, len(b))}
	for i, is := range b {
		// A deep copy: the value copy alone would share the template, and a
		// write through it would show on both sides of the comparison.
		tmpl := *is.Spec.JobSpec
		p.specs[i] = *is.Spec
		p.specs[i].JobSpec = &tmpl
		p.specs[i].Partitions = slices.Clone(is.Spec.Partitions)
	}
	h.published[&b[0]] = p
}

// assertRetainedBucketsAsPublished checks every bucket a manager retains
// element for element against what it was when first fetched: a write
// through bucket[i] or bucket[i].Spec shows here.
func (h *churnHarness) assertRetainedBucketsAsPublished() (retained int) {
	h.t.Helper()
	for _, tm := range h.w.tms {
		tm.mu.Lock()
		for s, sh := range tm.shards {
			if len(sh.bucket) == 0 {
				continue
			}
			retained++
			p := h.published[&sh.bucket[0]]
			if p == nil || len(p.bucket) != len(sh.bucket) {
				h.t.Fatalf("%s shard %d retains a bucket no index published to it", tm.id, s)
			}
			for i, is := range sh.bucket {
				if is != p.entries[i] {
					h.t.Fatalf("%s shard %d entry %d changed since it was published: %+v, was %+v", tm.id, s, i, is, p.entries[i])
				}
				if !reflect.DeepEqual(*is.Spec, p.specs[i]) {
					h.t.Fatalf("%s shard %d: spec of %s changed since it was published: %+v, was %+v", tm.id, s, is.ID, *is.Spec, p.specs[i])
				}
			}
		}
		tm.mu.Unlock()
	}
	return retained
}

// --- events -----------------------------------------------------------

type churnJob struct {
	tasks   int
	version int   // package version counter
	rev     int64 // running-entry version
	live    bool
}

func (h *churnHarness) commit(name string, j *churnJob) {
	h.t.Helper()
	if !j.live {
		// Creating the category twice is an error the second time only.
		_ = h.w.bus.CreateCategory(name+"_in", 12)
	}
	cfg := &config.JobConfig{
		Name:           name,
		Package:        config.Package{Name: "tailer", Version: fmt.Sprintf("v%d", j.version)},
		TaskCount:      j.tasks,
		ThreadsPerTask: 1,
		TaskResources:  config.Resources{CPUCores: 1, MemoryBytes: 1 << 30},
		Operator:       config.OpTailer,
		Input:          config.Input{Category: name + "_in", Partitions: 12},
	}
	doc, err := cfg.ToDoc()
	if err != nil {
		h.t.Fatal(err)
	}
	j.rev++
	if err := h.w.store.CommitRunning(name, doc, j.rev); err != nil {
		h.t.Fatal(err)
	}
	j.live = true
}

// stopJobEverywhere is the actuator's fan-out. The oracle walks every task
// slot of every owned shard (jobSlots): StopJob returns the number of the
// job's tasks that ran on the manager, none of them runs afterwards, and
// once every manager has answered no partition of the job has an owner.
func (h *churnHarness) stopJobEverywhere(name string) {
	h.t.Helper()
	source := h.w.ts.Index()
	for k, tm := range h.w.tms {
		ran := jobSlots(tm, name)
		if got := tm.JobTaskCount(name); got != ran {
			h.t.Fatalf("%s: JobTaskCount(%s) = %d, %d run", tm.id, name, got, ran)
		}
		behind := 0
		tm.mu.Lock()
		for s, sh := range tm.shards {
			if lo, hi := taskservice.JobRun(sh.bucket, name); hi > lo && !taskservice.SameBucket(sh.bucket, source.ShardSpecs(s)) {
				behind += hi - lo
			}
		}
		tm.mu.Unlock()
		if got := tm.StopJob(name); got != ran {
			h.t.Fatalf("%s: StopJob(%s) stopped %d tasks, %d were running", tm.id, name, got, ran)
		}
		if left := jobSlots(tm, name); left != 0 || tm.JobTaskCount(name) != 0 {
			h.t.Fatalf("%s: %d tasks of %s still run after StopJob (JobTaskCount %d)", tm.id, left, name, tm.JobTaskCount(name))
		}
		h.stopsBehindSource += min(behind, ran)
		h.check(k)
	}
	if left := h.w.ckpt.LiveOwners(name); left != 0 {
		h.t.Fatalf("%s: %d partitions still owned after StopJob everywhere", name, left)
	}
}

// gatedRefresh holds manager k's Refresh back by one of its three gates —
// Shard Manager unreachable, task source stale, shard space mismatched —
// while the source publishes a change to every bucket the manager holds,
// hands the manager a shard it cannot reconcile, and then runs the
// fan-out for a job: the manager must find its tasks in buckets the source
// has long replaced, and must start nothing until the gate lifts.
func (h *churnHarness) gatedRefresh(k, gate int, bump func(), stop string) {
	h.t.Helper()
	w, tm := h.w, h.w.tms[k]
	switch gate {
	case 0:
		tm.SetConnected(false)
	case 1:
		h.stale[k] = DefaultConnectionTimeout
	case 2:
		h.mismatch[k] = true
	}
	bump()
	w.ts.Invalidate()
	w.ts.Index()
	before := tm.Stats()
	tm.Refresh()
	h.check(k)
	if st := tm.Stats(); st.Started != before.Started || st.Restarted != before.Restarted {
		h.t.Fatalf("%s: gate %d held, yet Refresh started %d and restarted %d tasks", tm.id, gate, st.Started-before.Started, st.Restarted-before.Restarted)
	}
	h.gated[gate]++
	// AddShard while degraded: load the others, so the rebalance moves
	// shards onto this manager, whose Refresh is still held back.
	for j, other := range w.tms {
		if j == k {
			continue
		}
		for _, s := range w.sm.ShardsOf(other.ID()) {
			w.sm.ReportShardLoads(map[shardmanager.ShardID]config.Resources{s: {CPUCores: 4, MemoryBytes: 4 << 30}})
		}
	}
	owned := len(tm.Shards())
	w.sm.Rebalance()
	h.adoptedGated += max(len(tm.Shards())-owned, 0)
	h.stopJobEverywhere(stop)
	switch gate {
	case 0:
		tm.SetConnected(true)
	case 1:
		h.stale[k] = 0
	case 2:
		h.mismatch[k] = false
	}
}

// restartTaskService replaces the Task Service with a new one over the same
// store and quiesce set: equal content, every bucket and every spec in a
// new array — a new Service shares no array with the old one.
func (h *churnHarness) restartTaskService() {
	fresh := taskservice.New(h.w.store, h.w.clk, 90*time.Second, churnShards)
	for n := range h.quiesced {
		fresh.Quiesce(n)
	}
	h.w.ts = fresh
}

func (h *churnHarness) refreshAll() {
	h.w.ts.Invalidate()
	for k, tm := range h.w.tms {
		tm.Refresh()
		h.check(k)
	}
}

// secondOfFetchPeriod is where the clock stands in the managers' 60 s
// fetch period (their tickers started at the epoch).
func (h *churnHarness) secondOfFetchPeriod() int {
	return int(h.w.clk.Now().Sub(epoch)/time.Second) % 60
}

// killAndRevive kills manager k's host, waits out the failover, and brings
// the host back at the given second of the fetch period: second 58 puts
// the revived manager's fetch tick ahead of its first heartbeat.
func (h *churnHarness) killAndRevive(k, second int) {
	host := fmt.Sprintf("h%d", k)
	if err := h.w.tw.SetHostHealthy(host, false); err != nil {
		h.t.Fatal(err)
	}
	h.killed[k] = true
	h.w.tms[k].OnContainerDead()
	h.check(k)
	h.w.clk.RunFor(2 * time.Minute)
	for h.secondOfFetchPeriod() != second {
		h.w.clk.RunFor(time.Second)
	}
	if err := h.w.tw.SetHostHealthy(host, true); err != nil {
		h.t.Fatal(err)
	}
	h.w.clk.RunFor(90 * time.Second)
}

// run drives the matrix and returns the start trace.
func (h *churnHarness) run() []string {
	t, w, rng := h.t, h.w, h.rng
	jobs := make(map[string]*churnJob)
	name := func() string { return fmt.Sprintf("job%02d", rng.Intn(churnJobPool)) }
	job := func(n string) *churnJob {
		if jobs[n] == nil {
			jobs[n] = &churnJob{tasks: 1 + rng.Intn(6), version: 1}
		}
		return jobs[n]
	}
	for i := 0; i < churnJobPool/2; i++ {
		n := fmt.Sprintf("job%02d", i)
		h.commit(n, job(n))
	}
	h.refreshAll()

	conflict := &churnJob{tasks: 2, version: 1}
	reviveAt := map[int]int{9: 1, 24: 31, 39: 58}
	for round := 0; round < churnRounds; round++ {
		switch {
		case reviveAt[round] != 0:
			h.killAndRevive(rng.Intn(churnContainers), reviveAt[round])
		case round == 14:
			// A foreign instance holds partition 0 of a job about to be
			// created: task #0's Start must fail, on every Refresh of its
			// manager, until the lease goes — and nothing else may try.
			if err := w.ckpt.Start(conflictJob, []int{0}, "intruder", make([]int64, 1)); err != nil {
				t.Fatal(err)
			}
			h.blocked[engine.TaskID(conflictJob, 0)] = true
			h.commit(conflictJob, conflict)
		case round == 22:
			w.ckpt.ForceReleaseTask(conflictJob, "intruder")
			delete(h.blocked, engine.TaskID(conflictJob, 0))
		case round == 30:
			// More journal entries than the ring holds between two
			// regenerations: the next change set is the whole fleet, and a
			// bucket gets a new array exactly when its content moved.
			// check's minimality rule then demands that only the jobs whose
			// content moved restart.
			h.refreshAll()
			before := w.ts.Index()
			ran := make(map[string]taskView)
			for _, v := range h.last {
				for id, tv := range v {
					ran[id] = tv
				}
			}
			bumped := job("job-resync")
			bumped.version++
			h.commit("job-resync", bumped)
			// Byte-identical recommits of the live jobs; from the second lap
			// on, dropped ones too, so the burst reaches its size whatever
			// the matrix left alive.
			for i, commits := 0, 0; commits < jobstore.JournalCap+20; i++ {
				n := fmt.Sprintf("job%02d", i%churnJobPool)
				if j := job(n); j.live || i >= churnJobPool {
					h.commit(n, j)
					commits++
				}
			}
			w.ts.Invalidate()
			after := w.ts.Index()
			for s := shardmanager.ShardID(0); s < churnShards; s++ {
				was, is := before.ShardSpecs(s), after.ShardSpecs(s)
				equal := slices.EqualFunc(was, is, func(a, b taskservice.IndexedSpec) bool {
					return a.ID == b.ID && a.Spec.Equal(b.Spec)
				})
				if same := taskservice.SameBucket(was, is); same != equal {
					t.Fatalf("round %d: shard %d across a journal overflow: content equal = %v, same array = %v", round, s, equal, same)
				}
			}
			h.refreshAll()
			for _, v := range h.last {
				for id, tv := range v {
					if ran[id] == tv {
						h.keptAcrossOverflow++
					}
				}
			}
		default:
			for e, events := 0, 1+rng.Intn(3); e < events; e++ {
				n := name()
				switch rng.Intn(12) {
				case 0: // content change
					j := job(n)
					j.version++
					h.commit(n, j)
				case 1: // byte-identical recommit: revision moves, specs do not
					if j := jobs[n]; j != nil && j.live {
						h.commit(n, j)
					}
				case 2: // task-count change, the actuator's complex-sync protocol
					if j := jobs[n]; j != nil && j.live {
						w.ts.Quiesce(n)
						h.stopJobEverywhere(n)
						j.tasks = 1 + (j.tasks+rng.Intn(5))%6
						h.commit(n, j)
						w.ts.Unquiesce(n)
						delete(h.quiesced, n)
					}
				case 3: // drop
					if j := jobs[n]; j != nil && j.live {
						w.store.DropRunning(n)
						j.live = false
					}
				case 4:
					w.ts.Quiesce(n)
					h.quiesced[n] = true
				case 5:
					w.ts.Unquiesce(n)
					delete(h.quiesced, n)
				case 6: // shard moves: skew one container's load, rebalance
					heavy := w.tms[rng.Intn(churnContainers)]
					for _, s := range w.sm.ShardsOf(heavy.ID()) {
						w.sm.ReportShardLoads(map[shardmanager.ShardID]config.Resources{s: {CPUCores: 4, MemoryBytes: 4 << 30}})
					}
					w.sm.Rebalance()
				case 7: // StopJob without a quiesce: the next Refresh restarts the tasks
					h.stopJobEverywhere(n)
				case 8: // link down past the proactive timeout, back before the failover
					tm := w.tms[rng.Intn(churnContainers)]
					tm.SetConnected(false)
					w.clk.RunFor(45 * time.Second)
					tm.SetConnected(true)
				case 9, 10: // a Refresh held back by a gate while the source moves on, then the fan-out
					h.gatedRefresh(rng.Intn(churnContainers), rng.Intn(3), func() {
						for i := 0; i < churnJobPool; i++ {
							if j := jobs[fmt.Sprintf("job%02d", i)]; j != nil && j.live {
								j.version++
								h.commit(fmt.Sprintf("job%02d", i), j)
							}
						}
					}, n)
				case 11: // Task Service restart, then the fan-out against managers still on the old arrays
					h.restartTaskService()
					h.stopJobEverywhere(n)
				}
			}
		}
		w.clk.RunFor(time.Duration(rng.Intn(40)) * time.Second)
		if round%4 == 3 {
			h.refreshAll()
		}
		h.assertNoDuplicates()
	}

	// Settle: everything reachable, the freshest index everywhere.
	w.clk.RunFor(3 * time.Minute)
	w.sm.Rebalance()
	h.refreshAll()
	idx := w.ts.Index()
	if h.blocked[engine.TaskID(conflictJob, 0)] {
		t.Fatal("the seeded conflict was never lifted")
	}
	running := make(map[string]string)
	for _, tm := range w.tms {
		for _, id := range tm.RunningTaskIDs() {
			running[id] = tm.ID()
		}
	}
	want := 0
	for s := shardmanager.ShardID(0); s < churnShards; s++ {
		owner, _ := w.sm.Owner(s)
		for _, is := range idx.ShardSpecs(s) {
			want++
			if running[is.ID] != owner {
				t.Fatalf("settled: %s runs on %q, its shard %d belongs to %q", is.ID, running[is.ID], s, owner)
			}
		}
	}
	if len(running) != want {
		t.Fatalf("settled: %d tasks run, the index holds %d", len(running), want)
	}
	return h.trace
}

// assertNoDuplicates: no task ID runs on two managers.
func (h *churnHarness) assertNoDuplicates() {
	h.t.Helper()
	where := make(map[string]string)
	for k, tm := range h.w.tms {
		for id := range h.last[k] {
			if other, dup := where[id]; dup {
				h.t.Fatalf("%s runs on both %s and %s", id, other, tm.id)
			}
			where[id] = tm.id
		}
	}
}

// --- the tests --------------------------------------------------------

// TestReconcileMatchesIndexUnderChurn runs the matrix with the oracle
// armed at every entry, then once more from the same seed: visited shards
// are sorted and bucket order is fixed, so the same history must start
// the same tasks, on the same managers, in the same order.
func TestReconcileMatchesIndexUnderChurn(t *testing.T) {
	h := newChurnHarness(t, 7)
	first := h.run()
	var reboots, errs int
	for _, tm := range h.w.tms {
		reboots += tm.Stats().Reboots
		errs += tm.Stats().StartErrors
	}
	summary := fmt.Sprintf("%d reconciles, %d reboots, %d failed starts, %d tasks kept across the overflow, %d starts, %v refreshes held back per gate, %d shards adopted behind a gate, %d tasks stopped in buckets the source had replaced",
		h.reconciles, reboots, errs, h.keptAcrossOverflow, len(first), h.gated, h.adoptedGated, h.stopsBehindSource)
	t.Log(summary)
	// The matrix must have reached what it exists to reach.
	if h.reconciles < 200 || reboots == 0 || errs < 2 || h.keptAcrossOverflow == 0 || len(first) < 300 ||
		min(h.gated[0], h.gated[1], h.gated[2]) == 0 || h.adoptedGated == 0 || h.stopsBehindSource < 10 {
		t.Fatalf("matrix too tame: %s", summary)
	}
	second := newChurnHarness(t, 7).run()
	if !slices.Equal(first, second) {
		for i := range first {
			if i >= len(second) || first[i] != second[i] {
				t.Fatalf("same seed, different start sequence at %d of %d/%d: %q vs %q", i, len(first), len(second), first[i], second[min(i, len(second)-1)])
			}
		}
		t.Fatalf("same seed, different start sequence: %d vs %d starts", len(first), len(second))
	}
}

// TestRetainedBucketsStayAsPublished is the aliasing guard for the slices
// the managers now hold across refreshes: after the whole matrix the
// incrementally spliced index still equals a from-scratch build, and
// every retained bucket is element for element what it was when the index
// published it.
func TestRetainedBucketsStayAsPublished(t *testing.T) {
	h := newChurnHarness(t, 11)
	h.run()
	if retained := h.assertRetainedBucketsAsPublished(); retained < churnShards/4 {
		t.Fatalf("only %d non-empty buckets retained: the guard checked next to nothing", retained)
	}
	fresh := taskservice.New(h.w.store, h.w.clk, 90*time.Second, churnShards)
	for n := range h.quiesced {
		fresh.Quiesce(n)
	}
	if !taskservice.IndexEqual(h.w.ts.Index(), fresh.Index()) {
		t.Fatal("after the matrix, the spliced index differs from a from-scratch build")
	}
	// Every bucket ever handed to a manager, retained or long replaced, is
	// still what it was: published arrays are never written.
	for _, p := range h.published {
		for i, is := range p.bucket {
			if is != p.entries[i] || !reflect.DeepEqual(*is.Spec, p.specs[i]) {
				t.Fatalf("published bucket entry %s was written after publication", p.entries[i].ID)
			}
		}
	}
}
