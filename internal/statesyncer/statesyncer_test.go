package statesyncer

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobservice"
	"repro/internal/jobstore"
	"repro/internal/simclock"
	"repro/internal/taskservice"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// fakeActuator records calls and injects failures.
type fakeActuator struct {
	mu            sync.Mutex
	stops         []string
	redistributes []string
	resumes       []string
	failStops     map[string]int // job -> remaining failures
	failResumes   map[string]int // job -> remaining failures
}

func newFakeActuator() *fakeActuator {
	return &fakeActuator{
		failStops:   make(map[string]int),
		failResumes: make(map[string]int),
	}
}

func (f *fakeActuator) StopJobTasks(job string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := f.failStops[job]; n > 0 {
		f.failStops[job] = n - 1
		return errors.New("injected stop failure")
	}
	f.stops = append(f.stops, job)
	return nil
}

func (f *fakeActuator) RedistributeCheckpoints(job string, partitions, oldCount, newCount int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.redistributes = append(f.redistributes, fmt.Sprintf("%s:%d:%d->%d", job, partitions, oldCount, newCount))
	return nil
}

func (f *fakeActuator) ResumeJob(job string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := f.failResumes[job]; n > 0 {
		f.failResumes[job] = n - 1
		return errors.New("injected resume failure")
	}
	f.resumes = append(f.resumes, job)
	return nil
}

func (f *fakeActuator) resumeCount(job string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, j := range f.resumes {
		if j == job {
			n++
		}
	}
	return n
}

func (f *fakeActuator) stopCount(job string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, j := range f.stops {
		if j == job {
			n++
		}
	}
	return n
}

func validConfig(name string) *config.JobConfig {
	return &config.JobConfig{
		Name:           name,
		Package:        config.Package{Name: "tailer", Version: "v1"},
		TaskCount:      10,
		ThreadsPerTask: 2,
		TaskResources:  config.Resources{CPUCores: 1, MemoryBytes: 1 << 30},
		Operator:       config.OpTailer,
		Input:          config.Input{Category: name + "_in", Partitions: 64},
		SLOSeconds:     90,
	}
}

func newWorld(t *testing.T, opts Options) (*jobservice.Service, *Syncer, *fakeActuator, *simclock.Sim) {
	t.Helper()
	clk := simclock.NewSim(epoch)
	store := jobstore.New()
	svc := jobservice.New(store)
	act := newFakeActuator()
	return svc, New(store, act, clk, opts), act, clk
}

// runningTaskCount returns the task count of the job's running config.
func runningTaskCount(t *testing.T, svc *jobservice.Service, job string) int {
	t.Helper()
	r, _, ok := svc.Store().RunningDoc(job)
	if !ok || r.Config == nil {
		t.Fatalf("no running config for %s", job)
	}
	return r.Config.TaskCount
}

func TestNewJobSyncsSimple(t *testing.T) {
	svc, syncer, act, _ := newWorld(t, Options{})
	svc.Provision(validConfig("j1"))

	res := syncer.RunRound()
	if res.Simple != 1 || res.Complex != 0 {
		t.Fatalf("round = %+v", res)
	}
	if v := runningTaskCount(t, svc, "j1"); v != 10 {
		t.Fatalf("running taskCount = %v", v)
	}
	if len(act.stops) != 0 {
		t.Fatalf("new job triggered stops: %v", act.stops)
	}
	// Second round is a no-op.
	res = syncer.RunRound()
	if res.Simple != 0 || res.Complex != 0 {
		t.Fatalf("converged job re-synced: %+v", res)
	}
}

func TestPackageReleaseIsSimpleSync(t *testing.T) {
	svc, syncer, act, _ := newWorld(t, Options{})
	svc.Provision(validConfig("j1"))
	syncer.RunRound()

	svc.SetPackageVersion("j1", "v2")
	res := syncer.RunRound()
	if res.Simple != 1 || res.Complex != 0 {
		t.Fatalf("package release classified wrong: %+v", res)
	}
	if len(act.stops) != 0 {
		t.Fatal("simple sync stopped tasks")
	}
	r, _, _ := svc.Store().RunningDoc("j1")
	if v := r.Config.Package.Version; v != "v2" {
		t.Fatalf("running package.version = %v", v)
	}
}

func TestParallelismChangeIsComplexSync(t *testing.T) {
	svc, syncer, act, _ := newWorld(t, Options{})
	svc.Provision(validConfig("j1"))
	syncer.RunRound()

	svc.SetTaskCount("j1", config.LayerScaler, 20)
	res := syncer.RunRound()
	if res.Complex != 1 || res.Simple != 0 {
		t.Fatalf("parallelism change classified wrong: %+v", res)
	}
	// Ordered phases: stop old tasks, then redistribute, then commit.
	if act.stopCount("j1") != 1 {
		t.Fatalf("stops = %v", act.stops)
	}
	if len(act.redistributes) != 1 || act.redistributes[0] != "j1:64:10->20" {
		t.Fatalf("redistributes = %v", act.redistributes)
	}
	if got := runningTaskCount(t, svc, "j1"); got != 20 {
		t.Fatalf("running taskCount = %v", got)
	}
}

func TestFailedComplexSyncAbortsAndRetries(t *testing.T) {
	svc, syncer, act, _ := newWorld(t, Options{})
	svc.Provision(validConfig("j1"))
	syncer.RunRound()
	svc.SetTaskCount("j1", config.LayerScaler, 20)

	act.failStops["j1"] = 1 // first stop attempt fails
	res := syncer.RunRound()
	if len(res.Failed) != 1 {
		t.Fatalf("round = %+v", res)
	}
	// Atomicity: running config untouched by the failed plan.
	if got := runningTaskCount(t, svc, "j1"); got != 10 {
		t.Fatalf("failed plan leaked: running taskCount = %v", got)
	}
	if syncer.FailureCount("j1") != 1 {
		t.Fatalf("FailureCount = %d", syncer.FailureCount("j1"))
	}

	// Next round: difference still detected, plan re-executed, succeeds.
	res = syncer.RunRound()
	if res.Complex != 1 {
		t.Fatalf("retry round = %+v", res)
	}
	if got := runningTaskCount(t, svc, "j1"); got != 20 {
		t.Fatalf("after retry, running taskCount = %v", got)
	}
	if syncer.FailureCount("j1") != 0 {
		t.Fatal("failure count not reset after success")
	}
}

// TestRevertedChangeResolvesFailureStreak: a change that failed once and
// is then reverted converges as one simple sync whose commit moves only
// the running version — no journal entry. That resolves the job's failure
// streak, so the job leaves the candidate set and its next real failure
// counts as the first.
func TestRevertedChangeResolvesFailureStreak(t *testing.T) {
	svc, syncer, act, _ := newWorld(t, Options{})
	store := svc.Store()
	svc.Provision(validConfig("j1"))
	syncer.RunRound()
	svc.SetTaskCount("j1", config.LayerScaler, 20)
	act.failStops["j1"] = 1
	if res := syncer.RunRound(); len(res.Failed) != 1 || syncer.FailureCount("j1") != 1 {
		t.Fatalf("failing round = %+v, streak %d", res, syncer.FailureCount("j1"))
	}

	if err := svc.ClearLayer("j1", config.LayerScaler); err != nil {
		t.Fatal(err)
	}
	before, head := syncer.Stats(), store.JournalHead()
	res := syncer.RunRound()
	if res.Simple != 1 || res.Complex+res.Deleted != 0 || len(res.Failed) != 0 {
		t.Fatalf("revert round = %+v, want one simple sync", res)
	}
	if got := store.JournalHead(); got != head {
		t.Fatalf("journal head %d -> %d, want unchanged", head, got)
	}
	if got := syncer.FailureCount("j1"); got != 0 {
		t.Fatalf("streak after the revert converged the job = %d, want 0", got)
	}
	if left := store.DivergedRangeInto(0, jobstore.NumStripes, nil); len(left) != 0 {
		t.Fatalf("diverged set after the revert = %v, want empty", left)
	}
	after := syncer.Stats()
	if after.JobsConverged != before.JobsConverged+1 || after.SimpleSyncs != before.SimpleSyncs+1 || after.Failures != before.Failures {
		t.Fatalf("revert counters: %+v -> %+v, want one more simple sync and converged job", before, after)
	}

	svc.SetTaskCount("j1", config.LayerScaler, 30)
	act.failStops["j1"] = 1
	syncer.RunRound()
	if ss, _ := store.SyncStateOf("j1"); ss.FailureStreak != 1 || !ss.NextRetryAt.IsZero() {
		t.Fatalf("next failure's record = %+v, want a first failure (streak 1, no backoff)", ss)
	}
}

// TestVersionOnlySyncIsSimpleCommit: an oncall override that sets the
// task count the merge already holds moves the expected version and no
// content. Planning it writes nothing (BuildPlan leaves the store's
// snapshot byte-identical); the round syncs it as one simple commit that
// moves only the running version, so the journal, the job's revision
// and a feed subscriber see no change.
func TestVersionOnlySyncIsSimpleCommit(t *testing.T) {
	svc, syncer, _, clk := newWorld(t, Options{})
	store := svc.Store()
	svc.Provision(validConfig("j1"))
	syncer.RunRound()
	sub := taskservice.NewFeedClient(jobservice.NewSpecFeed(store), "ts", clk, 90*time.Second, 4)
	if err := sub.Sync(0); err != nil {
		t.Fatal(err)
	}

	if err := svc.SetTaskCount("j1", config.LayerOncall, runningTaskCount(t, svc, "j1")); err != nil {
		t.Fatal(err)
	}
	merged, version, err := store.MergedExpected("j1")
	if err != nil {
		t.Fatal(err)
	}
	before, err := store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if p := syncer.BuildPlan("j1", merged, version); p.Kind != PlanSimple || len(p.Changes) != 0 {
		t.Fatalf("plan = %v with changes %v, want a simple plan with none", p.Kind, p.Changes)
	}
	if after, err := store.Snapshot(); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("BuildPlan wrote to the store (%v)", err)
	}

	head := store.JournalHead()
	_, rev, _ := store.RunningEntry("j1")
	if res := syncer.RunRound(); res.Simple != 1 || res.Complex+res.Deleted != 0 || len(res.Failed) != 0 {
		t.Fatalf("round = %+v, want one simple sync", res)
	}
	if left := store.DivergedRangeInto(0, jobstore.NumStripes, nil); len(left) != 0 {
		t.Fatalf("diverged set after the round = %v, want empty", left)
	}
	if _, rv, _ := store.RunningDoc("j1"); rv != version {
		t.Fatalf("running version %d, want %d", rv, version)
	}
	if _, got, _ := store.RunningEntry("j1"); got != rev || store.JournalHead() != head {
		t.Fatalf("revision %d -> %d, journal head %d -> %d; want both unchanged", rev, got, head, store.JournalHead())
	}
	applied := sub.Stats().Applied
	if err := sub.Sync(0); err != nil {
		t.Fatal(err)
	}
	if got := sub.Stats().Applied; got != applied {
		t.Fatalf("the subscriber applied %d entries after the round, want 0", got-applied)
	}
}

func TestRepeatedFailureQuarantinesAndAlerts(t *testing.T) {
	var alerts []Alert
	svc, syncer, act, clk := newWorld(t, Options{
		OnAlert: func(a Alert) { alerts = append(alerts, a) },
	})
	svc.Provision(validConfig("j1"))
	syncer.RunRound()
	svc.SetTaskCount("j1", config.LayerScaler, 20)
	act.failStops["j1"] = 100 // keeps failing

	// Repeated failures back off exponentially (base = the 30s default
	// interval), so advance the clock past each deadline between rounds.
	for i := 0; i < quarantineAfter; i++ {
		if _, ok := svc.Store().Quarantined("j1"); ok {
			t.Fatalf("job quarantined after only %d failures", i)
		}
		syncer.RunRound()
		clk.RunFor(pastLongestBackoff)
	}
	if _, ok := svc.Store().Quarantined("j1"); !ok {
		t.Fatalf("job not quarantined after %d failures", quarantineAfter)
	}
	if len(alerts) != 1 || alerts[0].Job != "j1" {
		t.Fatalf("alerts = %+v", alerts)
	}
	// Quarantined jobs are skipped in later rounds.
	before := syncer.Stats().Failures
	syncer.RunRound()
	if syncer.Stats().Failures != before {
		t.Fatal("quarantined job still being synced")
	}
	// Oncall clears quarantine; sync resumes.
	svc.Store().ClearQuarantine("j1")
	act.failStops["j1"] = 0
	res := syncer.RunRound()
	if res.Complex != 1 {
		t.Fatalf("after clear, round = %+v", res)
	}
}

func TestDeletedJobTearDown(t *testing.T) {
	svc, syncer, act, _ := newWorld(t, Options{})
	svc.Provision(validConfig("j1"))
	syncer.RunRound()

	svc.Delete("j1")
	res := syncer.RunRound()
	if res.Deleted != 1 {
		t.Fatalf("round = %+v", res)
	}
	if act.stopCount("j1") != 1 {
		t.Fatal("deleted job's tasks not stopped")
	}
	if _, ok := svc.Store().GetRunningShared("j1"); ok {
		t.Fatal("running entry survived delete sync")
	}
}

func TestDeleteTearDownRetriesOnFailure(t *testing.T) {
	svc, syncer, act, _ := newWorld(t, Options{})
	svc.Provision(validConfig("j1"))
	syncer.RunRound()
	svc.Delete("j1")
	act.failStops["j1"] = 1

	res := syncer.RunRound()
	if res.Deleted != 0 || len(res.Failed) != 1 {
		t.Fatalf("round = %+v", res)
	}
	if _, ok := svc.Store().GetRunningShared("j1"); !ok {
		t.Fatal("running dropped despite stop failure")
	}
	res = syncer.RunRound()
	if res.Deleted != 1 {
		t.Fatalf("retry round = %+v", res)
	}
}

func TestStoppedBitIsComplex(t *testing.T) {
	svc, syncer, act, _ := newWorld(t, Options{})
	svc.Provision(validConfig("j1"))
	syncer.RunRound()
	svc.SetStopped("j1", true)
	res := syncer.RunRound()
	if res.Complex != 1 {
		t.Fatalf("stopped-bit change classified wrong: %+v", res)
	}
	if act.stopCount("j1") != 1 {
		t.Fatal("stop action not executed")
	}
}

func TestBatchedSimpleSyncsManyJobs(t *testing.T) {
	svc, syncer, _, _ := newWorld(t, Options{})
	const n = 500
	for i := 0; i < n; i++ {
		svc.Provision(validConfig(fmt.Sprintf("j%03d", i)))
	}
	res := syncer.RunRound()
	if res.Simple != n {
		t.Fatalf("Simple = %d, want %d", res.Simple, n)
	}
	// Global package release: all simple, one batched round.
	for i := 0; i < n; i++ {
		svc.SetPackageVersion(fmt.Sprintf("j%03d", i), "v2")
	}
	res = syncer.RunRound()
	if res.Simple != n || res.Complex != 0 {
		t.Fatalf("release round = %+v", res)
	}
}

// TestPeriodicRoundsOnClock: the Node is the scheduler — a one-slice
// Node started on the clock runs one engine round per interval.
func TestPeriodicRoundsOnClock(t *testing.T) {
	clk := simclock.NewSim(epoch)
	store := jobstore.New()
	svc := jobservice.New(store)
	node := NewNode(store, newFakeActuator(), clk, NodeOptions{Syncer: Options{Interval: 30 * time.Second}})
	svc.Provision(validConfig("j1"))
	node.Start()
	defer node.Stop()
	clk.RunFor(29 * time.Second)
	if _, ok := store.GetRunningShared("j1"); ok {
		t.Fatal("synced before first interval")
	}
	clk.RunFor(2 * time.Second)
	if _, ok := store.GetRunningShared("j1"); !ok {
		t.Fatal("not synced after interval")
	}
	if got := node.Stats().Rounds; got != 1 {
		t.Fatalf("Rounds = %d", got)
	}
	node.Start() // idempotent
	node.Stop()
	node.Stop() // idempotent
}

func TestBuildPlanKinds(t *testing.T) {
	svc, syncer, _, _ := newWorld(t, Options{})
	svc.Provision(validConfig("j1"))
	merged, version, _ := svc.Store().MergedExpected("j1")

	// No running entry: simple (fresh start).
	p := syncer.BuildPlan("j1", merged, version)
	if p.Kind != PlanSimple {
		t.Fatalf("fresh job plan = %v", p.Kind)
	}
	syncer.RunRound()

	// Equal: noop.
	p = syncer.BuildPlan("j1", merged, version)
	if p.Kind != PlanNoop {
		t.Fatalf("converged plan = %v", p.Kind)
	}

	// taskCount change: complex with 2 ordered actions.
	svc.SetTaskCount("j1", config.LayerScaler, 16)
	merged, version, _ = svc.Store().MergedExpected("j1")
	p = syncer.BuildPlan("j1", merged, version)
	if p.Kind != PlanComplex || len(p.Actions) != 2 {
		t.Fatalf("plan = %+v", p)
	}
	if p.Actions[0].Name == "" || p.Actions[1].Name == "" {
		t.Fatal("actions unnamed")
	}
}

func TestPlanKindString(t *testing.T) {
	for k, want := range map[PlanKind]string{
		PlanNoop: "noop", PlanSimple: "simple", PlanComplex: "complex",
		PlanDelete: "delete", PlanKind(9): "plan(9)",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	svc, syncer, _, _ := newWorld(t, Options{})
	svc.Provision(validConfig("j1"))
	syncer.RunRound()
	svc.SetTaskCount("j1", config.LayerScaler, 16)
	syncer.RunRound()
	st := syncer.Stats()
	if st.Rounds != 2 || st.SimpleSyncs != 1 || st.ComplexSyncs != 1 || st.JobsConverged != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestManyComplexPlansExecuteInParallelBounded(t *testing.T) {
	// "Parallelize the complex ones" (§III-B): a round with many
	// parallelism changes executes them concurrently, bounded by
	// maxParallelComplex, and every one commits.
	svc, syncer, act, _ := newWorld(t, Options{})
	const n = 3 * maxParallelComplex / 2
	for i := 0; i < n; i++ {
		svc.Provision(validConfig(fmt.Sprintf("j%02d", i)))
	}
	syncer.RunRound()
	for i := 0; i < n; i++ {
		if err := svc.SetTaskCount(fmt.Sprintf("j%02d", i), config.LayerScaler, 20); err != nil {
			t.Fatal(err)
		}
	}
	res := syncer.RunRound()
	if res.Complex != n {
		t.Fatalf("Complex = %d, want %d", res.Complex, n)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("j%02d", i)
		if act.stopCount(name) != 1 {
			t.Fatalf("%s stops = %d", name, act.stopCount(name))
		}
		if got := runningTaskCount(t, svc, name); got != 20 {
			t.Fatalf("%s running taskCount = %d", name, got)
		}
	}
}

func TestMixedRoundSimpleAndComplexAndDelete(t *testing.T) {
	svc, syncer, _, _ := newWorld(t, Options{})
	for _, n := range []string{"simplejob", "complexjob", "deadjob"} {
		svc.Provision(validConfig(n))
	}
	syncer.RunRound()

	svc.SetPackageVersion("simplejob", "v2")               // simple
	svc.SetTaskCount("complexjob", config.LayerScaler, 20) // complex
	svc.Delete("deadjob")                                  // delete
	res := syncer.RunRound()
	if res.Simple != 1 || res.Complex != 1 || res.Deleted != 1 {
		t.Fatalf("round = %+v", res)
	}
	st := syncer.Stats()
	if st.SimpleSyncs < 1 || st.ComplexSyncs < 1 || st.Deletes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
