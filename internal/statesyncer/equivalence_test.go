package statesyncer

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobstore"
	"repro/internal/simclock"
)

// This file pins the diverged-set round implementation against a
// verbatim port of the pre-change-tracking full-scan round: randomized
// fleets run through both side by side, and after every round the two
// Job Stores must serialize byte-identically, with matching plan-kind
// counts, failure/quarantine accounting, and pendingAfter retry state.
//
// The comparison strips the snapshot sections the legacy design never
// had (schema, sync states): the legacy port keeps its
// failure/retry bookkeeping in memory, so only the job-facing sections
// (expected, running, quarantined) are byte-compared. The legacy round
// retries every failed job every round; the scripts advance the clock
// past the longest backoff between rounds, so the production syncer's
// deadlines have always passed and it does too.

// legacySyncer is the full-scan RunRound as it was before change-driven
// rounds, ported verbatim (clone-based store reads, per-round full
// enumeration, sequential simple batch).
type legacySyncer struct {
	store           *jobstore.Store
	act             Actuator
	clock           simclock.Clock
	quarantineAfter int
	failures        map[string]int
	stats           Stats
	pendingAfter    map[string][]Action
}

func newLegacy(store *jobstore.Store, act Actuator, clock simclock.Clock) *legacySyncer {
	return &legacySyncer{
		store:           store,
		act:             act,
		clock:           clock,
		quarantineAfter: 5,
		failures:        make(map[string]int),
		pendingAfter:    make(map[string][]Action),
	}
}

func (s *legacySyncer) buildPlan(job string, merged config.Doc, version int64) Plan {
	if rv, ok := s.store.RunningVersion(job); ok && rv == version {
		return Plan{Job: job, Kind: PlanNoop}
	}
	running, hasRunning := s.store.GetRunning(job)
	var changes []config.Change
	if hasRunning {
		changes = config.Diff(running.Config, merged)
		if len(changes) == 0 {
			s.store.CommitRunning(job, merged, version)
			// Parity patch: the content-equal commit converges the job,
			// which resolves its failure streak rather than leaking it.
			delete(s.failures, job)
			return Plan{Job: job, Kind: PlanNoop}
		}
	}
	complex := false
	for _, ch := range changes {
		if isComplexChange(ch.Path) {
			complex = true
			break
		}
	}
	if !hasRunning || !complex {
		return Plan{Job: job, Kind: PlanSimple, Changes: changes, commit: jobstore.Merged{Doc: merged}, commitVersion: version}
	}
	oldCount := intAt(running.Config, "taskCount")
	newCount := intAt(merged, "taskCount")
	partitions := intAt(merged, "input.partitions")
	actions := []Action{
		{Name: fmt.Sprintf("stop %d old tasks", oldCount), Run: func() error { return s.act.StopJobTasks(job) }},
		{Name: fmt.Sprintf("redistribute checkpoints %d->%d tasks", oldCount, newCount), Run: func() error {
			return s.act.RedistributeCheckpoints(job, partitions, oldCount, newCount)
		}},
	}
	rollback := []Action{{Name: "roll back: resume job in its previous configuration", Run: func() error { return s.act.ResumeJob(job) }}}
	return Plan{Job: job, Kind: PlanComplex, Changes: changes, Actions: actions,
		commit: jobstore.Merged{Doc: merged}, commitVersion: version, resume: true, rollback: rollback}
}

func (s *legacySyncer) runRound() RoundResult {
	var res RoundResult

	// Sorted for cross-implementation failure-order determinism; the
	// original iterated the map directly (order-insensitive accounting).
	retryJobs := make([]string, 0, len(s.pendingAfter))
	for job := range s.pendingAfter {
		retryJobs = append(retryJobs, job)
	}
	sort.Strings(retryJobs)
	for _, job := range retryJobs {
		// PR-5 parity patch: quarantined jobs keep their pending
		// follow-ups parked until the quarantine is cleared, instead of
		// being retried (and re-failed) every round.
		if _, quarantined := s.store.Quarantined(job); quarantined {
			continue
		}
		acts := s.pendingAfter[job]
		done := 0
		var err error
		for _, a := range acts {
			if err = a.Run(); err != nil {
				break
			}
			done++
		}
		if err == nil {
			delete(s.pendingAfter, job)
			// PR-5 parity patch: a completed follow-up resolves the
			// job's failure streak rather than leaking it.
			delete(s.failures, job)
		} else {
			s.pendingAfter[job] = acts[done:]
			s.recordFailure(job, err, &res)
		}
	}

	var simple, complexPlans []Plan
	expected := s.store.ExpectedNames()
	for _, job := range expected {
		if _, quarantined := s.store.Quarantined(job); quarantined {
			continue
		}
		if v := s.store.PlanViewOf(job); v.HasExpected && v.HasRunning && v.RunningVersion == v.ExpectedVersion {
			continue
		}
		merged, version, err := s.store.MergedExpected(job)
		if err != nil {
			continue
		}
		s.stats.JobsExamined++
		plan := s.buildPlan(job, merged, version)
		switch plan.Kind {
		case PlanSimple:
			simple = append(simple, plan)
		case PlanComplex:
			complexPlans = append(complexPlans, plan)
		}
	}

	for _, p := range simple {
		if err := s.executePlan(p); err != nil {
			s.recordFailure(p.Job, err, &res)
			continue
		}
		delete(s.failures, p.Job)
		s.stats.JobsConverged++
		res.Simple++
	}
	for _, p := range complexPlans {
		if err := s.executePlan(p); err != nil {
			s.recordFailure(p.Job, err, &res)
			continue
		}
		delete(s.failures, p.Job)
		s.stats.JobsConverged++
		res.Complex++
	}

	expectedSet := make(map[string]struct{}, len(expected))
	for _, j := range expected {
		expectedSet[j] = struct{}{}
	}
	for _, job := range s.store.RunningNames() {
		if _, ok := expectedSet[job]; ok {
			continue
		}
		if err := s.act.StopJobTasks(job); err != nil {
			s.recordFailure(job, err, &res)
			continue
		}
		s.store.DropRunning(job)
		_ = s.act.ResumeJob(job)
		s.stats.Deletes++
		res.Deleted++
	}

	s.stats.Rounds++
	s.stats.SimpleSyncs += res.Simple
	s.stats.ComplexSyncs += res.Complex
	return res
}

// executePlan is the pre-durability executePlan, ported verbatim (modulo
// the commit moving from a closure to plan data — the legacy path keeps
// its defensive-copy CommitRunning): no killed guards, no write-ahead
// follow-up persistence.
func (s *legacySyncer) executePlan(p Plan) error {
	for _, a := range p.Actions {
		if err := a.Run(); err != nil {
			for _, rb := range p.rollback {
				_ = rb.Run()
			}
			return fmt.Errorf("%s: action %q: %w", p.Job, a.Name, err)
		}
	}
	if p.commit.Doc != nil {
		_ = s.store.CommitRunning(p.Job, p.commit.Doc, p.commitVersion)
	}
	if p.resume {
		resume := Action{Name: "resume job (start new tasks)", Run: func() error { return s.act.ResumeJob(p.Job) }}
		if err := resume.Run(); err != nil {
			s.pendingAfter[p.Job] = []Action{resume}
			return fmt.Errorf("%s: post-commit action %q: %w", p.Job, resume.Name, err)
		}
	}
	return nil
}

func (s *legacySyncer) recordFailure(job string, err error, res *RoundResult) {
	s.failures[job]++
	s.stats.Failures++
	n := s.failures[job]
	res.Failed = append(res.Failed, job)
	if n >= s.quarantineAfter {
		s.stats.Quarantines++
		delete(s.failures, job)
		s.store.SetQuarantine(job, fmt.Sprintf("quarantined after %d consecutive sync failures; last: %v", n, err))
	}
}

// flakyActuator fails deterministically by job-name hash: some jobs fail
// their first stop attempts transiently, some fail long enough to cross
// the quarantine threshold, some fail redistribution or resume. Two
// instances driven by equivalent syncers observe identical sequences.
type flakyActuator struct {
	mu          sync.Mutex // complex plans run in parallel; budgets are per job, so outcomes stay deterministic
	stopFails   map[string]int
	redistFails map[string]int
	resumeFails map[string]int
}

func newFlaky() *flakyActuator {
	return &flakyActuator{
		stopFails:   make(map[string]int),
		redistFails: make(map[string]int),
		resumeFails: make(map[string]int),
	}
}

func jobHash(job string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(job))
	return h.Sum32()
}

func (f *flakyActuator) StopJobTasks(job string) error {
	h := jobHash(job)
	var budget int
	switch {
	case h%13 == 0:
		budget = 10 // persistent: crosses the quarantine threshold
	case h%5 == 0:
		budget = 2 // transient
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopFails[job] < budget {
		f.stopFails[job]++
		return fmt.Errorf("stop %s: injected failure %d", job, f.stopFails[job])
	}
	return nil
}

func (f *flakyActuator) RedistributeCheckpoints(job string, _, _, _ int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if jobHash(job)%17 == 0 && f.redistFails[job] < 1 {
		f.redistFails[job]++
		return fmt.Errorf("redistribute %s: injected failure", job)
	}
	return nil
}

func (f *flakyActuator) ResumeJob(job string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if jobHash(job)%11 == 0 && f.resumeFails[job] < 2 {
		f.resumeFails[job]++
		return fmt.Errorf("resume %s: injected failure %d", job, f.resumeFails[job])
	}
	return nil
}

// op is one scripted store mutation, applied identically to both stores.
type op struct {
	kind string // create, simple, complex, revert, delete, clearq
	job  string
	arg  int
}

func applyOp(t *testing.T, store *jobstore.Store, o op) {
	t.Helper()
	switch o.kind {
	case "create":
		doc := config.Doc{
			"name": o.job, "taskCount": 4,
			"package": config.Doc{"name": "tailer", "version": "v1"},
			"input":   config.Doc{"category": o.job + "_in", "partitions": 16},
		}
		if err := store.Create(o.job, doc); err != nil {
			t.Fatal(err)
		}
	case "simple":
		doc := config.Doc{}.SetPath("package.version", fmt.Sprintf("v%d", o.arg))
		if _, err := store.SetLayer(o.job, config.LayerProvisioner, doc, jobstore.Expected{Version: jobstore.AnyVersion}, nil); err != nil {
			t.Fatal(err)
		}
	case "complex":
		doc := config.Doc{}.SetPath("taskCount", 4+o.arg%8)
		if _, err := store.SetLayer(o.job, config.LayerScaler, doc, jobstore.Expected{Version: jobstore.AnyVersion}, nil); err != nil {
			t.Fatal(err)
		}
	case "revert":
		if _, err := store.SetLayer(o.job, config.LayerScaler, config.Doc{}, jobstore.Expected{Version: jobstore.AnyVersion}, nil); err != nil {
			t.Fatal(err)
		}
	case "delete":
		if err := store.Delete(o.job); err != nil {
			t.Fatal(err)
		}
	case "clearq":
		// Clears every quarantined job — identical across stores as long
		// as the implementations quarantined identically so far.
		for _, q := range store.QuarantinedNames() {
			store.ClearQuarantine(q)
		}
	}
}

// genScript builds a deterministic multi-round mutation script.
func genScript(seed int64, rounds int) [][]op {
	rng := rand.New(rand.NewSource(seed))
	var alive []string
	nameSeq := 0
	script := make([][]op, rounds)
	for r := 0; r < rounds; r++ {
		var ops []op
		n := rng.Intn(8)
		if r == 0 {
			n = 30 // initial fleet
		}
		for i := 0; i < n; i++ {
			roll := rng.Intn(10)
			switch {
			case roll < 4 || len(alive) == 0:
				job := fmt.Sprintf("eq%04d", nameSeq)
				nameSeq++
				alive = append(alive, job)
				ops = append(ops, op{kind: "create", job: job})
			case roll < 6:
				ops = append(ops, op{kind: "simple", job: alive[rng.Intn(len(alive))], arg: r + 2})
			case roll < 8:
				ops = append(ops, op{kind: "complex", job: alive[rng.Intn(len(alive))], arg: rng.Intn(100)})
			case roll < 9:
				ops = append(ops, op{kind: "revert", job: alive[rng.Intn(len(alive))]})
			default:
				k := rng.Intn(len(alive))
				ops = append(ops, op{kind: "delete", job: alive[k]})
				alive = append(alive[:k], alive[k+1:]...)
			}
		}
		if r%4 == 3 {
			ops = append(ops, op{kind: "clearq"})
		}
		script[r] = ops
	}
	return script
}

// snapshotOf serializes the store's job-facing sections only: the schema
// and the durable sync states are additions the legacy implementation
// never had (it keeps its bookkeeping in memory), so they are excluded
// from the byte-equality comparison.
func snapshotOf(t *testing.T, store *jobstore.Store) []byte {
	t.Helper()
	data, err := store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "schema")
	delete(m, "sync")
	out, err := json.Marshal(m) // map keys marshal sorted: deterministic
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// liveFailureCounts returns failure counts restricted to jobs that still
// have a store entry. (The legacy implementation leaks counts for fully
// torn-down jobs; the change-driven one clears them so they don't stay
// round candidates forever. Jobs with live entries must agree exactly.)
func liveFailureCounts(store *jobstore.Store, counts map[string]int) map[string]int {
	out := make(map[string]int)
	for job, n := range counts {
		if v := store.PlanViewOf(job); v.HasExpected || v.HasRunning {
			out[job] = n
		}
	}
	return out
}

func sortedCopy(s []string) []string {
	c := append([]string(nil), s...)
	sort.Strings(c)
	return c
}

func equalStringMaps(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func runEquivalence(t *testing.T, seed int64) {
	const rounds = 40
	script := genScript(seed, rounds)
	clk := simclock.NewSim(time.Unix(0, 0))

	legacyStore := jobstore.New()
	newStore := jobstore.New()
	legacy := newLegacy(legacyStore, newFlaky(), clk)
	syncer := New(newStore, newFlaky(), clk, Options{})

	for r := 0; r < rounds; r++ {
		clk.RunFor(pastLongestBackoff)
		for _, o := range script[r] {
			applyOp(t, legacyStore, o)
			applyOp(t, newStore, o)
		}
		lres := legacy.runRound()
		nres := syncer.RunRound()

		if lres.Simple != nres.Simple || lres.Complex != nres.Complex || lres.Deleted != nres.Deleted {
			t.Fatalf("round %d: result diverged: legacy simple=%d complex=%d deleted=%d, new simple=%d complex=%d deleted=%d",
				r, lres.Simple, lres.Complex, lres.Deleted, nres.Simple, nres.Complex, nres.Deleted)
		}
		lf, nf := sortedCopy(lres.Failed), sortedCopy(nres.Failed)
		if fmt.Sprint(lf) != fmt.Sprint(nf) {
			t.Fatalf("round %d: failed sets diverged: legacy %v, new %v", r, lf, nf)
		}

		ls, ns := snapshotOf(t, legacyStore), snapshotOf(t, newStore)
		if !bytes.Equal(ls, ns) {
			t.Fatalf("round %d: store snapshots diverged:\nlegacy:\n%s\nnew:\n%s", r, ls, ns)
		}

		lstats, nstats := legacy.stats, syncer.Stats()
		// Diverged-set reads are structural, not behavioral: the legacy
		// implementation scans the whole fleet every round by definition.
		// Everything else must agree exactly.
		nstats.SweepJobs = 0
		if lstats != nstats {
			t.Fatalf("round %d: stats diverged:\nlegacy: %+v\nnew:    %+v", r, lstats, nstats)
		}

		// The new syncer's failure/retry bookkeeping lives in the store.
		newFailures := make(map[string]int)
		var newPending []string
		for _, job := range newStore.DivergedRangeInto(0, jobstore.NumStripes, nil) {
			ss, ok := newStore.SyncStateOf(job)
			if !ok {
				continue
			}
			if ss.FailureStreak > 0 {
				newFailures[job] = ss.FailureStreak
			}
			if len(ss.FollowUps) > 0 {
				newPending = append(newPending, job)
			}
		}
		if !equalStringMaps(liveFailureCounts(legacyStore, legacy.failures), liveFailureCounts(newStore, newFailures)) {
			t.Fatalf("round %d: live failure counts diverged:\nlegacy: %v\nnew:    %v", r, legacy.failures, newFailures)
		}
		legacyPending := make([]string, 0, len(legacy.pendingAfter))
		for k := range legacy.pendingAfter {
			legacyPending = append(legacyPending, k)
		}
		sort.Strings(legacyPending)
		sort.Strings(newPending)
		if fmt.Sprint(legacyPending) != fmt.Sprint(newPending) {
			t.Fatalf("round %d: pendingAfter diverged: legacy %v, new %v", r, legacyPending, newPending)
		}
	}
}

// pastLongestBackoff is the longest retry wait the syncer ever stamps
// (Interval << maxRetryDoublings at the default 30 s Interval): advancing
// the clock by it between rounds makes every failed job due again.
const pastLongestBackoff = 30 * time.Second << maxRetryDoublings

// The subtest keeps its established name so results stay comparable
// across runs; it is the production syncer under default Options, whose
// rounds read the store's diverged set.
func TestRoundEquivalenceRandomized(t *testing.T) {
	t.Run("sweep=rotating", func(t *testing.T) {
		for seed := int64(1); seed <= 5; seed++ {
			runEquivalence(t, seed)
		}
	})
}

// TestRoundEquivalenceParallelDeterminism runs the same script through a
// syncer built on one processor (every batch inline) and one built on
// sixteen (plan build and simple commits fanned out over the pool):
// parallel plan build and commit batching must not change any observable
// outcome.
func TestRoundEquivalenceParallelDeterminism(t *testing.T) {
	const rounds = 40
	script := genScript(7, rounds)
	clk := simclock.NewSim(time.Unix(0, 0))

	storeA, storeB := jobstore.New(), jobstore.New()
	procs := runtime.GOMAXPROCS(1)
	serial := New(storeA, newFlaky(), clk, Options{})
	runtime.GOMAXPROCS(16)
	wide := New(storeB, newFlaky(), clk, Options{})
	runtime.GOMAXPROCS(procs)
	if serial.par != 1 || wide.par != 16 {
		t.Fatalf("pool widths = %d and %d, want 1 and 16", serial.par, wide.par)
	}
	for r := 0; r < rounds; r++ {
		clk.RunFor(pastLongestBackoff)
		for _, o := range script[r] {
			applyOp(t, storeA, o)
			applyOp(t, storeB, o)
		}
		ra, rb := serial.RunRound(), wide.RunRound()
		if ra.Simple != rb.Simple || ra.Complex != rb.Complex || ra.Deleted != rb.Deleted {
			t.Fatalf("round %d: serial/wide diverged: %+v vs %+v", r, ra, rb)
		}
		if sa, sb := snapshotOf(t, storeA), snapshotOf(t, storeB); !bytes.Equal(sa, sb) {
			t.Fatalf("round %d: snapshots diverged", r)
		}
	}
	if sa, sb := serial.Stats(), wide.Stats(); sa != sb {
		t.Fatalf("stats diverged: serial %+v, wide %+v", sa, sb)
	}
}
