// Package statesyncer implements Turbine's State Syncer (paper §III-B),
// the service that drives jobs from their current state to their desired
// state and gives job updates their ACIDF properties.
//
// Every round (30 seconds in production and in this reproduction's
// defaults) the syncer, for every job: merges the expected configuration
// layers by precedence, compares the result with the running
// configuration, generates an Execution Plan — an ordered sequence of
// idempotent actions — if a difference is detected, and carries the plan
// out. The running configuration is committed only after the plan
// succeeds, which yields:
//
//   - Atomicity: a partial failure leaves the running entry untouched;
//   - Fault-tolerance: a failed plan is aborted and re-generated next
//     round, because the expected/running difference is still there;
//   - Durability: running eventually converges to expected even if the
//     syncer itself crashes between rounds — rounds are stateless.
//
// The expected/running comparison is stored, level-triggered state: each
// Job Store stripe keeps the exact set of its diverged jobs — entries
// that disagree, or a durable sync record (a failure streak, a pending
// resume) — updated under the stripe lock by every write to either. That
// set over the engine's stripes is a round's one candidate feed, read
// once, and planJob its one classifier: every other job is converged, so
// planJob would answer it PlanNoop. The round stays stateless in the
// paper's sense: it keeps no cursor or mark of its own, and a write
// landing mid-round leaves its job diverged for the next one. A converged
// fleet — at a million tasks — costs a round one read lock per stripe
// and, with the per-syncer scratch buffers and persistent worker pool, no
// allocation.
//
// The syncer's remaining crash-critical bookkeeping is durable: failure
// streaks, backoff deadlines, and a pending post-commit resume live in
// the Job Store (jobstore.SyncState), captured by Snapshot and
// revived by Restore, which rebuilds the diverged set from the entries.
// A syncer that dies mid-round therefore leaves behind exactly the state
// its successor needs to converge within one ordinary round. Failed jobs
// retry under exponential backoff with deterministic per-job jitter until
// the streak quarantines them, so a dark downstream dependency produces a
// trickle of probes instead of a retry storm every round.
//
// Synchronizations come in two classes (§III-B): simple ones are a direct
// copy of the merged expected configuration into the running table (e.g. a
// package release — the new version propagates to tasks via the Task
// Service), batched by the round; complex ones require coordinated phases
// in a strict order — changing job parallelism stops the old tasks,
// redistributes their checkpoints among the future tasks, and only then
// starts the new ones. A job whose plan fails repeatedly is quarantined
// and an alert is raised for the oncall.
//
// Syncer, in this file, is the round engine: RunRound is one lease-free
// pass, callable by anything that owns a clock (benchmarks, experiments,
// turbinectl plan). Deployments never schedule it directly — a Node
// (shard.go) ticks it once per Interval under a Job Store lease, and a
// cluster is always N >= 1 Nodes.
package statesyncer

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/config"
	"repro/internal/jobstore"
	"repro/internal/simclock"
	"repro/internal/wire"
	"repro/internal/workpool"
)

// Actuator is the State Syncer's interface to the task-management world:
// the side effects complex synchronizations need. Implementations must be
// idempotent — plans may be re-executed after partial failure.
type Actuator interface {
	// StopJobTasks stops every running task of the job and returns once
	// they have fully stopped (checkpoint leases released). Stopping a
	// job with no running tasks is a no-op.
	StopJobTasks(job string) error
	// RedistributeCheckpoints re-maps per-partition checkpoints and state
	// from oldTaskCount to newTaskCount tasks. It is called only after
	// StopJobTasks succeeded, mirroring the paper's ordering requirement.
	RedistributeCheckpoints(job string, partitions, oldTaskCount, newTaskCount int) error
	// ResumeJob lifts whatever hold StopJobTasks placed on the job
	// (e.g. a Task Service quiesce), and is invoked only AFTER the new
	// running configuration is committed — the "only then starts the new
	// tasks" phase of a complex synchronization.
	ResumeJob(job string) error
}

// NopActuator is an Actuator with no side effects, for configurations
// where task lifecycle is driven purely by spec propagation.
type NopActuator struct{}

func (NopActuator) StopJobTasks(string) error                           { return nil }
func (NopActuator) RedistributeCheckpoints(string, int, int, int) error { return nil }
func (NopActuator) ResumeJob(string) error                              { return nil }

// PlanKind classifies a synchronization.
type PlanKind int

const (
	// PlanNoop means expected and running already match.
	PlanNoop PlanKind = iota
	// PlanSimple is a direct expected→running copy, no actions needed.
	PlanSimple
	// PlanComplex requires ordered phases (stop, redistribute, commit).
	PlanComplex
	// PlanDelete tears down a job whose expected entry is gone.
	PlanDelete
)

func (k PlanKind) String() string {
	switch k {
	case PlanNoop:
		return "noop"
	case PlanSimple:
		return "simple"
	case PlanComplex:
		return "complex"
	case PlanDelete:
		return "delete"
	default:
		return fmt.Sprintf("plan(%d)", int(k))
	}
}

// Action is one idempotent step of an execution plan.
type Action struct {
	Name string
	Run  func() error
}

// followUpResume is the durable key of a complex plan's post-commit
// resume in the Job Store's SyncState.FollowUps — the write-ahead record
// a restarted syncer replays. The replay acts on this key alone.
const followUpResume = "resume"

// Plan is the execution plan for one job in one round.
type Plan struct {
	Job     string
	Kind    PlanKind
	Changes []wire.Change
	Actions []Action
	// commit and commitVersion are the new running configuration — the
	// merged blob and its typed config — to publish; the executor commits
	// them only after every action succeeded (the atomic commit point). A
	// nil commit.Doc means the plan has no commit (noop, delete). Plain data instead of a bound
	// closure: simple-sync churn builds hundreds of plans per round, and
	// a per-plan closure capture is a heap allocation the steady-state
	// scratch design forbids. The commit error is always nil unless
	// fault injection intercepts the store commit.
	commit        jobstore.Merged
	commitVersion int64
	// diffErr is a noop plan's failed diff of the running and merged
	// documents: the round records it as the job's failure.
	diffErr error
	// resume runs the post-commit step: resume the quiesced job. A failure
	// here does not undo the commit; the resume is idempotent and stays
	// durably pending until a later round's replay succeeds.
	resume bool
	// rollback runs when an action fails BEFORE the commit: it returns
	// the job to its previous consistent state (e.g. un-quiesce so the
	// old-configuration tasks keep running) — the paper's "cleans up,
	// rolls back, and retries failed job updates" (§I).
	rollback []Action
}

// complexPaths are configuration paths whose change requires coordinated
// multi-phase synchronization rather than a direct copy. Task-count
// changes redistribute checkpoints; input changes re-map partitions;
// operator changes replace state semantics; output changes initialize a
// new sink; the stopped bit needs tasks actually stopped.
var complexPaths = []string{
	"taskCount",
	"input.category",
	"input.partitions",
	"operator",
	"output.category",
	"stopped",
}

func isComplexChange(path string) bool {
	for _, p := range complexPaths {
		if path == p || strings.HasPrefix(path, p+".") {
			return true
		}
	}
	return false
}

// Alert is raised when a job is quarantined after repeated sync failures.
type Alert struct {
	Job    string
	Reason string
	At     time.Time
}

// Stats are cumulative counters over all rounds.
type Stats struct {
	Rounds        int
	SimpleSyncs   int
	ComplexSyncs  int
	Deletes       int
	Failures      int
	Quarantines   int
	JobsExamined  int
	JobsConverged int // syncs successfully applied
	SweepJobs     int // jobs the rounds read from the diverged set
}

// Add returns the field-wise sum of two counter sets: a Node sums its
// slice engines, a deployment sums its Nodes.
func (a Stats) Add(b Stats) Stats {
	a.Rounds += b.Rounds
	a.SimpleSyncs += b.SimpleSyncs
	a.ComplexSyncs += b.ComplexSyncs
	a.Deletes += b.Deletes
	a.Failures += b.Failures
	a.Quarantines += b.Quarantines
	a.JobsExamined += b.JobsExamined
	a.JobsConverged += b.JobsConverged
	a.SweepJobs += b.SweepJobs
	return a
}

// The round engine's control constants: one value each in every
// deployment, harness and benchmark, so none is an option.
const (
	// quarantineAfter consecutive failed plans quarantine a job and alert
	// the oncall (§III-B).
	quarantineAfter = 5
	// maxRetryDoublings bounds the retry backoff by construction: the Nth
	// consecutive failure (N >= 2) waits Interval·2^(N-2) less jitter and
	// the streak quarantines at quarantineAfter, so the longest wait ever
	// stamped is Interval << maxRetryDoublings (4×).
	maxRetryDoublings = quarantineAfter - 3
	// maxParallelComplex complex plans are in flight at once in a round
	// ("parallelize the complex ones", §III-B).
	maxParallelComplex = 16
	// maxSyncWorkers caps the GOMAXPROCS-wide pool that builds plans and
	// applies the simple commits.
	maxSyncWorkers = 16
)

// Options tune the syncer.
type Options struct {
	// Interval between rounds; defaults to the paper's 30 seconds. It is
	// also the unit of the retry backoff (see maxRetryDoublings).
	Interval time.Duration
	// OnAlert, if set, receives quarantine alerts.
	OnAlert func(Alert)
}

// Syncer is the round engine that drives expected→running convergence
// over one stripe range. All crash-critical per-job bookkeeping (failure
// streaks, backoff deadlines, a pending post-commit resume) lives in the
// Job Store, not on the Syncer — a replacement Syncer over the same store
// resumes seamlessly.
type Syncer struct {
	store *jobstore.Store
	act   Actuator
	clock simclock.Clock
	opts  Options
	par   int // plan/commit pool width: min(GOMAXPROCS, maxSyncWorkers)

	// killed simulates a crash: once set, the syncer stops touching the
	// store and the actuator mid-flight, exactly as a dead process would.
	killed atomic.Bool

	mu    sync.Mutex
	stats Stats

	// Shard scope: the syncer examines only jobs whose store stripe
	// falls in [stripeLo, stripeHi). The full-fleet syncer spans every
	// stripe.
	stripeLo, stripeHi int

	// Round machinery. Rounds are serialized under roundMu; the scratch
	// buffers, the pre-bound worker closures, and the lazily created
	// worker pool are reused round over round so the converged steady
	// state allocates nothing.
	roundMu   sync.Mutex
	scratch   roundScratch
	wp        *workpool.Pool
	planFn    func(int)
	simpleFn  func(int)
	complexFn func(int)
}

// roundScratch holds every buffer RunRound reuses across rounds. Slices
// are length-reset and grow to a high-water mark. Nothing in here carries
// meaning between rounds — it exists so steady-state rounds are
// allocation-free — and nothing is pinned between them either: a round
// ends by clearing its plans, which hold the merged blob and config each
// commit published, and the simple and complex lists are positions in
// results, not copies of its plans. Ownership rule: a round may hand any
// of these slices to planJob/executePlan workers, but nothing outside the
// syncer ever sees them; scratch never flows out.
type roundScratch struct {
	candidates   []string // this round's candidates: DivergedRangeInto's destination
	now          time.Time
	results      []planned
	next         atomic.Int64  // the next candidate a planner takes
	differs      []wire.Differ // one per concurrent planner, reused across rounds
	simple       []int         // positions in results of this round's simple plans
	complexPlans []int         // and of its complex ones
	teardown     []string
	simpleErrs   []error
	complexErrs  []error
}

// release drops the round's plans, and the blobs and configs they
// reference, once the round is done.
func (sc *roundScratch) release() { clear(sc.results) }

// New returns a Syncer over store using act for complex-plan side effects.
func New(store *jobstore.Store, act Actuator, clock simclock.Clock, opts Options) *Syncer {
	return NewStriped(store, act, clock, opts, 0, jobstore.NumStripes)
}

// NewStriped returns a Syncer restricted to jobs whose store stripe falls
// in [lo, hi): the round engine of one State Syncer shard slice. It is
// the same machinery as a full-fleet Syncer — scratch buffers, worker
// pool, durable bookkeeping, candidate code — over the stripe range.
func NewStriped(store *jobstore.Store, act Actuator, clock simclock.Clock, opts Options, lo, hi int) *Syncer {
	if opts.Interval <= 0 {
		opts.Interval = 30 * time.Second
	}
	if act == nil {
		act = NopActuator{}
	}
	if lo < 0 {
		lo = 0
	}
	if hi > jobstore.NumStripes {
		hi = jobstore.NumStripes
	}
	s := &Syncer{
		store:    store,
		act:      act,
		clock:    clock,
		opts:     opts,
		par:      min(runtime.GOMAXPROCS(0), maxSyncWorkers),
		stripeLo: lo,
		stripeHi: hi,
	}
	// The worker closures are bound once, here, and read the per-round
	// inputs out of the scratch struct: handing the pool a fresh closure
	// every round would allocate in the steady state.
	s.planFn = func(k int) {
		sc := &s.scratch
		for {
			i := int(sc.next.Add(1) - 1)
			if i >= len(sc.candidates) {
				return
			}
			sc.results[i] = s.planJob(sc.candidates[i], sc.now, &sc.differs[k], false)
		}
	}
	s.simpleFn = func(i int) {
		sc := &s.scratch
		sc.simpleErrs[i] = s.executePlan(sc.results[sc.simple[i]].plan)
	}
	s.complexFn = func(i int) {
		sc := &s.scratch
		sc.complexErrs[i] = s.executePlan(sc.results[sc.complexPlans[i]].plan)
	}
	return s
}

// Kill simulates a syncer process crash, for restart testing and the
// chaos harness: every in-flight store write or actuator call is
// suppressed from this point on and later rounds do nothing. The Job
// Store — which models a durable external database — retains whatever
// the syncer had persisted; a new Syncer over the same store (or over a
// Restore of its Snapshot) picks up exactly where this one died.
func (s *Syncer) Kill() { s.killed.Store(true) }

// Killed reports whether Kill was called.
func (s *Syncer) Killed() bool { return s.killed.Load() }

func (s *Syncer) dead() bool { return s.killed.Load() }

// errKilled aborts plan execution after a simulated crash. It is never
// recorded as a job failure: a dead syncer does no accounting.
var errKilled = errors.New("statesyncer: syncer killed")

// Stats returns a copy of cumulative counters.
func (s *Syncer) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// BuildPlan computes the execution plan for one job given its merged
// expected configuration. It is exported for tests and for turbinectl's
// dry-run mode, and like every plan build it only reads the store.
// merged is treated as immutable from this point on: the syncer passes
// the store's shared cache, and a committed plan publishes that same
// blob and config into the running table without copying or decoding.
func (s *Syncer) BuildPlan(job string, merged jobstore.Merged, version int64) Plan {
	var dd wire.Differ
	return s.buildPlan(job, merged, version, &dd)
}

// buildPlan is BuildPlan diffing through dd. The plan's changes are
// views of the two blobs in dd's change buffer, valid until dd's next
// diff.
func (s *Syncer) buildPlan(job string, merged jobstore.Merged, version int64, dd *wire.Differ) Plan {
	// Version short-circuit: the running entry records which expected
	// version it realizes. If that hasn't moved, there is nothing to
	// diff — the common case for tens of thousands of converged jobs.
	running, rv, hasRunning := s.store.RunningDoc(job)
	if hasRunning && rv == version {
		return Plan{Job: job, Kind: PlanNoop}
	}
	var changes []wire.Change
	if hasRunning {
		var err error
		if changes, err = dd.Diff(running.Doc, merged.Doc); err != nil {
			return Plan{Job: job, Kind: PlanNoop, diffErr: fmt.Errorf("%s: diff: %w", job, err)}
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
		// New jobs and direct copies are simple synchronizations: the
		// commit itself is the whole plan, and the new settings propagate
		// to tasks through the Task Service (§IV). A copy with no changes
		// (an override that sets what the merge already holds, or one
		// written and reverted) is one too: its commit moves only the
		// running entry's version.
		return Plan{Job: job, Kind: PlanSimple, Changes: changes, commit: merged, commitVersion: version}
	}

	// Complex synchronization: multi-step, strictly ordered (§III-B).
	oldCount, _ := countsOf(running.Config)
	newCount, partitions := countsOf(merged.Config)
	actions := []Action{
		{
			Name: fmt.Sprintf("stop %d old tasks", oldCount),
			Run:  func() error { return s.act.StopJobTasks(job) },
		},
		{
			Name: fmt.Sprintf("redistribute checkpoints %d->%d tasks", oldCount, newCount),
			Run: func() error {
				return s.act.RedistributeCheckpoints(job, partitions, oldCount, newCount)
			},
		},
	}
	rollback := []Action{{
		Name: "roll back: resume job in its previous configuration",
		Run:  func() error { return s.act.ResumeJob(job) },
	}}
	return Plan{Job: job, Kind: PlanComplex, Changes: changes, Actions: actions,
		commit: merged, commitVersion: version, resume: true, rollback: rollback}
}

// countsOf reads a complex plan's task and partition counts from a typed
// config; a document that is no JobConfig counts 0 of each.
func countsOf(cfg *config.JobConfig) (tasks, partitions int) {
	if cfg == nil {
		return 0, 0
	}
	return cfg.TaskCount, cfg.Input.Partitions
}

// executePlan runs a plan's actions in order and commits on full success.
// A plan with a post-commit resume records it in the store BEFORE
// committing (write-ahead intent): a syncer that crashes after the
// commit but before the resume leaves a durable record its successor
// replays. Every step is guarded on the killed flag so a
// simulated crash stops the plan exactly where a dead process would.
func (s *Syncer) executePlan(p Plan) error {
	for _, a := range p.Actions {
		if s.dead() {
			return errKilled
		}
		if err := a.Run(); err != nil {
			for _, rb := range p.rollback {
				if s.dead() {
					return errKilled
				}
				_ = rb.Run() // best effort; the retry next round re-plans
			}
			return fmt.Errorf("%s: action %q: %w", p.Job, a.Name, err)
		}
	}
	if s.dead() {
		return errKilled
	}
	if p.resume {
		// Write-ahead intent: if the syncer dies right after the commit
		// lands, the restored syncer finds the record and resumes the job
		// instead of leaving it quiesced forever. If it dies right BEFORE
		// the commit, replaying "resume" un-quiesces the job in its
		// previous configuration — the rollback — and the job, still
		// diverged, is re-planned.
		s.setResumePending(p.Job, true)
	}
	if p.commit.Doc != nil {
		// The plan's merge came from MergedExpected and is immutable, so
		// the store keeps the blob and config themselves — no copy, no
		// decode.
		if err := s.store.CommitRunning(p.Job, p.commit, p.commitVersion); err != nil {
			if s.dead() {
				return errKilled
			}
			s.setResumePending(p.Job, false)
			for _, rb := range p.rollback {
				_ = rb.Run()
			}
			return fmt.Errorf("%s: commit: %w", p.Job, err)
		}
	}
	if p.resume {
		if s.dead() {
			return errKilled
		}
		// A failed resume stays recorded for a later round's replay.
		if err := s.act.ResumeJob(p.Job); err != nil {
			return fmt.Errorf("%s: post-commit action %q: %w", p.Job, "resume job (start new tasks)", err)
		}
		s.setResumePending(p.Job, false)
	}
	return nil
}

// setResumePending records (or clears) the job's pending post-commit
// resume. Suppressed after Kill, like every other store write from a
// dead syncer.
func (s *Syncer) setResumePending(job string, pending bool) {
	if s.dead() {
		return
	}
	s.store.UpdateSyncState(job, func(ss *jobstore.SyncState) {
		ss.FollowUps = nil
		if pending {
			ss.FollowUps = []string{followUpResume}
		}
	})
}

// RoundResult summarizes one synchronization round.
type RoundResult struct {
	Simple   int
	Complex  int
	Deleted  int
	Failed   []string
	Duration time.Duration
}

// planned is one candidate's outcome from the parallel plan-build phase.
type planned struct {
	plan     Plan
	examined bool
	// gone marks a candidate with neither expected nor running entry: a
	// stale failure record for a fully torn-down job.
	gone bool
	// backedOff marks a mid-streak candidate whose backoff deadline has
	// not passed: skipped entirely this round.
	backedOff bool
	// resume marks a candidate with a pending post-commit resume: the
	// round's merge replays it, then plans the job.
	resume bool
}

// planJob classifies one candidate job and builds its plan if divergent.
// It only reads, so it is safe to run on many jobs concurrently over
// the striped store. The prologue reads the job's whole classification
// state (versions, quarantine, backoff, a pending resume) in a single
// locked pass. It is the only classifier: a job
// outside the diverged set has its running entry realize its expected
// version and no sync record, which this answers with PlanNoop. A
// pending resume that passes the backoff and quarantine gates is
// reported for replay instead of planned, unless replayed says the
// round's merge already replayed it this round.
func (s *Syncer) planJob(job string, now time.Time, dd *wire.Differ, replayed bool) planned {
	v := s.store.PlanViewOf(job)
	if v.FailureStreak > 0 && now.Before(v.NextRetryAt) {
		return planned{plan: Plan{Job: job, Kind: PlanNoop}, backedOff: true}
	}
	if v.Resume && !v.Quarantined && !replayed {
		// Quarantine parks the resume until an oncall clears it.
		return planned{plan: Plan{Job: job, Kind: PlanNoop}, resume: true}
	}
	if !v.HasExpected {
		// Deleted job: tear down if tasks may still run. Quarantine does
		// not shield teardown (it never did in the full-scan design).
		if v.HasRunning {
			return planned{plan: Plan{Job: job, Kind: PlanDelete}}
		}
		return planned{plan: Plan{Job: job, Kind: PlanNoop}, gone: true}
	}
	if v.Quarantined {
		return planned{plan: Plan{Job: job, Kind: PlanNoop}}
	}
	// Cheap convergence check before merging the full layer stack.
	if v.Converged {
		return planned{plan: Plan{Job: job, Kind: PlanNoop}}
	}
	merged, version, err := s.store.MergedExpected(job)
	if err != nil {
		// Deleted between the version read and the merge: the job stays
		// diverged, so the next round tears it down.
		return planned{plan: Plan{Job: job, Kind: PlanNoop}}
	}
	plan := s.buildPlan(job, merged, version, dd)
	// The changes classified the plan. They live in the planner's Differ,
	// which its next job reuses, and nothing in a round reads them.
	plan.Changes = nil
	return planned{plan: plan, examined: true}
}

// RunRound performs one synchronization pass: read the candidates (the
// diverged set over the engine's stripes), build plans on a bounded
// worker pool, replay pending resumes, batch-apply the simple commits in
// parallel, execute complex plans (bounded parallelism), tear down
// deleted jobs, and update failure/quarantine accounting. All
// bookkeeping merges in sorted job order, so results are deterministic
// regardless of worker interleaving. Every buffer the round needs lives
// in the per-syncer scratch, so a converged steady-state round performs
// no allocation.
func (s *Syncer) RunRound() RoundResult {
	start := time.Now() // wall time: measures real sync cost, not sim time
	var res RoundResult
	if s.dead() {
		return res
	}
	s.roundMu.Lock()
	defer s.roundMu.Unlock()
	sc := &s.scratch
	defer sc.release()
	sc.now = s.clock.Now()

	// The candidates: the store's diverged set over this engine's stripes.
	// Any other job is converged with no sync record and would get
	// PlanNoop, so leaving it out changes no outcome.
	sc.candidates = s.store.DivergedRangeInto(s.stripeLo, s.stripeHi, sc.candidates[:0])
	candidates := sc.candidates

	// Build plans in parallel: each planner takes candidates off a shared
	// counter and diffs through its own Differ, whose scratch the churn
	// path reuses round over round. Planners write disjoint slots, and the
	// merge below walks them in sorted-job order.
	if cap(sc.results) < len(candidates) {
		sc.results = make([]planned, len(candidates))
	} else {
		sc.results = sc.results[:len(candidates)]
	}
	planners := 1
	if len(candidates) >= 32 {
		planners = min(s.par, len(candidates))
	}
	if len(sc.differs) < planners {
		sc.differs = make([]wire.Differ, planners)
	}
	sc.next.Store(0)
	s.forEach(planners, planners, 1, s.planFn)
	if s.dead() {
		return res
	}

	sc.simple = sc.simple[:0]
	sc.complexPlans = sc.complexPlans[:0]
	sc.teardown = sc.teardown[:0]
	examined := 0
	for i := range sc.results {
		r := &sc.results[i]
		job := candidates[i]
		if r.resume {
			// A pending resume — left by a failed post-commit step or a
			// crashed predecessor — replays before any plan executes, and
			// the job is planned as the replay left it (a new backoff or a
			// quarantine holds its plan back this round).
			s.replayResume(job, &res)
			if s.dead() {
				return res
			}
			*r = s.planJob(job, sc.now, &sc.differs[0], true)
		}
		if r.examined {
			examined++
		}
		if r.backedOff {
			continue // retried after the deadline passes
		}
		if r.gone {
			// Fully gone job: drop its durable record, or it would stay a
			// candidate forever.
			s.store.ClearSyncState(job)
			continue
		}
		switch r.plan.Kind {
		case PlanNoop:
			if r.plan.diffErr != nil {
				s.handlePlanError(job, r.plan.diffErr, &res)
			}
		case PlanSimple:
			sc.simple = append(sc.simple, i)
		case PlanComplex:
			sc.complexPlans = append(sc.complexPlans, i)
		case PlanDelete:
			sc.teardown = append(sc.teardown, job)
		}
	}
	s.mu.Lock()
	s.stats.JobsExamined += examined
	s.mu.Unlock()

	// Batch the simple synchronizations: direct copies, no actions. Tens
	// of thousands of jobs complete in one pass within seconds (§III-B).
	// The commits are independent per-job striped writes, so large
	// batches fan out across the worker pool.
	if len(sc.simple) > 0 {
		if cap(sc.simpleErrs) < len(sc.simple) {
			sc.simpleErrs = make([]error, len(sc.simple))
		} else {
			sc.simpleErrs = sc.simpleErrs[:len(sc.simple)]
		}
		s.forEach(len(sc.simple), s.par, 256, s.simpleFn)
		for i := range sc.simple {
			job := candidates[sc.simple[i]]
			if sc.simpleErrs[i] != nil {
				s.handlePlanError(job, sc.simpleErrs[i], &res)
				continue
			}
			s.recordSuccess(job)
			res.Simple++
		}
	}

	// Parallelize the complex synchronizations, bounded: each worker runs
	// one plan at a time, so at most maxParallelComplex are in flight.
	if len(sc.complexPlans) > 0 {
		if cap(sc.complexErrs) < len(sc.complexPlans) {
			sc.complexErrs = make([]error, len(sc.complexPlans))
		} else {
			sc.complexErrs = sc.complexErrs[:len(sc.complexPlans)]
		}
		s.forEach(len(sc.complexPlans), maxParallelComplex, 2, s.complexFn)
		for i := range sc.complexPlans {
			job := candidates[sc.complexPlans[i]]
			if sc.complexErrs[i] != nil {
				s.handlePlanError(job, sc.complexErrs[i], &res)
				continue
			}
			s.recordSuccess(job)
			res.Complex++
		}
	}

	// Tear down jobs whose expected entry is gone: stop tasks, then drop
	// the running entry. Errors retry (under backoff) like any failed
	// plan: the job stays diverged and the streak is durable.
	for _, job := range sc.teardown {
		if s.dead() {
			break
		}
		if err := s.act.StopJobTasks(job); err != nil {
			s.recordFailure(job, err, &res)
			continue
		}
		if s.dead() {
			break
		}
		s.store.DropRunning(job)
		_ = s.act.ResumeJob(job)    // clear any hold; no specs remain anyway
		s.store.ClearSyncState(job) // teardown resolved any failure streak
		s.mu.Lock()
		s.stats.Deletes++
		s.mu.Unlock()
		res.Deleted++
	}

	if s.dead() {
		return res
	}
	s.mu.Lock()
	s.stats.Rounds++
	s.stats.SweepJobs += len(candidates)
	s.stats.SimpleSyncs += res.Simple
	s.stats.ComplexSyncs += res.Complex
	s.mu.Unlock()

	res.Duration = time.Since(start)
	return res
}

// replayResume replays the job's pending post-commit resume — this
// syncer's or a crashed predecessor's. planJob's gates already held back
// a job in backoff or quarantine. Success clears the job's whole sync
// record, resolving its failure streak; a failure keeps the record and
// counts against the streak. Keys other than "resume" are ignored.
func (s *Syncer) replayResume(job string, res *RoundResult) {
	ss, _ := s.store.SyncStateOf(job)
	var err error
	if !s.dead() && slices.Contains(ss.FollowUps, followUpResume) {
		err = s.act.ResumeJob(job)
	}
	if s.dead() {
		return
	}
	if err != nil {
		s.recordFailure(job, err, res)
		return
	}
	s.store.ClearSyncState(job)
}

// forEach runs fn(i) for every i in [0, n) on up to par workers.
// Workloads below minParallel run inline: fan-out only pays for itself
// on large batches or slow (actuator-bound) items. Larger ones run on
// the syncer's persistent worker pool, created on first use and parked
// between batches — dispatching a batch allocates nothing.
func (s *Syncer) forEach(n, par, minParallel int, fn func(int)) {
	if par > n {
		par = n
	}
	if par <= 1 || n < minParallel {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if s.wp == nil {
		s.wp = workpool.New(max(s.par, maxParallelComplex) - 1)
	}
	s.wp.Run(n, par, fn)
}

// handlePlanError routes a plan failure. A failed post-commit resume is
// already durably pending from executePlan's write-ahead record; a killed
// plan did no work and records nothing.
func (s *Syncer) handlePlanError(job string, err error, res *RoundResult) {
	if errors.Is(err, errKilled) {
		return
	}
	s.recordFailure(job, err, res)
}

// recordSuccess resolves a job's failure streak.
func (s *Syncer) recordSuccess(job string) {
	if s.dead() {
		return
	}
	s.store.ResolveFailureStreak(job)
	s.mu.Lock()
	s.stats.JobsConverged++
	s.mu.Unlock()
}

// recordFailure bumps the job's durable failure streak, stamps its next
// backoff deadline, and quarantines it at the threshold. A failed job
// stays a candidate: its streak is durable sync state.
func (s *Syncer) recordFailure(job string, err error, res *RoundResult) {
	if s.dead() {
		return
	}
	now := s.clock.Now()
	var n int
	s.store.UpdateSyncState(job, func(ss *jobstore.SyncState) {
		ss.FailureStreak++
		n = ss.FailureStreak
		// The first failure retries next round; the Nth (N >= 2) waits
		// Interval·2^(N-2), less per-job jitter.
		ss.NextRetryAt = time.Time{}
		if n > 1 {
			ss.NextRetryAt = now.Add(backoff.Delay(s.opts.Interval, s.opts.Interval<<maxRetryDoublings, n-2, job, uint64(n)))
		}
	})
	quarantine := n >= quarantineAfter
	s.mu.Lock()
	s.stats.Failures++
	if quarantine {
		s.stats.Quarantines++
	}
	onAlert := s.opts.OnAlert
	s.mu.Unlock()

	res.Failed = append(res.Failed, job)
	if quarantine {
		// The streak is resolved by the quarantine itself (mirroring the
		// old in-memory map deletion); a pending resume stays parked so
		// clearing the quarantine can finish it rather than leak it.
		s.store.UpdateSyncState(job, func(ss *jobstore.SyncState) {
			ss.FailureStreak = 0
			ss.NextRetryAt = time.Time{}
		})
		reason := fmt.Sprintf("quarantined after %d consecutive sync failures; last: %v", n, err)
		s.store.SetQuarantine(job, reason)
		if onAlert != nil {
			onAlert(Alert{Job: job, Reason: reason, At: s.clock.Now()})
		}
	}
}

// FailureCount returns the job's current consecutive-failure streak, as
// recorded durably in the Job Store.
func (s *Syncer) FailureCount(job string) int {
	ss, _ := s.store.SyncStateOf(job)
	return ss.FailureStreak
}
