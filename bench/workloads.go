package main

import (
	"fmt"
	"math/rand"
	"time"
)

// Load shape, all workloads: closed loop, one driver goroutine, one TCP
// feed connection. Turbine is a periodic reconciler, so load is "changed
// jobs per round", not requests per second. An op (tick, wave, failover
// cycle, simulated hour) starts only after the previous one was verified.

// result is what one measured run yields.
type result struct {
	ops       []opRec
	units     int
	attempted int
	failed    int
	problems  []string
	layer     map[string]float64 // per-layer metrics, by BENCHMARK.json name
}

// opRec is one timed op: its actuation wall time, what it cost, and how
// many units of work (jobs, tasks, job-hours) were verified after it.
type opRec struct {
	ms, cpuMs, mallocs float64
	units              int
	traced             bool
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) record(traced bool, wall, cpu time.Duration, mallocs uint64, units int) {
	r.units += units
	r.ops = append(r.ops, opRec{
		ms: float64(wall) / 1e6, cpuMs: float64(cpu) / 1e6, mallocs: float64(mallocs),
		units: units, traced: traced,
	})
}

// opMs returns the raw actuation time of the ops that recorded spans and
// of those that did not.
func (r *result) opMs() (traced, plain []float64) {
	for _, o := range r.ops {
		if o.traced {
			traced = append(traced, o.ms)
		} else {
			plain = append(plain, o.ms)
		}
	}
	return traced, plain
}

// overheadPct is how much slower the traced ops' median is than the
// untraced ops' of the same run.
func (r *result) overheadPct() float64 {
	traced, plain := r.opMs()
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return (median(traced)/median(plain) - 1) * 100
}

// runner is what a workload gives the driver loop in main.go.
type runner interface {
	// op runs one operation. Warm-up ops are neither timed nor counted;
	// traced ops record spans.
	op(warmup, traced bool)
	// begin marks the end of the warm-up ops: the per-layer counts cover
	// the ops from here on.
	begin()
	// finish runs the end-of-run audit and fills in the per-layer metrics.
	finish() *result
}

// --- steady_churn and release_push -----------------------------------

// churnRun drives ticks of expected-config commits through the whole
// actuation path: commit → syncer round → feed sync → index → every
// manager's Refresh → verify.
type churnRun struct {
	f     *fleet
	rng   *rand.Rand
	res   *result
	meter *meter
	batch func(r *churnRun) []commitOp

	seq       int   // commit sequence number, for package versions
	wave      int   // ticks / waves planned so far
	perm      []int // seeded permutation of the jobs
	stopped   []int // jobs the churn has stopped, oldest first
	opsBuf    []commitOp
	refreshMx []float64
	refreshSm []float64
	converged []float64
}

func newChurnRun(f *fleet, seed int64, batch func(r *churnRun) []commitOp) *churnRun {
	return &churnRun{
		f: f, rng: rand.New(rand.NewSource(seed)), res: &result{}, meter: newMeter(), batch: batch,
		perm: rand.New(rand.NewSource(seed)).Perm(f.size.Jobs),
	}
}

// churnBatch is everyday traffic: 0.25 % of the fleet per tick, jobs
// drawn by the seed, nine simple syncs (package and resource bumps) to
// one complex (parallelism ±1 on even ticks, the stop bit on odd ones).
// Every tick has the same mix, so ticks are comparable; a short queue of
// stopped jobs is restarted oldest-first, so the fleet does not shrink
// as the run goes on.
func churnBatch(r *churnRun) []commitOp {
	const maxStopped = 4
	f := r.f
	n := max(4, f.size.Jobs/400)
	complex := max(1, n/10)
	ops := r.opsBuf[:0]
	for i := 0; i < n; i++ {
		// A partial Fisher–Yates step over the persistent permutation
		// draws n distinct jobs per tick.
		k := i + r.rng.Intn(len(r.perm)-i)
		r.perm[i], r.perm[k] = r.perm[k], r.perm[i]
		j := r.perm[i]
		r.seq++
		kind := changePackage
		switch {
		case i < complex && r.wave%2 == 0:
			kind = changeTaskCount
		case i < complex && len(r.stopped) >= maxStopped:
			j, r.stopped = r.stopped[0], r.stopped[1:]
			kind = changeStopped
		case i < complex && !f.want[j].stopped:
			r.stopped = append(r.stopped, j)
			kind = changeStopped
		case i%2 == 0:
			kind = changeResources
		}
		ops = append(ops, f.plan(j, kind, r.seq))
	}
	r.wave++
	r.opsBuf = ops
	return ops
}

// releaseBatch is a fleet-wide package release pushed in waves of a
// tenth of the fleet, in an order drawn by the seed: all simple syncs,
// every job once per release.
func releaseBatch(r *churnRun) []commitOp {
	const wavesPerRelease = 10
	n := r.f.size.Jobs / wavesPerRelease
	lo := (r.wave % wavesPerRelease) * n
	release := 2 + r.wave/wavesPerRelease
	r.wave++
	ops := r.opsBuf[:0]
	for _, j := range r.perm[lo : lo+n] {
		ops = append(ops, r.f.plan(j, changePackage, release))
	}
	r.opsBuf = ops
	return ops
}

// actuate runs the stages a commit passes through once it is written:
// syncer round, feed sync, index build, every manager's Refresh.
func actuate(f *fleet) (feedErr error, roundMs, refreshSumMs, refreshMaxMs float64) {
	tr := f.tr
	end := tr.beginStage("statesyncer.round")
	start := time.Now()
	f.syncRound()
	roundMs = float64(time.Since(start)) / 1e6
	end()
	end = tr.beginStage("taskservice.apply")
	feedErr = f.feedSync()
	end()
	end = tr.beginStage("taskservice.index")
	f.buildIndex()
	end()
	end = tr.beginStage("taskmanager.refresh")
	refreshSumMs, refreshMaxMs = f.refreshAll()
	end()
	return feedErr, roundMs, refreshSumMs, refreshMaxMs
}

// endWarmup checks the feed stayed healthy through the warm-up ops and
// restarts the fleet's counters.
func endWarmup(f *fleet, res *result) {
	if n := f.feedFailures(); n > 0 {
		res.fail("%d feed errors or resyncs during warm-up", n)
	}
	f.markBaseline()
}

// finishFleet runs the end-of-run audit and fills in the fleet's
// per-layer counters and the per-op median self time of every span name
// the fleet workloads record. It returns the self times by name.
func finishFleet(f *fleet, res *result) map[string][]float64 {
	res.attempted++
	for _, p := range f.audit() {
		res.fail("final audit: %s", p)
	}
	if n := f.feedFailures(); n > 0 {
		res.fail("%d feed errors or resyncs during the run", n)
	}
	if f.roundsFailed > 0 {
		res.fail("%d jobs failed in syncer rounds", f.roundsFailed)
	}
	res.layer = f.counters()
	self := f.tr.selfTimes()
	for _, name := range []string{"jobservice.commit", "statesyncer.round", "statesyncer.actuator",
		"wire.poll", "taskservice.apply", "taskservice.index", "taskmanager.refresh", "taskmanager.stopjob",
		"taskmanager.addshard", "taskmanager.dropshard", "shardmanager.failover", "shardmanager.rebalance",
		"shardmanager.load_report"} {
		res.layer[name+"_ms"] = median(self[name])
	}
	res.layer["trace.overhead_pct"] = res.overheadPct()
	return self
}

func (r *churnRun) op(warmup, traced bool) {
	f, tr, res := r.f, r.f.tr, r.res
	ops := r.batch(r)
	f.advanceClock()

	tr.beginOp(traced)
	r.meter.start()
	root := tr.beginStage("tick")
	end := tr.beginStage("jobservice.commit")
	applied := ops[:0:0]
	for _, op := range ops {
		if err := f.apply(op); err != nil {
			res.fail("commit %s: %v", f.names[op.job], err)
			continue
		}
		applied = append(applied, op)
	}
	end()
	feedErr, _, sumMs, maxMs := actuate(f)
	root()
	d, cpu, mallocs := r.meter.stop()
	tr.beginOp(false)

	// Correctness gate (untimed).
	verified := 0
	if feedErr != nil {
		res.fail("feed sync: %v", feedErr)
	}
	for _, op := range applied {
		if err := f.verifyJob(op.job); err != nil {
			res.fail("%v", err)
			continue
		}
		verified++
	}
	for _, p := range f.verifyFleet() {
		res.fail("%s", p)
	}

	// A converged round right after: what a round costs when nothing changed.
	start := time.Now()
	f.syncRound()
	conv := float64(time.Since(start)) / 1e6
	if err := f.feedSync(); err != nil {
		res.fail("converged feed sync: %v", err)
	}

	if warmup {
		return
	}
	res.attempted += len(ops) + len(applied) + 2
	res.record(traced, d, cpu, mallocs, verified)
	r.refreshSm = append(r.refreshSm, sumMs)
	r.refreshMx = append(r.refreshMx, maxMs)
	r.converged = append(r.converged, conv)
}

func (r *churnRun) begin() { endWarmup(r.f, r.res) }

func (r *churnRun) finish() *result {
	f, res := r.f, r.res
	self := finishFleet(f, res)
	res.layer["trace.unattributed_ms"] = median(self["tick"])
	res.layer["statesyncer.converged_round_ms"] = median(r.converged)
	res.layer["taskmanager.refresh_ms_max"] = median(r.refreshMx)
	if changed := res.layer["taskmanager.started"] + res.layer["taskmanager.stopped"]; changed > 0 {
		res.layer["taskmanager.refresh_us_per_changed_task"] = sum(r.refreshSm) * 1000 / changed
	}
	if traced, _ := res.opMs(); res.units > 0 && len(traced) > 0 {
		// Spans cover the traced ops only; scale to the units of all ops.
		tracedShare := float64(len(traced)) / float64(len(res.ops))
		res.layer["jobservice.commit_us_per_job"] = sum(self["jobservice.commit"]) * 1000 / (float64(res.units) * tracedShare)
		res.layer["wire.bytes_per_job"] = res.layer["wire.bytes"] / float64(res.units)
	}
	return res
}

// --- failover_storm --------------------------------------------------

// stormRun kills one container per cycle on a converged fleet with no
// config commits: reconciliation is driven by AddShard / DropShard, not
// by snapshot versions.
type stormRun struct {
	f     *fleet
	rng   *rand.Rand
	res   *result
	meter *meter

	rebalanceMs, loadReportMs, converged []float64
}

func newStormRun(f *fleet, seed int64) *stormRun {
	return &stormRun{f: f, rng: rand.New(rand.NewSource(seed)), res: &result{}, meter: newMeter()}
}

func (r *stormRun) op(warmup, traced bool) {
	f, tr, res := r.f, r.f.tr, r.res
	victim := r.rng.Intn(f.size.Containers)
	f.advanceClock()

	lost, err := f.markDead(victim)
	if err != nil {
		res.fail("kill container %d: %v", victim, err)
		return
	}
	tr.beginOp(traced)
	r.meter.start()
	root := tr.beginStage("failover")
	end := tr.beginStage("shardmanager.failover")
	f.failover(victim)
	end()
	root()
	d, cpu, mallocs := r.meter.stop()

	failed := res.failed
	for _, p := range f.verifyFleet() {
		res.fail("after failover: %s", p)
	}
	if n := f.tms[victim].tm.TaskCount(); n != 0 {
		res.fail("dead container still reports %d tasks", n)
	}
	recovered := 0
	if res.failed == failed {
		recovered = lost
	}

	if err := f.restoreContainer(victim); err != nil {
		res.fail("restore container %d: %v", victim, err)
	}
	end = tr.beginStage("shardmanager.load_report")
	start := time.Now()
	f.reportLoads()
	loadMs := float64(time.Since(start)) / 1e6
	end()
	end = tr.beginStage("shardmanager.rebalance")
	start = time.Now()
	moves := f.rebalance()
	rebMs := float64(time.Since(start)) / 1e6
	end()
	for _, p := range f.verifyFleet() {
		res.fail("after rebalance: %s", p)
	}
	if moves == 0 {
		res.fail("rebalance moved nothing back to the restored container")
	}

	// The job-management half of the control plane does a converged no-op tick.
	feedErr, conv, _, _ := actuate(f)
	if feedErr != nil {
		res.fail("converged feed sync: %v", feedErr)
	}
	tr.beginOp(false)

	if warmup {
		return
	}
	res.attempted += 4
	res.record(traced, d, cpu, mallocs, recovered)
	r.rebalanceMs = append(r.rebalanceMs, rebMs)
	r.loadReportMs = append(r.loadReportMs, loadMs)
	r.converged = append(r.converged, conv)
}

func (r *stormRun) begin() { endWarmup(r.f, r.res) }

func (r *stormRun) finish() *result {
	res := r.res
	self := finishFleet(r.f, res)
	res.layer["shardmanager.load_report_ms"] = median(r.loadReportMs)
	res.layer["trace.unattributed_ms"] = median(self["failover"])
	res.layer["statesyncer.converged_round_ms"] = median(r.converged)
	res.layer["storm.rebalance_ms_p50"] = median(r.rebalanceMs)
	return res
}
