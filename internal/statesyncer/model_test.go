package statesyncer

import (
	"crypto/md5"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/config"
	"repro/internal/jobservice"
	"repro/internal/jobstore"
	"repro/internal/simclock"
	"repro/internal/taskservice"
	"repro/internal/wire"
)

// The State Syncer's executable spec: the control plane of §III-B as one
// sequential program with no caches, stripes, pools or journals, driven
// by the same seeded trace as the real Job Service, Job Store, Syncer and
// Task Service. After every round the two must agree on every job's
// entries, quarantine and sync record, on the diverged set, on the Task
// Service's index, on the round's result and on the Stats. The model
// merges the four layers with its own Algorithm 1 (layered) and compares
// and reads documents with its own sameJSON and at, never the store's
// blob code; it commits a plan's config only after its actions succeed,
// splits plans on complexPaths, retries under backoff.Delay up to
// quarantineAfter failures, starts a namesake re-created before its
// predecessor's teardown above the running version, leaves nothing of a
// torn-down job, and lists each task of each running, un-quiesced job at
// the shard the MD5 of its ID picks.

// modelJob is everything the model knows of one job name.
type modelJob struct {
	exp        bool // an expected entry exists
	layers     [4]config.Doc
	version    int64
	run        config.Doc // the running config; nil when there is no running entry
	runVer     int64
	quarantine string // the reason; empty when not quarantined
	streak     int
	retryAt    time.Time
	resume     bool // a committed plan's resume is pending
}

func (j *modelJob) merged() config.Doc {
	out := config.Doc{}
	for _, l := range j.layers {
		if l != nil {
			out = layered(out, l)
		}
	}
	return out
}

// layered is paper Algorithm 1 on two documents: top's keys override
// bottom's, and where both hold an object the merge recurses. Every map
// it writes is a fresh one, so neither input changes.
func layered(bottom, top config.Doc) config.Doc {
	out := maps.Clone(bottom)
	if out == nil {
		out = config.Doc{}
	}
	for k, v := range top {
		b, bObj := out[k].(config.Doc)
		t, tObj := v.(config.Doc)
		if bObj && tObj {
			v = layered(b, t)
		}
		out[k] = v
	}
	return out
}

// sameJSON reports whether a and b are equal as JSON values: numbers by
// value, read through float64 as encoding/json reads them.
func sameJSON(a, b any) bool { return canonical(a) == canonical(b) }

func canonical(v any) string {
	var back any
	_ = json.Unmarshal([]byte(docJSON(v)), &back) // docJSON writes JSON
	return docJSON(back)
}

// at reads the value at a dotted path, nil where there is none.
func at(d config.Doc, path string) any {
	var v any = d
	for _, k := range strings.Split(path, ".") {
		obj, ok := v.(config.Doc)
		if !ok {
			return nil
		}
		v = obj[k]
	}
	return v
}

func (j *modelJob) converged() bool {
	return j.streak == 0 && !j.resume && (j.exp && j.run != nil && j.runVer == j.version || !j.exp && j.run == nil)
}

func (j *modelJob) backedOff(now time.Time) bool { return j.streak > 0 && now.Before(j.retryAt) }

// String renders the job's entries, quarantine and sync record.
func (j *modelJob) String() string {
	return fmt.Sprintf("expected %v v%d %s, running v%d %s, quarantine %q, streak %d, retry at %s, resume %v",
		j.exp, j.version, docJSON(j.layers), j.runVer, docJSON(j.run), j.quarantine, j.streak, j.retryAt.Format(time.RFC3339Nano), j.resume)
}

func docJSON(v any) string {
	b, _ := json.Marshal(v) // maps marshal with sorted keys, and 4 and 4.0 alike
	return string(b)
}

// observe reads the real stack's state of one job in the model's terms.
func observe(store *jobstore.Store, name string) *modelJob {
	var j modelJob
	if e, err := store.GetExpected(name); err == nil {
		j.exp, j.version = true, e.Version
		for i, l := range e.Layers {
			j.layers[i], _ = l.Doc()
		}
	}
	if r, ok := store.GetRunningShared(name); ok {
		_, j.runVer, _ = store.RunningDoc(name)
		j.run = r.Config
	}
	q, _ := store.Quarantined(name)
	ss, _ := store.SyncStateOf(name)
	j.quarantine, j.streak, j.retryAt = q.Reason, ss.FailureStreak, ss.NextRetryAt
	j.resume = slices.Equal(ss.FollowUps, []string{followUpResume})
	return &j
}

type model struct {
	jobs  map[string]*modelJob
	act   *flakyActuator // the real syncer's actuator's twin
	stats Stats
}

// names lists the jobs, sorted; if diverged, only those not converged.
func (m *model) names(diverged bool) []string {
	var out []string
	for name, j := range m.jobs {
		if !diverged || !j.converged() {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// apply performs one op and reports whether the Job Service accepts it.
func (m *model) apply(o op) bool {
	if m.jobs[o.job] == nil {
		m.jobs[o.job] = &modelJob{}
	}
	j := m.jobs[o.job]
	switch {
	case o.kind == "provision":
		if j.exp {
			return false
		}
		base, _ := wire.JobConfigBlob(traceConfig(o)).Doc()
		// One above a running version left by a namesake; 1 if there is none.
		j.exp, j.layers, j.version, j.quarantine = true, [4]config.Doc{base}, j.runVer+1, ""
	case o.kind == "clearq":
		if j.quarantine == "" {
			return false
		}
		j.quarantine = ""
	case !j.exp:
		return false
	case o.kind == "delete":
		j.exp, j.layers, j.version, j.quarantine = false, [4]config.Doc{}, 0, ""
	default:
		d := layered(config.Doc{}, j.layers[o.layer]) // a copy
		if o.kind == "clear" {
			d = config.Doc{}
		}
		switch o.kind {
		case "bump":
			d = layered(d, config.Doc{"package": config.Doc{"version": fmt.Sprintf("v%d", o.n)}})
		case "scale":
			d["taskCount"] = o.n
		}
		j.layers[o.layer] = d
		j.version++
	}
	return true
}

func (m *model) fail(name string, err error, now time.Time, res *RoundResult) {
	j := m.jobs[name]
	j.streak++
	j.retryAt = time.Time{}
	if j.streak > 1 {
		const interval = 30 * time.Second
		j.retryAt = now.Add(backoff.Delay(interval, interval<<maxRetryDoublings, j.streak-2, name, uint64(j.streak)))
	}
	m.stats.Failures++
	res.Failed = append(res.Failed, name)
	if j.streak >= quarantineAfter {
		m.stats.Quarantines++
		j.quarantine = fmt.Sprintf("quarantined after %d consecutive sync failures; last: %v", j.streak, err)
		j.streak, j.retryAt = 0, time.Time{}
	}
}

func (m *model) succeed(j *modelJob, count *int) {
	j.streak, j.retryAt = 0, time.Time{}
	m.stats.JobsConverged++
	*count++
}

// complexChange reports whether a and b differ at any of complexPaths.
func complexChange(a, b config.Doc) bool {
	for _, p := range complexPaths {
		if !sameJSON(at(a, p), at(b, p)) {
			return true
		}
	}
	return false
}

// counts reads a complex plan's task and partition counts from a
// document; one that is no JobConfig counts 0 of each.
func counts(d config.Doc) (tasks, partitions int) {
	cfg, err := config.JobConfigFromDoc(d)
	if err != nil {
		return 0, 0
	}
	return cfg.TaskCount, cfg.Input.Partitions
}

// round is one State Syncer round at now.
func (m *model) round(now time.Time) RoundResult {
	var res RoundResult
	var simple, complexJobs, teardown []string
	candidates := m.names(true)
	for _, name := range candidates {
		j := m.jobs[name]
		// A pending resume replays first unless quarantine or backoff parks it.
		if j.resume && j.quarantine == "" && !j.backedOff(now) {
			if err := m.act.ResumeJob(name); err != nil {
				m.fail(name, err, now, &res)
			} else {
				j.streak, j.retryAt, j.resume = 0, time.Time{}, false
			}
		}
		switch {
		case j.backedOff(now): // retried once the deadline passes
		case !j.exp && j.run != nil:
			teardown = append(teardown, name)
		case !j.exp: // gone: drop the stale record
			j.streak, j.retryAt, j.resume = 0, time.Time{}, false
		case j.quarantine != "" || j.run != nil && j.runVer == j.version: // parked, or only the record diverged
		case j.run != nil && complexChange(j.run, j.merged()):
			m.stats.JobsExamined++
			complexJobs = append(complexJobs, name)
		default:
			m.stats.JobsExamined++
			simple = append(simple, name)
		}
	}
	for _, name := range simple {
		j := m.jobs[name]
		j.run, j.runVer = j.merged(), j.version
		m.succeed(j, &res.Simple)
	}
	for _, name := range complexJobs {
		j := m.jobs[name]
		merged := j.merged()
		oldN, _ := counts(j.run)
		newN, partitions := counts(merged)
		step, err := fmt.Sprintf("stop %d old tasks", oldN), m.act.StopJobTasks(name)
		if err == nil {
			step = fmt.Sprintf("redistribute checkpoints %d->%d tasks", oldN, newN)
			err = m.act.RedistributeCheckpoints(name, partitions, oldN, newN)
		}
		if err != nil {
			_ = m.act.ResumeJob(name) // roll back: the old tasks run on
			m.fail(name, fmt.Errorf("%s: action %q: %w", name, step, err), now, &res)
			continue
		}
		j.run, j.runVer, j.resume = merged, j.version, true
		if err := m.act.ResumeJob(name); err != nil {
			m.fail(name, fmt.Errorf("%s: post-commit action %q: %w", name, "resume job (start new tasks)", err), now, &res)
			continue
		}
		j.resume = false
		m.succeed(j, &res.Complex)
	}
	for _, name := range teardown {
		if err := m.act.StopJobTasks(name); err != nil {
			m.fail(name, err, now, &res)
			continue
		}
		_ = m.act.ResumeJob(name)
		*m.jobs[name] = modelJob{}
		m.stats.Deletes++
		res.Deleted++
	}
	m.stats.Rounds++
	m.stats.SweepJobs += len(candidates)
	m.stats.SimpleSyncs += res.Simple
	m.stats.ComplexSyncs += res.Complex
	return res
}

const modelShards = 64

// tasks is the job's part of the Task Service index, one "ID shard
// package" per task.
func (m *model) tasks(name string) []string {
	var out []string
	if j := m.jobs[name]; j.run != nil && !m.act.quiesced[name] {
		pkg := at(j.run, "package.version")
		n, _ := counts(j.run)
		for i := range n {
			id := fmt.Sprintf("%s#%d", name, i)
			sum := md5.Sum([]byte(id))
			out = append(out, fmt.Sprintf("%s %d %v", id, binary.BigEndian.Uint64(sum[:8])%modelShards, pkg))
		}
	}
	slices.Sort(out)
	return out
}

// roundString renders a round's result and the Stats after it.
func roundString(r RoundResult, st Stats) string {
	r.Duration = 0
	slices.Sort(r.Failed)
	return fmt.Sprintf("%+v, %+v", r, st)
}

// runModel drives one trace through the model and the real stack, and
// at the first disagreement fails with the label, the round and the ops
// applied since the last compare.
func runModel(t *testing.T, label string, trace []traceRound) {
	clk := simclock.NewSim(epoch)
	store := jobstore.New()
	svc := jobservice.New(store)
	ts := taskservice.New(store, clk, 0, modelShards)
	act := newFlaky()
	act.ts = ts
	syncer := New(store, act, clk, Options{})
	m := &model{jobs: map[string]*modelJob{}, act: newFlaky()}
	for r, tr := range trace {
		var bad []string
		for _, o := range tr.ops {
			if err := applyOp(svc, o); m.apply(o) != (err == nil) {
				bad = append(bad, fmt.Sprintf("%+v: real error %v, model disagrees", o, err))
			}
		}
		clk.RunFor(tr.step)
		res := syncer.RunRound()
		if got, want := roundString(res, syncer.Stats()), roundString(m.round(clk.Now()), m.stats); got != want {
			bad = append(bad, fmt.Sprintf("round:\n  real  %s\n  model %s", got, want))
		}
		if got, want := store.DivergedRangeInto(0, jobstore.NumStripes, nil), m.names(true); !slices.Equal(got, want) {
			bad = append(bad, fmt.Sprintf("diverged set: real %v, model %v", got, want))
		}
		ts.Invalidate()
		tasks := map[string][]string{}
		ts.Index().Each(func(is taskservice.IndexedSpec) {
			tasks[is.Spec.Job] = append(tasks[is.Spec.Job], fmt.Sprintf("%s %d %s", is.ID, is.Shard, is.Spec.PackageVersion))
		})
		for _, name := range m.names(false) {
			slices.Sort(tasks[name])
			got := fmt.Sprintf("%s, tasks %v", observe(store, name), tasks[name])
			if want := fmt.Sprintf("%s, tasks %v", m.jobs[name], m.tasks(name)); got != want {
				bad = append(bad, fmt.Sprintf("job %s:\n  real  %s\n  model %s", name, got, want))
			}
		}
		if len(bad) > 0 {
			t.Fatalf("%s, round %d, ops since the last compare %+v:\n%s", label, r, tr.ops, strings.Join(bad, "\n"))
		}
	}
}

// TestModel runs seeded traces (replay one with -run 'TestModel/seed=N')
// and two fixed ones, each pinning a namesake defect the model found.
func TestModel(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runModel(t, fmt.Sprintf("seed %d", seed), genScript(seed, 40))
		})
	}
	provision := func(job string, n int) op { return op{kind: "provision", job: job, n: n} }
	del := func(job string) op { return op{kind: "delete", job: job} }
	fixed := []struct {
		name   string
		rounds [][]op // each after a step past the longest backoff
	}{
		// Re-created before its teardown, j restarted at version 1, which
		// its predecessor's running entry realizes: it looked converged and
		// ran the old config forever.
		{"recreate-before-teardown", [][]op{{provision("j", 4)}, {del("j"), provision("j", 8)}, nil, nil, nil}},
		// x's teardown fails ten times and quarantines it twice. The
		// quarantine outlived the dropped running entry, and the namesake
		// was born quarantined and never ran.
		{"quarantined-teardown", append([][]op{{provision("x", 4)}, {del("x")}},
			append(make([][]op, 10), []op{provision("x", 2)}, nil)...)},
	}
	for _, c := range fixed {
		trace := make([]traceRound, len(c.rounds))
		for i, ops := range c.rounds {
			trace[i] = traceRound{ops: ops, step: pastLongestBackoff}
		}
		t.Run(c.name, func(t *testing.T) { runModel(t, c.name, trace) })
	}
}
