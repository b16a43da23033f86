package chaos

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/jobservice"
	"repro/internal/jobstore"
	"repro/internal/simclock"
	"repro/internal/statesyncer"
)

// countingActuator counts every probe the syncer makes, including ones
// the injector fails, and keeps the time of each stop probe per job.
type countingActuator struct {
	inner  statesyncer.Actuator
	clock  simclock.Clock
	probes atomic.Int64

	mu      sync.Mutex // complex plans run in parallel
	stopsAt map[string][]time.Time
}

func (c *countingActuator) StopJobTasks(job string) error {
	c.probes.Add(1)
	c.mu.Lock()
	c.stopsAt[job] = append(c.stopsAt[job], c.clock.Now())
	c.mu.Unlock()
	return c.inner.StopJobTasks(job)
}

func (c *countingActuator) RedistributeCheckpoints(job string, partitions, oldCount, newCount int) error {
	c.probes.Add(1)
	return c.inner.RedistributeCheckpoints(job, partitions, oldCount, newCount)
}

func (c *countingActuator) ResumeJob(job string) error {
	c.probes.Add(1)
	return c.inner.ResumeJob(job)
}

type convergenceResult struct {
	rounds  int
	simTime time.Duration
	probes  int64
	faults  int
}

// convergenceWorld is a Job Store with jobs provisioned jobs that all
// need a complex plan (task-count change), a syncer engine the test
// drives round by round, and an actuator that fails by the given rules.
type convergenceWorld struct {
	clk    *simclock.Sim
	store  *jobstore.Store
	syncer *statesyncer.Syncer
	act    *countingActuator
	inj    *faultinject.Injector
	jobs   int
}

const syncInterval = 30 * time.Second

func newConvergenceWorld(t *testing.T, seed uint64, jobs int, rules []faultinject.Rule) *convergenceWorld {
	t.Helper()
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := simclock.NewSim(start)
	store := jobstore.New()
	svc := jobservice.New(store)
	inj := faultinject.New(seed, clk, rules)
	act := &countingActuator{inner: inj.Actuator(statesyncer.NopActuator{}), clock: clk, stopsAt: make(map[string][]time.Time)}
	syncer := statesyncer.New(store, act, clk, statesyncer.Options{})

	for i := 0; i < jobs; i++ {
		if err := svc.Provision(jobConfig(jobName(i), 4, 16)); err != nil {
			t.Fatal(err)
		}
	}
	syncer.RunRound() // initial provisioning syncs as simple plans
	for i := 0; i < jobs; i++ {
		if err := svc.SetTaskCount(jobName(i), config.LayerOncall, 6); err != nil {
			t.Fatal(err)
		}
	}
	act.probes.Store(0)
	return &convergenceWorld{clk: clk, store: store, syncer: syncer, act: act, inj: inj, jobs: jobs}
}

// diverged returns the store's diverged set.
func (w *convergenceWorld) diverged() []string {
	return w.store.DivergedRangeInto(0, jobstore.NumStripes, nil)
}

// converged reports an empty diverged set, which also means no job
// holds a sync record.
func (w *convergenceWorld) converged() bool {
	return len(w.diverged()) == 0
}

// requireTaskCount6 fails unless every job runs the changed task count.
func (w *convergenceWorld) requireTaskCount6(t *testing.T) {
	t.Helper()
	for i := 0; i < w.jobs; i++ {
		r, _, ok := w.store.RunningDoc(jobName(i))
		if !ok || r.Config == nil {
			t.Fatalf("%s runs no config after convergence", jobName(i))
		}
		if n := r.Config.TaskCount; n != 6 {
			t.Fatalf("%s converged to task count %d, want 6", jobName(i), n)
		}
	}
}

// runConvergence drives 30s syncer rounds under the given actuator fault
// rules until the store is fully converged.
func runConvergence(t *testing.T, seed uint64, jobs int, rules []faultinject.Rule) convergenceResult {
	t.Helper()
	w := newConvergenceWorld(t, seed, jobs, rules)
	res := convergenceResult{}
	const maxRounds = 400
	for ; res.rounds < maxRounds; res.rounds++ {
		if w.converged() {
			break
		}
		w.clk.RunFor(syncInterval)
		w.syncer.RunRound()
	}
	if res.rounds == maxRounds {
		t.Fatalf("no convergence after %d rounds (diverged=%v)", maxRounds, w.diverged())
	}
	if q := w.store.QuarantinedNames(); len(q) != 0 {
		t.Fatalf("unexpected quarantines: %v", q)
	}
	w.requireTaskCount6(t)
	res.simTime = time.Duration(res.rounds) * syncInterval
	res.probes = w.act.probes.Load()
	res.faults = len(w.inj.Trace())
	return res
}

// TestConvergenceUnderActuatorFaults measures rounds-to-convergence and
// actuator probe traffic for 50 complex-plan jobs under transient
// actuator fault rates: every job converges, none through a quarantine.
func TestConvergenceUnderActuatorFaults(t *testing.T) {
	transient := func(rate float64) []faultinject.Rule {
		return []faultinject.Rule{
			{Op: faultinject.OpActuatorStop, Rate: rate, Kind: faultinject.KindError},
			{Op: faultinject.OpActuatorResume, Rate: rate, Kind: faultinject.KindError},
		}
	}
	for _, sc := range []struct {
		name  string
		rules []faultinject.Rule
	}{
		{"1% faults", transient(0.01)},
		{"10% faults", transient(0.10)},
	} {
		r := runConvergence(t, 7, 50, sc.rules)
		t.Logf("%-12s rounds=%-3d sim-time=%-6v probes=%-4d faults=%d",
			sc.name, r.rounds, r.simTime, r.probes, r.faults)
	}
}

// TestBackoffCutsProbesDuringOutage holds the actuator's stop path at a
// 100% failure rate for 10 minutes. Each failing job is probed exactly
// five times — the second probe one round after the first, then after
// Interval, 2 × Interval and 4 × Interval less at most a quarter of
// jitter — and is then quarantined: 5 probes per job for the outage,
// where a retry every round would make 20. Once the outage is over and
// the oncall clears the quarantines, everything converges within two
// rounds.
func TestBackoffCutsProbesDuringOutage(t *testing.T) {
	const jobs, outageLen = 10, 10 * time.Minute
	w := newConvergenceWorld(t, 7, jobs, []faultinject.Rule{
		{Op: faultinject.OpActuatorStop, Rate: 1.0, Kind: faultinject.KindError, Until: outageLen},
	})
	for elapsed := time.Duration(0); elapsed < outageLen-syncInterval; elapsed += syncInterval {
		w.clk.RunFor(syncInterval)
		w.syncer.RunRound()
	}
	// Every failed stop is followed by its rollback's resume: two actuator
	// calls per probe.
	if got := w.act.probes.Load(); got != 2*5*jobs {
		t.Fatalf("%d actuator calls during the outage, want 5 stops and 5 rollbacks per job = %d", got, 2*5*jobs)
	}
	if q := w.store.QuarantinedNames(); len(q) != jobs {
		t.Fatalf("quarantined after the outage: %v, want all %d jobs", q, jobs)
	}
	nominal := []time.Duration{syncInterval, syncInterval, 2 * syncInterval, 4 * syncInterval}
	for i := 0; i < jobs; i++ {
		at := w.act.stopsAt[jobName(i)]
		if len(at) != 5 {
			t.Fatalf("%s probed %d times, want 5", jobName(i), len(at))
		}
		for k, want := range nominal {
			// Rounds run on the Interval grid, so a wait shortened by
			// jitter lands on the first round at or after its deadline.
			if gap := at[k+1].Sub(at[k]); gap > want || gap < want-want/4 {
				t.Fatalf("%s: %v between probes %d and %d, want %v less at most a quarter", jobName(i), gap, k+1, k+2, want)
			}
		}
	}

	w.clk.RunFor(syncInterval) // the outage is over
	for _, q := range w.store.QuarantinedNames() {
		w.store.ClearQuarantine(q)
	}
	for r := 0; r < 2 && !w.converged(); r++ {
		w.syncer.RunRound()
		w.clk.RunFor(syncInterval)
	}
	if !w.converged() {
		t.Fatalf("not converged two rounds after the quarantines were cleared (diverged=%v)", w.diverged())
	}
	w.requireTaskCount6(t)
}
