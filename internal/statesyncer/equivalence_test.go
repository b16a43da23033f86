package statesyncer

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobservice"
	"repro/internal/jobstore"
	"repro/internal/simclock"
	"repro/internal/taskservice"
)

// flakyActuator fails deterministically by job-name hash: some jobs fail
// their first stop attempts transiently, some fail long enough to cross
// the quarantine threshold, some fail redistribution or resume. Like the
// cluster's actuator, a stop quiesces the job and a successful resume
// unquiesces it. Two instances driven through equivalent call sequences
// observe identical outcomes.
type flakyActuator struct {
	mu       sync.Mutex     // complex plans run in parallel; budgets are per job, so outcomes stay deterministic
	fails    map[string]int // failures injected so far, by call and job
	quiesced map[string]bool
	// ts, if set, is quiesced and unquiesced along with quiesced.
	ts *taskservice.Service
}

func newFlaky() *flakyActuator {
	return &flakyActuator{fails: make(map[string]int), quiesced: make(map[string]bool)}
}

func jobHash(job string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(job))
	return h.Sum32()
}

// inject fails the call until it has failed budget times for the job. The
// caller holds f.mu.
func (f *flakyActuator) inject(call, job string, budget int) error {
	key := call + " " + job
	if f.fails[key] >= budget {
		return nil
	}
	f.fails[key]++
	return fmt.Errorf("%s: injected failure %d", key, f.fails[key])
}

// quiesce sets the job's hold. The caller holds f.mu.
func (f *flakyActuator) quiesce(job string, on bool) {
	f.quiesced[job] = on
	if f.ts != nil && on {
		f.ts.Quiesce(job)
	} else if f.ts != nil {
		f.ts.Unquiesce(job)
	}
}

func (f *flakyActuator) StopJobTasks(job string) error {
	var budget int
	switch h := jobHash(job); {
	case h%13 == 0:
		budget = 10 // persistent: crosses the quarantine threshold
	case h%5 == 0:
		budget = 2 // transient
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.quiesce(job, true)
	return f.inject("stop", job, budget)
}

func (f *flakyActuator) RedistributeCheckpoints(job string, _, _, _ int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if jobHash(job)%17 != 0 {
		return nil
	}
	return f.inject("redistribute", job, 1)
}

func (f *flakyActuator) ResumeJob(job string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if jobHash(job)%11 == 0 {
		if err := f.inject("resume", job, 2); err != nil {
			return err
		}
	}
	f.quiesce(job, false)
	return nil
}

// op is one step of a trace, applied through the Job Service.
type op struct {
	kind  string // provision, bump, scale, clear, delete, clearq
	job   string
	layer config.Layer // the layer a bump, scale or clear writes
	n     int          // provision, scale: the task count; bump: the package version
}

// traceRound is a round of a trace: its ops, then a clock step, then one
// syncer round.
type traceRound struct {
	ops  []op
	step time.Duration
}

// traceConfig is the job a provision op admits.
func traceConfig(o op) *config.JobConfig {
	cfg := validConfig(o.job)
	cfg.TaskCount = o.n
	return cfg
}

func applyOp(svc *jobservice.Service, o op) error {
	switch o.kind {
	case "provision":
		return svc.Provision(traceConfig(o))
	case "bump":
		return svc.SetPackageVersion(o.job, fmt.Sprintf("v%d", o.n))
	case "scale":
		return svc.SetTaskCount(o.job, o.layer, o.n)
	case "clear":
		return svc.ClearLayer(o.job, o.layer)
	case "delete":
		return svc.Delete(o.job)
	default:
		return svc.ClearQuarantine(o.job)
	}
}

// genScript builds a seeded trace over sixteen names, so that deletes,
// re-provisions before and after teardown, and quarantines recur. Ops on a
// name in the wrong state fail, on every implementation alike. Clock steps
// range from a third of a round to past the longest backoff.
func genScript(seed int64, rounds int) []traceRound {
	rng := rand.New(rand.NewSource(seed))
	steps := []time.Duration{10 * time.Second, 30 * time.Second, 45 * time.Second, 2 * time.Minute, pastLongestBackoff}
	kinds := strings.Fields("provision provision provision provision provision bump bump bump bump " +
		"scale scale scale scale clear clear delete delete delete clearq clearq")
	script := make([]traceRound, rounds)
	for r := range script {
		n := rng.Intn(5)
		if r == 0 {
			n = 12 // initial fleet
		}
		for range n {
			o := op{kind: kinds[rng.Intn(len(kinds))], job: fmt.Sprintf("s%d-%02d", seed, rng.Intn(16)),
				layer: config.LayerScaler + config.Layer(rng.Intn(2)), n: 1 + rng.Intn(16)}
			if r == 0 {
				o.kind = "provision"
			}
			if o.kind == "bump" {
				o.layer = config.LayerProvisioner
			}
			script[r].ops = append(script[r].ops, o)
		}
		script[r].step = steps[rng.Intn(len(steps))]
	}
	return script
}

// pastLongestBackoff is the longest retry wait the syncer ever stamps
// (Interval << maxRetryDoublings at the default 30 s Interval): advancing
// the clock by it between rounds makes every failed job due again.
const pastLongestBackoff = 30 * time.Second << maxRetryDoublings

// snapshotOf serializes the whole store.
func snapshotOf(t *testing.T, store *jobstore.Store) []byte {
	t.Helper()
	data, err := store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return data
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
	svcA, svcB := jobservice.New(storeA), jobservice.New(storeB)
	procs := runtime.GOMAXPROCS(1)
	serial := New(storeA, newFlaky(), clk, Options{})
	runtime.GOMAXPROCS(16)
	wide := New(storeB, newFlaky(), clk, Options{})
	runtime.GOMAXPROCS(procs)
	if serial.par != 1 || wide.par != 16 {
		t.Fatalf("pool widths = %d and %d, want 1 and 16", serial.par, wide.par)
	}
	for r := 0; r < rounds; r++ {
		for _, o := range script[r].ops {
			if ea, eb := applyOp(svcA, o), applyOp(svcB, o); (ea == nil) != (eb == nil) {
				t.Fatalf("round %d: %+v: serial error %v, wide error %v", r, o, ea, eb)
			}
		}
		clk.RunFor(script[r].step)
		ra, rb := serial.RunRound(), wide.RunRound()
		if ra.Simple != rb.Simple || ra.Complex != rb.Complex || ra.Deleted != rb.Deleted {
			t.Fatalf("round %d: serial/wide diverged: %+v vs %+v", r, ra, rb)
		}
		if !bytes.Equal(snapshotOf(t, storeA), snapshotOf(t, storeB)) {
			t.Fatalf("round %d: snapshots diverged", r)
		}
	}
	if sa, sb := serial.Stats(), wide.Stats(); sa != sb {
		t.Fatalf("stats diverged: serial %+v, wide %+v", sa, sb)
	}
}
