package experiments

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/taskservice"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/ledger.golden from this run")

// ledgerCounters reads every work counter the control plane exposes, in a
// fixed order: the journal, the State Syncer, the local Task Service, the
// Task Managers (summed), the Shard Manager, the spec feed and the mirror
// subscribed to it.
func ledgerCounters(c *cluster.Cluster, mirror *taskservice.FeedClient) []ledgerCount {
	sy := c.Syncer.Stats()
	var tm struct{ started, stopped, restarted, startErrors, reboots, oomKills, degradedSkips int }
	for _, m := range c.TaskManagers() {
		s := m.Stats()
		tm.started += s.Started
		tm.stopped += s.Stopped
		tm.restarted += s.Restarted
		tm.startErrors += s.StartErrors
		tm.reboots += s.Reboots
		tm.oomKills += s.OOMKills
		tm.degradedSkips += s.DegradedSkips
	}
	sm := c.SM.Stats()
	fs, ms := c.Feed.Stats(), mirror.Stats()
	return []ledgerCount{
		{"journal.head", int64(c.Store.JournalHead())},
		{"syncer.rounds", int64(sy.Rounds)},
		{"syncer.simple", int64(sy.SimpleSyncs)},
		{"syncer.complex", int64(sy.ComplexSyncs)},
		{"syncer.deletes", int64(sy.Deletes)},
		{"syncer.failures", int64(sy.Failures)},
		{"syncer.quarantines", int64(sy.Quarantines)},
		{"syncer.examined", int64(sy.JobsExamined)},
		{"syncer.converged", int64(sy.JobsConverged)},
		{"syncer.sweep", int64(sy.SweepJobs)},
		{"taskservice.generations", int64(c.TaskSvc.Generations())},
		{"tm.started", int64(tm.started)},
		{"tm.stopped", int64(tm.stopped)},
		{"tm.restarted", int64(tm.restarted)},
		{"tm.startErrors", int64(tm.startErrors)},
		{"tm.reboots", int64(tm.reboots)},
		{"tm.oomKills", int64(tm.oomKills)},
		{"tm.degradedSkips", int64(tm.degradedSkips)},
		{"sm.moves", int64(sm.Moves)},
		{"sm.failovers", int64(sm.Failovers)},
		{"sm.rebalances", int64(sm.Rebalances)},
		{"sm.dropErrors", int64(sm.DropErrors)},
		{"sm.addErrors", int64(sm.AddErrors)},
		{"feed.frameHits", fs.FrameHits},
		{"feed.frameMisses", fs.FrameMisses},
		{"feed.resyncs", fs.Resyncs},
		{"feed.evicted", fs.Evicted},
		{"feed.unregistered", fs.Unregistered},
		{"mirror.polls", ms.Polls},
		{"mirror.bytes", ms.Bytes},
		{"mirror.applied", ms.Applied},
		{"mirror.skipped", ms.Skipped},
		{"mirror.resyncs", ms.Resyncs},
	}
}

type ledgerCount struct {
	name string
	n    int64
}

// TestWorkLedger runs a seeded script of the release path on a simulated
// cluster — 200 jobs provisioned, three package-release waves, oncall
// scale-ups and scale-downs, one job removed, one host killed and
// restored, one quiet simulated hour — with a remote Task Service
// mirroring the Job Store over the spec feed, synced after every step.
// After each step it records how much work every layer did in that step
// (the deltas of the counters the components already expose) and
// compares the whole ledger exactly against testdata/ledger.golden.
//
// A change that makes any layer do more (or less) work for the same
// script fails here, printing both ledgers. A change that means
// to move work regenerates the golden with
//
//	go test ./internal/experiments -run TestWorkLedger -update
//
// and says why each delta moved.
func TestWorkLedger(t *testing.T) {
	got := workLedger(t)
	path := filepath.Join("testdata", "ledger.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("the work ledger moved; if on purpose, rerun with -update and account for every delta\n--- got\n%s--- golden\n%s", got, want)
	}
}

// workLedger runs the script and renders the ledger: one block per step,
// each listing the counters that moved in it.
func workLedger(t *testing.T) string {
	t.Helper()
	const (
		jobs  = 200
		waves = 3
	)
	rng := rand.New(rand.NewSource(18))
	c, err := cluster.New(cluster.Config{Hosts: 8})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	mirror := c.NewRemoteTaskService("ledger-mirror")

	name := func(i int) string { return fmt.Sprintf("ledger/j%03d", i) }
	tasks := make([]int, jobs)
	var out strings.Builder
	prev := ledgerCounters(c, mirror)
	step := func(label string, d time.Duration) {
		t.Helper()
		c.Run(d)
		if err := mirror.Sync(0); err != nil {
			t.Fatalf("%s: mirror sync: %v", label, err)
		}
		cur := ledgerCounters(c, mirror)
		fmt.Fprintf(&out, "== %s\n", label)
		for i, cnt := range cur {
			if d := cnt.n - prev[i].n; d != 0 {
				fmt.Fprintf(&out, "%-24s %d\n", cnt.name, d)
			}
		}
		prev = cur
	}

	for i := range tasks {
		tasks[i] = 1 + rng.Intn(4)
		cfg := &config.JobConfig{
			Name:           name(i),
			Package:        config.Package{Name: "ledger_tailer", Version: "v1"},
			TaskCount:      tasks[i],
			ThreadsPerTask: 1,
			TaskResources:  config.Resources{CPUCores: 0.25, MemoryBytes: 256 << 20},
			Operator:       config.OpTailer,
			Input:          config.Input{Category: name(i) + "_in", Partitions: 8},
			SLOSeconds:     90,
		}
		if err := c.AddJob(cluster.JobSpec{Config: cfg, Pattern: workload.Constant(64 << 10)}); err != nil {
			t.Fatal(err)
		}
	}
	step("provision", 3*time.Minute)

	for w := 0; w < waves; w++ {
		for i := w * jobs / waves; i < (w+1)*jobs/waves; i++ {
			if err := c.Jobs.SetPackageVersion(name(i), "v2"); err != nil {
				t.Fatal(err)
			}
		}
		step(fmt.Sprintf("release wave %d", w+1), 3*time.Minute)
	}

	scaled := rng.Perm(jobs)[:30]
	for _, i := range scaled[:15] {
		if err := c.Jobs.SetTaskCount(name(i), config.LayerOncall, tasks[i]+2); err != nil {
			t.Fatal(err)
		}
	}
	step("scale up", 5*time.Minute)
	for _, i := range scaled[15:] {
		if err := c.Jobs.SetTaskCount(name(i), config.LayerOncall, 1); err != nil {
			t.Fatal(err)
		}
	}
	step("scale down", 5*time.Minute)

	if err := c.RemoveJob(name(scaled[0])); err != nil {
		t.Fatal(err)
	}
	step("remove job", 3*time.Minute)

	host := c.Hosts()[rng.Intn(len(c.Hosts()))]
	if err := c.KillHost(host); err != nil {
		t.Fatal(err)
	}
	step("kill host", 3*time.Minute)
	if err := c.RestoreHost(host); err != nil {
		t.Fatal(err)
	}
	step("restore host", 3*time.Minute)

	step("quiet hour", time.Hour)
	if v := c.Violations(); v != 0 {
		t.Fatalf("%d duplicate-instance violations", v)
	}
	return out.String()
}
