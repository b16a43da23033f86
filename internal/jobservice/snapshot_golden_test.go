package jobservice

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobstore"
	"repro/internal/wire"
)

// testdata/schema4_snapshot.json is a schema-4 snapshot written by the
// store that held its documents as maps: four jobs with every layer in
// use (an array, nulls, an empty object and HTML characters among the
// values), a running entry current and one stale, a sync record with a
// pending resume, a quarantine, a teardown pending and a shard lease.

// golden is what that store served from the snapshot's contents.
var golden = struct {
	desired  map[string]string // job: version and Desired config as JSON
	diverged []string
}{
	desired: map[string]string{
		"jobs/a": `4 {"name":"jobs/a","package":{"name":"scuba_tailer","version":"v2"},"taskCount":6,"threadsPerTask":2,"taskResources":{"cpuCores":0.5,"memoryBytes":1073741824,"diskBytes":3221225472},"operator":"tailer","input":{"category":"jobs/a_in","partitions":16},"output":{"category":"out\u003c\u0026\u003eé"},"checkpointDir":"/ckpt/$JOB/$TASK","enforcement":"cgroup","priority":3,"maxTaskCount":32,"sloSeconds":90}`,
		"jobs/b": `2 {"name":"jobs/b","package":{"name":"scuba_tailer","version":"v1"},"taskCount":8,"threadsPerTask":2,"taskResources":{"cpuCores":1.25,"memoryBytes":2147483648,"diskBytes":3221225472},"operator":"tailer","input":{"category":"jobs/b_in","partitions":16},"output":{"category":"out\u003c\u0026\u003eé"},"checkpointDir":"/ckpt/$JOB/$TASK","enforcement":"cgroup","priority":3,"maxTaskCount":32,"sloSeconds":90}`,
		"jobs/c": `2 {"name":"jobs/c","package":{"name":"scuba_tailer","version":"v1"},"taskCount":2,"threadsPerTask":2,"taskResources":{"cpuCores":0.5,"memoryBytes":1073741824,"diskBytes":3221225472},"operator":"tailer","input":{"category":"jobs/c_in","partitions":16},"output":{"category":"out\u003c\u0026\u003eé"},"checkpointDir":"/ckpt/$JOB/$TASK","enforcement":"cgroup","priority":3,"maxTaskCount":32,"sloSeconds":90}`,
	},
	diverged: []string{"jobs/b", "jobs/c", "jobs/d"},
}

// TestSchema4SnapshotGolden: a schema-4 snapshot restores to the Desired
// configs, sync records and diverged set its writer served, and the
// restored store snapshots to the very same bytes.
func TestSchema4SnapshotGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/schema4_snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	store := jobstore.New()
	if err := store.Restore(data); err != nil {
		t.Fatal(err)
	}
	s := New(store)
	names := store.ExpectedNames()
	if !slices.Equal(names, []string{"jobs/a", "jobs/b", "jobs/c"}) {
		t.Fatalf("expected names = %v", names)
	}
	for _, name := range names {
		cfg, version, err := s.Desired(name)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%d %s", version, js); got != golden.desired[name] {
			t.Errorf("%s: Desired = %s\nwant          %s", name, got, golden.desired[name])
		}
	}
	ss, ok := store.SyncStateOf("jobs/b")
	if !ok || ss.FailureStreak != 2 || !ss.NextRetryAt.Equal(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)) || !slices.Equal(ss.FollowUps, []string{"resume"}) {
		t.Errorf("jobs/b sync record = %+v (%v)", ss, ok)
	}
	for _, name := range []string{"jobs/a", "jobs/c", "jobs/d"} {
		if ss, ok := store.SyncStateOf(name); ok {
			t.Errorf("%s: sync record %+v, want none", name, ss)
		}
	}
	if got := store.DivergedRangeInto(0, jobstore.NumStripes, nil); !slices.Equal(got, golden.diverged) {
		t.Errorf("diverged = %v, want %v", got, golden.diverged)
	}
	again, err := store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("Snapshot of the restored store differs from the snapshot it restored:\n%s", again)
	}
}

// TestSchema4SnapshotWrittenAsBefore replays the writes that made
// testdata/schema4_snapshot.json: the store that holds blobs snapshots
// them to the very bytes the store that held maps wrote.
func TestSchema4SnapshotWrittenAsBefore(t *testing.T) {
	store := jobstore.New()
	s := New(store)
	mk := func(name string, tasks int) *config.JobConfig {
		return &config.JobConfig{
			Name: name, Package: config.Package{Name: "scuba_tailer", Version: "v1"},
			TaskCount: tasks, ThreadsPerTask: 2,
			TaskResources: config.Resources{CPUCores: 0.5, MemoryBytes: 1 << 30, DiskBytes: 3 << 30},
			Operator:      config.OpTailer,
			Input:         config.Input{Category: name + "_in", Partitions: 16},
			Output:        config.Output{Category: "out<&>é"},
			CheckpointDir: "/ckpt/$JOB/$TASK",
			Enforcement:   config.EnforceCgroup,
			Priority:      3, MaxTaskCount: 32, SLOSeconds: 90,
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	commit := func(name string) {
		t.Helper()
		m, v, err := store.MergedExpected(name)
		must(err)
		must(store.CommitRunning(name, m, v))
	}
	for i, name := range []string{"jobs/a", "jobs/b", "jobs/c", "jobs/d"} {
		must(s.Provision(mk(name, []int{4, 8, 2, 1}[i])))
	}
	must(s.SetPackageVersion("jobs/a", "v2"))
	must(s.SetTaskCount("jobs/a", config.LayerScaler, 6))
	must(s.UpdateLayer("jobs/a", config.LayerOncall,
		wire.Edit{Path: "notes.list", Value: []any{1, "two", 3.5, nil, true}},
		wire.Edit{Path: "notes.empty", Value: config.Doc{}}))
	commit("jobs/a")
	commit("jobs/b")
	must(s.SetTaskResources("jobs/b", config.LayerScaler, config.Resources{CPUCores: 1.25, MemoryBytes: 2 << 30}))
	store.UpdateSyncState("jobs/b", func(ss *jobstore.SyncState) {
		ss.FailureStreak = 2
		ss.NextRetryAt = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
		ss.FollowUps = []string{"resume"}
	})
	must(s.ClearLayer("jobs/c", config.LayerOncall))
	store.SetQuarantine("jobs/c", "quarantined after 5 consecutive sync failures")
	commit("jobs/d")
	must(s.Delete("jobs/d"))
	store.AcquireShardLease(0, "syncer-0", time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC), time.Minute)

	want, err := os.ReadFile("testdata/schema4_snapshot.json")
	must(err)
	got, err := store.Snapshot()
	must(err)
	if !bytes.Equal(got, want) {
		t.Fatalf("Snapshot =\n%s\nwant\n%s", got, want)
	}
}

// TestRestoreKeepsIntegersExact: an integer above 2^53 survives a
// snapshot and restore exactly, in the desired and the running config —
// a restore that read every number as a float64 returned 2^53 for it.
func TestRestoreKeepsIntegersExact(t *testing.T) {
	const mem = 1<<53 + 1 // 9 007 199 254 740 993: no float64 holds it
	store := jobstore.New()
	s := New(store)
	cfg := &config.JobConfig{
		Name: "j", Package: config.Package{Name: "p", Version: "v1"},
		TaskCount: 2, ThreadsPerTask: 1,
		TaskResources: config.Resources{CPUCores: 0.5, MemoryBytes: mem},
		Operator:      config.OpTailer,
		Input:         config.Input{Category: "j_in", Partitions: 4},
	}
	if err := s.Provision(cfg); err != nil {
		t.Fatal(err)
	}
	m, v, err := store.MergedExpected("j")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.CommitRunning("j", m, v); err != nil {
		t.Fatal(err)
	}
	data, err := store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := jobstore.New()
	if err := restored.Restore(data); err != nil {
		t.Fatal(err)
	}
	desired, _, err := New(restored).Desired("j")
	if err != nil {
		t.Fatal(err)
	}
	if got := desired.TaskResources.MemoryBytes; got != mem {
		t.Errorf("Desired memoryBytes = %d after the restore, want %d", got, mem)
	}
	running, _, ok := restored.RunningEntry("j")
	if !ok || running == nil {
		t.Fatalf("running entry lost in the restore: %v, %v", running, ok)
	}
	if got := running.TaskResources.MemoryBytes; got != mem {
		t.Errorf("running memoryBytes = %d after the restore, want %d", got, mem)
	}
}
