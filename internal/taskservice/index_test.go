package taskservice

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/jobstore"
	"repro/internal/shardmanager"
	"repro/internal/simclock"
)

func commitJob(t testing.TB, store *jobstore.Store, name string, tasks int, version int64) {
	t.Helper()
	doc, err := jobCfg(name, tasks).ToDoc()
	if err != nil {
		t.Fatal(err)
	}
	store.CommitRunning(name, doc, version)
}

// specsJSON renders a spec list to canonical bytes for byte-identity
// comparisons.
func specsJSON(t *testing.T, specs []engine.TaskSpec) string {
	t.Helper()
	raw, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestIncrementalRegenerationMatchesFromScratch(t *testing.T) {
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	for i := 0; i < 30; i++ {
		commitJob(t, store, fmt.Sprintf("job%02d", i), 1+i%5, 1)
	}
	svc := New(store, clk, 90*time.Second, 64)
	svc.Snapshot() // warm the per-job group cache

	// Churn: change some jobs, delete one, add one, stop one.
	for _, j := range []int{3, 11, 27} {
		name := fmt.Sprintf("job%02d", j)
		cfg := jobCfg(name, 1+j%5)
		cfg.Package.Version = "v9"
		doc, err := cfg.ToDoc()
		if err != nil {
			t.Fatal(err)
		}
		store.CommitRunning(name, doc, 2)
	}
	store.DropRunning("job15")
	commitJob(t, store, "job99", 4, 1)
	stopped := jobCfg("job07", 2)
	stopped.Stopped = true
	doc, err := stopped.ToDoc()
	if err != nil {
		t.Fatal(err)
	}
	store.CommitRunning("job07", doc, 2)

	svc.Invalidate()
	incremental, _ := svc.Snapshot()

	fresh := scratchIndex(store, 64, nil).Specs()

	if got, want := specsJSON(t, incremental), specsJSON(t, fresh); got != want {
		t.Fatalf("incremental snapshot differs from from-scratch generation:\nincremental: %s\nfresh: %s", got, want)
	}
}

// specPointers maps every task ID in idx's buckets to the spec object the
// bucket entry points at. The index shares the specs of a job it did not
// regenerate between versions, so pointer identity across two versions is
// "not regenerated" — what Task Managers take the Equal fast path on.
func specPointers(idx *SnapshotIndex) map[string]*engine.TaskSpec {
	out := make(map[string]*engine.TaskSpec, idx.Len())
	for s := 0; s < idx.NumShards(); s++ {
		for _, is := range idx.ShardSpecs(shardmanager.ShardID(s)) {
			out[is.ID] = is.Spec
		}
	}
	return out
}

// regeneratedJobs lists, sorted, the jobs with a task whose spec object in
// next is not the one prev holds (new tasks included).
func regeneratedJobs(prev, next *SnapshotIndex) []string {
	old := specPointers(prev)
	var jobs []string
	for id, spec := range specPointers(next) {
		if old[id] != spec {
			jobs = append(jobs, spec.Job)
		}
	}
	slices.Sort(jobs)
	return slices.Compact(jobs)
}

func TestIncrementalRegenerationRebuildsOnlyChangedJobs(t *testing.T) {
	const jobs, tasks, numShards = 40, 4, 64
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	for i := 0; i < jobs; i++ {
		commitJob(t, store, fmt.Sprintf("job%02d", i), tasks, 1)
	}
	svc := New(store, clk, 90*time.Second, numShards)
	idx0 := svc.Index()

	// One job changes: only its specs are regenerated. Every other job's
	// entries point at the very specs the previous version held, and every
	// bucket without a task of the changed job is the previous version's
	// bucket.
	cfg := jobCfg("job20", tasks)
	cfg.Package.Version = "v9"
	doc, err := cfg.ToDoc()
	if err != nil {
		t.Fatal(err)
	}
	store.CommitRunning("job20", doc, 2)
	svc.Invalidate()
	idx1 := svc.Index()
	if idx1.Version() == idx0.Version() {
		t.Fatal("a content change did not move the version")
	}
	if got := regeneratedJobs(idx0, idx1); !slices.Equal(got, []string{"job20"}) {
		t.Fatalf("one-job bump regenerated jobs %v, want only job20", got)
	}
	kept := 0
	for s := shardmanager.ShardID(0); s < numShards; s++ {
		bucket := idx1.ShardSpecs(s)
		lo, hi := JobRun(bucket, "job20")
		if touched := hi > lo; SameBucket(idx0.ShardSpecs(s), bucket) == touched {
			t.Fatalf("shard %d: holds job20 = %v, yet same bucket as before = %v", s, touched, !touched)
		} else if !touched {
			kept++
		}
	}
	if kept < numShards-tasks {
		t.Fatalf("%d of %d buckets kept; a %d-task job touches at most %d", kept, numShards, tasks, tasks)
	}

	// The same config committed again under a new version: neither the
	// index version nor any spec a Task Manager can reach moves.
	store.CommitRunning("job20", doc, 3)
	svc.Invalidate()
	idx2 := svc.Index()
	if idx2.Version() != idx1.Version() {
		t.Fatalf("version moved without content change: %d -> %d", idx1.Version(), idx2.Version())
	}
	if got := regeneratedJobs(idx1, idx2); len(got) != 0 {
		t.Fatalf("content-identical re-commit replaced the specs of %v", got)
	}

	// Nothing changed at all: same again.
	svc.Invalidate()
	if idx3 := svc.Index(); idx3.Version() != idx1.Version() || len(regeneratedJobs(idx1, idx3)) != 0 {
		t.Fatalf("no-change regeneration moved the index: version %d -> %d", idx1.Version(), idx3.Version())
	}
}

// TestSpecStructSizes pins the per-task objects of an index, and the
// per-job template: every published spec and every bucket entry of every
// version pays for a field added to them (a memoised hash string was 16 B
// on each), and a job-level field belongs in the JobSpec, paid once per
// job.
func TestSpecStructSizes(t *testing.T) {
	if got := unsafe.Sizeof(engine.TaskSpec{}); got > 56 {
		t.Errorf("engine.TaskSpec is %d B, ceiling 56", got)
	}
	if got := unsafe.Sizeof(engine.JobSpec{}); got > 168 {
		t.Errorf("engine.JobSpec is %d B, ceiling 168", got)
	}
	if got := unsafe.Sizeof(IndexedSpec{}); got > 32 {
		t.Errorf("IndexedSpec is %d B, ceiling 32", got)
	}
}

// indexBytesPerTaskCeiling bounds the live heap a Service's index holds
// per task: 251 B measured on linux/amd64 for 8-task jobs over 4 096
// shards (one JobSpec and shard list per job; per task a 56 B spec, its
// group and bucket entries, ID and checkpoint directory), plus 7 %. A
// full TaskSpec per task cost 443 B by the same measure.
const indexBytesPerTaskCeiling = 270

// TestIndexBytesPerTask builds a Service's first index over a fleet and
// holds the live heap it adds to the ceiling per task.
func TestIndexBytesPerTask(t *testing.T) {
	const jobs, tasksPerJob, numShards = 4000, 8, 4096
	store := jobstore.New()
	for i := 0; i < jobs; i++ {
		commitJob(t, store, fmt.Sprintf("jobs/j%05d", i), tasksPerJob, 1)
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := liveHeap()
	svc := New(store, simclock.NewSim(epoch), 90*time.Second, numShards)
	idx := svc.Index()
	held := int64(liveHeap() - base)
	perTask := float64(held) / (jobs * tasksPerJob)
	t.Logf("index of %d tasks: %d B, %.0f B/task", idx.Len(), held, perTask)
	if idx.Len() != jobs*tasksPerJob {
		t.Fatalf("index holds %d tasks, want %d", idx.Len(), jobs*tasksPerJob)
	}
	if perTask > indexBytesPerTaskCeiling {
		t.Fatalf("the index holds %.0f B of live heap per task, ceiling %d", perTask, indexBytesPerTaskCeiling)
	}
	runtime.KeepAlive(svc)
}

// TestRebuildKeepsFreshGroupShape drives seeded releases, resource
// changes and task-count changes through one long-lived Service, whose
// count-preserving rebuilds copy the old group's IDs, shards and order
// instead of hashing and sorting. After every step each group must be
// shaped exactly as a fresh Service over the same store builds it: the
// same (ID, shard, task index) sequence, the same shard windows over
// that one array, and every entry pointing at its own group's spec,
// whose template is the group's.
func TestRebuildKeepsFreshGroupShape(t *testing.T) {
	const numShards = 64
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	rng := rand.New(rand.NewSource(7))
	cfgs := make([]*config.JobConfig, 24)
	rev := int64(0)
	commit := func(cfg *config.JobConfig) {
		doc, err := cfg.ToDoc()
		if err != nil {
			t.Fatal(err)
		}
		rev++
		if err := store.CommitRunning(cfg.Name, doc, rev); err != nil {
			t.Fatal(err)
		}
	}
	for i := range cfgs {
		cfgs[i] = jobCfg(fmt.Sprintf("job%02d", i), 1+rng.Intn(12))
		commit(cfgs[i])
	}
	svc := New(store, clk, 90*time.Second, numShards)
	svc.Index()
	for step := 0; step < 60; step++ {
		for k := 0; k < 1+rng.Intn(6); k++ {
			cfg := cfgs[rng.Intn(len(cfgs))]
			switch rng.Intn(3) {
			case 0:
				cfg.Package.Version = "v" + strconv.Itoa(step)
			case 1:
				cfg.TaskResources.MemoryBytes += 1 << 20
			default:
				cfg.TaskCount = 1 + rng.Intn(12)
			}
			commit(cfg)
		}
		svc.Invalidate()
		svc.Index()
		fresh := New(store, clk, 90*time.Second, numShards)
		fresh.Index()
		if len(svc.groups) != len(fresh.groups) {
			t.Fatalf("step %d: %d groups, fresh %d", step, len(svc.groups), len(fresh.groups))
		}
		for name, want := range fresh.groups {
			assertGroupShape(t, svc.groups[name], want)
		}
	}
}

// assertGroupShape checks g against a freshly built group of the same
// job; see TestRebuildKeepsFreshGroupShape.
func assertGroupShape(t *testing.T, g, want *jobGroup) {
	t.Helper()
	if g == nil || len(g.indexed) != len(want.indexed) || len(g.shards) != len(want.shards) {
		t.Fatalf("%s: group shape differs from a fresh build", want.job)
	}
	if g.spec != want.spec {
		t.Fatalf("%s: template %+v, fresh %+v", want.job, g.spec, want.spec)
	}
	for i, is := range g.indexed {
		w := want.indexed[i]
		if is.ID != w.ID || is.Shard != w.Shard || is.Spec.Index != w.Spec.Index {
			t.Fatalf("%s entry %d: (%s, %d, %d), fresh (%s, %d, %d)",
				want.job, i, is.ID, is.Shard, is.Spec.Index, w.ID, w.Shard, w.Spec.Index)
		}
		if is.Spec != &g.specs[is.Spec.Index] || is.Spec.JobSpec != &g.spec || !is.Spec.Equal(w.Spec) {
			t.Fatalf("%s entry %d (%s) does not point at its own group's spec and template", want.job, i, is.ID)
		}
	}
	for k, gs := range g.shards {
		if w := want.shards[k]; gs != w {
			t.Fatalf("%s: window %d is shard %d up to entry %d, fresh shard %d up to entry %d", want.job, k, gs.shard, gs.end, w.shard, w.end)
		}
		for _, is := range g.window(k) {
			if is.Shard != gs.shard {
				t.Fatalf("%s: window %d of shard %d holds %s of shard %d", want.job, k, gs.shard, is.ID, is.Shard)
			}
		}
	}
}

func TestSnapshotMutationCannotCorruptOtherViews(t *testing.T) {
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	commitJob(t, store, "j1", 3, 1)
	svc := New(store, clk, 90*time.Second, 64)

	// Manager A mutates its snapshot aggressively.
	a, _ := svc.Snapshot()
	a[0].Job = "evil"
	a[0].PackageVersion = "evil"
	if len(a[0].Partitions) > 0 {
		a[0].Partitions[0] = 10 * 1000
	}

	// Manager B's view is untouched.
	b, _ := svc.Snapshot()
	for _, s := range b {
		if s.Job != "j1" || s.PackageVersion != "v3" {
			t.Fatalf("corrupted spec leaked into another manager's view: %+v", s)
		}
		for _, p := range s.Partitions {
			if p >= 16 {
				t.Fatalf("corrupted partitions leaked: %+v", s.Partitions)
			}
		}
	}

	// The index path is equally unaffected.
	idx := svc.Index()
	idx.Each(func(is IndexedSpec) {
		if is.Spec.Job != "j1" {
			t.Fatalf("index corrupted: %+v", is.Spec)
		}
	})
}

func TestShardIndexPartitionsAllSpecs(t *testing.T) {
	const numShards = 32
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	for i := 0; i < 20; i++ {
		commitJob(t, store, fmt.Sprintf("job%02d", i), 1+i%4, 1)
	}
	svc := New(store, clk, 90*time.Second, numShards)
	idx := svc.Index()

	seen := make(map[string]int)
	for s := shardmanager.ShardID(0); s < numShards; s++ {
		for _, is := range idx.ShardSpecs(s) {
			seen[is.ID]++
			if want := shardmanager.ShardOf(is.ID, numShards); want != s {
				t.Fatalf("spec %s filed under shard %d, want %d", is.ID, s, want)
			}
			if is.ID != is.Spec.ID() || is.Shard != s {
				t.Fatalf("entry {%s %d} of shard %d does not describe its spec %s", is.ID, is.Shard, s, is.Spec.ID())
			}
		}
	}
	if len(seen) != idx.Len() {
		t.Fatalf("shard buckets cover %d specs, index has %d", len(seen), idx.Len())
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("spec %s appears in %d buckets", id, n)
		}
	}
}

// assertJobShardsInvertBuckets holds JobShards to the buckets themselves:
// for every job with an entry anywhere in idx, and for every name in
// absent besides, JobShards is exactly the ascending list of shards whose
// bucket holds an entry of that job — nothing for a job with none.
func assertJobShardsInvertBuckets(t *testing.T, idx *SnapshotIndex, absent ...string) {
	t.Helper()
	want := make(map[string][]shardmanager.ShardID)
	for _, name := range absent {
		want[name] = nil
	}
	for s := shardmanager.ShardID(0); int(s) < idx.NumShards(); s++ {
		for _, is := range idx.ShardSpecs(s) {
			if at := want[is.Spec.Job]; len(at) == 0 || at[len(at)-1] != s {
				want[is.Spec.Job] = append(at, s)
			}
		}
	}
	scratch := make([]shardmanager.ShardID, 0, 8)
	for job, shards := range want {
		scratch = idx.JobShards(scratch[:0], job)
		if !slices.Equal(scratch, shards) {
			t.Fatalf("JobShards(%s) = %v, its entries sit in the buckets of %v", job, scratch, shards)
		}
	}
	// It appends: what dst already holds stays.
	if got := idx.JobShards([]shardmanager.ShardID{77}, "no such job"); !slices.Equal(got, []shardmanager.ShardID{77}) {
		t.Fatalf("JobShards of an unknown job turned dst [77] into %v", got)
	}
}

// TestJobShardsInvertsShardSpecs walks one service through every way a
// job's shard list comes about — first publish, splice at another
// parallelism, a group rebuilt to identical specs (the included list gets
// the new group while the buckets keep the old one's entries), quiesce,
// stop, drop — and a from-scratch build over the same store, checking the
// inverse on each index. Superseded indexes are immutable: theirs must
// still hold after every later publish.
func TestJobShardsInvertsShardSpecs(t *testing.T) {
	const numShards = 64
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	names := []string{"a", "job0", "job00", "job01", "job1", "zz"} // prefixes of each other: the search compares whole names
	for i, name := range names {
		commitJob(t, store, name, 1+2*i, 1)
	}
	svc := New(store, clk, 90*time.Second, numShards)
	var published []*SnapshotIndex
	step := func(what string, mutate func()) *SnapshotIndex {
		t.Helper()
		mutate()
		svc.Invalidate()
		idx := svc.Index()
		published = append(published, idx)
		for i, old := range published {
			t.Logf("after %q: index %d of %d", what, i, len(published)) // shown if the check fails
			assertJobShardsInvertBuckets(t, old, append([]string{"", "job", "job000", "zzz"}, names...)...)
		}
		return idx
	}
	step("first publish", func() {})
	step("rescaled", func() { commitJob(t, store, "job00", 9, 2); commitJob(t, store, "job1", 1, 2) })
	before := step("settled", func() {})
	after := step("identical rebuild", func() { commitJob(t, store, "job00", 9, 3) })
	if before != after {
		t.Fatal("a commit of identical specs published a new index; the scenario needs the group swapped under the published one")
	}
	step("quiesced", func() { svc.Quiesce("job0") })
	step("stopped", func() {
		cfg := jobCfg("a", 1)
		cfg.Stopped = true
		doc, err := cfg.ToDoc()
		if err != nil {
			t.Fatal(err)
		}
		store.CommitRunning("a", doc, 2)
	})
	step("dropped and resumed", func() { store.DropRunning("zz"); svc.Unquiesce("job0") })
	spliced := published[len(published)-1]

	fresh := scratchIndex(store, numShards, nil)
	assertJobShardsInvertBuckets(t, fresh, names...)
	if !IndexEqual(spliced, fresh) {
		t.Fatal("spliced index differs from a from-scratch build")
	}
	if len(spliced.JobShards(nil, "job00")) < 5 || len(spliced.JobShards(nil, "a")) != 0 {
		t.Fatalf("job00 (9 tasks) on shards %v, stopped job a on %v", spliced.JobShards(nil, "job00"), spliced.JobShards(nil, "a"))
	}
	scratch := make([]shardmanager.ShardID, 0, 16)
	if n := testing.AllocsPerRun(100, func() { scratch = published[0].JobShards(scratch[:0], "job00") }); n != 0 {
		t.Fatalf("JobShards into a scratch with room allocated %v objects, want 0", n)
	}
}

// TestConcurrentSnapshotAndStoreWrites exercises Snapshot/Index readers
// racing layer writes, running commits, and quiesce toggles. Run under
// -race (the tier-1 check does).
func TestConcurrentSnapshotAndStoreWrites(t *testing.T) {
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("job%02d", i)
		if err := store.Create(name, config.Doc{"taskCount": 2}); err != nil {
			t.Fatal(err)
		}
		commitJob(t, store, name, 2, 1)
	}
	svc := New(store, clk, 90*time.Second, 64)

	const iters = 200
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				svc.Invalidate()
				specs, _ := svc.Snapshot()
				for j := range specs {
					specs[j].Job = "scribble" // caller-owned: must be harmless
				}
				idx := svc.Index()
				_ = idx.ShardSpecs(shardmanager.ShardID(i % 64))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			name := fmt.Sprintf("job%02d", i%10)
			if _, err := store.SetLayer(name, config.LayerOncall,
				config.Doc{"note": strconv.Itoa(i)}, jobstore.Expected{Version: jobstore.AnyVersion}, nil); err != nil {
				t.Error(err)
				return
			}
			cfg := jobCfg(name, 1+i%3)
			doc, err := cfg.ToDoc()
			if err != nil {
				t.Error(err)
				return
			}
			store.CommitRunning(name, doc, int64(i))
			if _, _, err := store.MergedExpected(name); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			name := fmt.Sprintf("job%02d", i%10)
			svc.Quiesce(name)
			svc.Unquiesce(name)
		}
	}()
	wg.Wait()

	// The store was never corrupted: a final snapshot is internally
	// consistent.
	svc.Invalidate()
	specs, _ := svc.Snapshot()
	for _, s := range specs {
		if s.Job == "scribble" {
			t.Fatal("caller mutation leaked into the service cache")
		}
	}
}
