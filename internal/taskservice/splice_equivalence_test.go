package taskservice

// The equivalence suite: the journal-driven spliced index must be
// byte-identical to a from-scratch build (scratchIndex, which shares no
// journal, cache or splice with the service) under arbitrary churn —
// commits (content-changing and byte-identical), deletes, stops,
// quiesce/unquiesce toggles, and journal overflow — and published
// indexes must stay immutable while later publishes splice around them.

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/jobstore"
	"repro/internal/shardmanager"
	"repro/internal/simclock"
)

// scratchIndex is the suite's oracle: the index of store's running jobs
// minus quiesced, built with no journal, no group cache and no splice —
// every group generated afresh and every bucket assembled by appending
// the groups' sub-buckets in job-name order. A fresh Service is no
// oracle: its first publish runs the very splice under test.
func scratchIndex(store *jobstore.Store, numShards int, quiesced map[string]bool) *SnapshotIndex {
	gen := &Service{table: store, numShards: numShards, groups: make(map[string]*jobGroup)}
	idx := &SnapshotIndex{numShards: numShards, chunks: make([]*shardChunk, numChunks(numShards))}
	for _, job := range store.RunningNames() {
		_, rev, ok := store.RunningEntry(job)
		if !ok || quiesced[job] {
			continue
		}
		g := gen.buildGroup(job, rev)
		if len(g.indexed) == 0 {
			continue
		}
		idx.groups = append(idx.groups, g)
		idx.total += len(g.indexed)
		for k, gs := range g.shards {
			ci := int(gs.shard) >> chunkShift
			if idx.chunks[ci] == nil {
				idx.chunks[ci] = &shardChunk{}
			}
			b := &idx.chunks[ci].buckets[int(gs.shard)&(chunkWidth-1)]
			*b = append(*b, g.window(k)...)
		}
	}
	return idx
}

// assertIndexEquivalent pins idx against want: same totals, byte-identical
// specs in the same order, and identical per-shard buckets (IDs, spec
// content by this suite's own JSON fingerprint, order) across the whole
// shard space.
func assertIndexEquivalent(t *testing.T, idx, want *SnapshotIndex, numShards int) {
	t.Helper()
	if idx.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", idx.Len(), want.Len())
	}
	if got, exp := specsJSON2(t, idx), specsJSON2(t, want); got != exp {
		t.Fatalf("specs diverge:\nincremental: %s\nscratch:     %s", got, exp)
	}
	for s := shardmanager.ShardID(0); int(s) < numShards; s++ {
		a, b := idx.ShardSpecs(s), want.ShardSpecs(s)
		if len(a) != len(b) {
			t.Fatalf("shard %d: %d specs, want %d", s, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Shard != b[i].Shard || specJSON(t, a[i].Spec) != specJSON(t, b[i].Spec) {
				t.Fatalf("shard %d entry %d: %+v %+v, want %+v %+v", s, i, a[i], *a[i].Spec, b[i], *b[i].Spec)
			}
		}
	}
}

func specsJSON2(t *testing.T, idx *SnapshotIndex) string {
	t.Helper()
	return specsJSON(t, idx.Specs())
}

// specJSON is the suite's content fingerprint of one spec: its
// encoding/json form, which names every field.
func specJSON(t *testing.T, spec *engine.TaskSpec) string {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// shardFingerprint captures a deep copy of every bucket's (ID, content)
// pairs, for immutability checks on published indexes.
func shardFingerprint(t *testing.T, idx *SnapshotIndex, numShards int) [][]string {
	fp := make([][]string, numShards)
	for s := 0; s < numShards; s++ {
		for _, is := range idx.ShardSpecs(shardmanager.ShardID(s)) {
			fp[s] = append(fp[s], is.ID+"|"+specJSON(t, is.Spec))
		}
	}
	return fp
}

// TestChurnMatrixEquivalence drives randomized rounds of mixed churn
// through one long-lived service and checks every published snapshot
// byte-identical to a from-scratch build over the same store and quiesce
// set — including a mid-matrix burst larger than the change journal's
// ring, after which the change set is the whole fleet and a bucket keeps
// its array iff its content is unchanged. It also pins version
// stability: the version moves iff the content moved.
func TestChurnMatrixEquivalence(t *testing.T) {
	const numShards = 96
	const jobPool = 50
	rng := rand.New(rand.NewSource(7))
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	svc := New(store, clk, 90*time.Second, numShards)

	cfgs := make(map[string]*config.JobConfig) // current committed config per live job
	vers := make(map[string]int64)             // running-entry version counter
	pkg := make(map[string]int)                // package bump counter
	quiesced := make(map[string]bool)

	commit := func(name string, mutate bool) {
		cfg, ok := cfgs[name]
		if !ok || mutate {
			if !ok {
				cfg = jobCfg(name, 1+rng.Intn(5))
			} else {
				c := *cfg
				cfg = &c
			}
			if mutate || !ok {
				pkg[name]++
				cfg.Package.Version = fmt.Sprintf("v%d", pkg[name])
			}
			cfgs[name] = cfg
		}
		doc := runningOf(cfg)
		vers[name]++
		if err := store.CommitRunning(name, doc, vers[name]); err != nil {
			t.Fatal(err)
		}
	}

	// composed lists, per round, the multi-step histories of one job that a
	// single regeneration's batched publish has to compose into one bucket
	// rebuild per shard — with the random churn of the round landing in
	// the same buckets. The jobs sit outside the random pool, so their
	// state at each step is known. set commits name at the given
	// parallelism (its tasks, and so its shards, move) under a new package
	// version.
	set := func(name string, tasks int) {
		cfg := jobCfg(name, tasks)
		pkg[name]++
		cfg.Package.Version = fmt.Sprintf("v%d", pkg[name])
		cfgs[name] = cfg
		commit(name, false)
	}
	quiesce := func(name string, on bool) {
		if on {
			svc.Quiesce(name)
			quiesced[name] = true
		} else {
			svc.Unquiesce(name)
			delete(quiesced, name)
		}
	}
	drop := func(name string) {
		store.DropRunning(name)
		delete(cfgs, name)
	}
	composed := map[int]func(){
		2: func() { set("twice", 3); set("again", 4); set("hushed", 2) },
		// Same job committed twice: the last commit's shards hold.
		5: func() { set("twice", 5); set("twice", 2) },
		// Dropped, then recreated at another parallelism.
		8: func() { drop("again"); set("again", 2) },
		// Quiesce toggled and committed, both ways round.
		11: func() { quiesce("hushed", true); set("hushed", 4) },
		14: func() { set("hushed", 3); quiesce("hushed", false) },
		// Journal entries the overflow burst below pushes off the ring: the
		// drop must still be seen, through the cached group it leaves.
		20: func() { drop("again"); set("twice", 3); quiesce("hushed", true) },
		// The same three on top of the overflow round's publish, and all
		// in one regeneration.
		23: func() {
			set("twice", 1)
			set("twice", 4)
			drop("again")
			set("again", 5)
			quiesce("hushed", true)
			set("hushed", 1)
			quiesce("hushed", false)
		},
		// Recreated then dropped, committed then quiesced: nothing may stay.
		26: func() { drop("again"); set("again", 3); drop("again"); set("hushed", 5); quiesce("hushed", true) },
	}

	var prev *SnapshotIndex
	prevJSON := ""
	for round := 0; round < 40; round++ {
		if steps := composed[round]; steps != nil {
			steps()
		}
		if round == 20 {
			// Overflow burst: more journal entries than the ring holds
			// land between refreshes, so this round's change set is the
			// whole fleet, and it must still match. Three of the commits
			// change content; the rest rewrite live jobs byte-identically.
			for i, n := 0, 0; n < jobstore.JournalCap+20; i++ {
				if name := fmt.Sprintf("job%03d", i%jobPool); cfgs[name] != nil {
					commit(name, n < 3)
					n++
				}
			}
		}
		for o, ops := 0, 1+rng.Intn(8); o < ops; o++ {
			name := fmt.Sprintf("job%03d", rng.Intn(jobPool))
			switch rng.Intn(6) {
			case 0:
				commit(name, true) // content change
			case 1:
				if _, ok := cfgs[name]; ok {
					commit(name, false) // byte-identical recommit: rev moves, content doesn't
				}
			case 2:
				store.DropRunning(name)
				delete(cfgs, name)
			case 3:
				if cfg, ok := cfgs[name]; ok { // administrative stop
					c := *cfg
					c.Stopped = true
					cfgs[name] = &c
					commit(name, false)
				}
			case 4:
				svc.Quiesce(name)
				quiesced[name] = true
			case 5:
				svc.Unquiesce(name)
				delete(quiesced, name)
			}
		}

		svc.Invalidate()
		idx := svc.Index()

		want := scratchIndex(store, numShards, quiesced)
		assertIndexEquivalent(t, idx, want, numShards)
		// The per-job lookup is the inverse of the buckets on both, for
		// the jobs the matrix left out of the snapshot too.
		pool := []string{"twice", "again", "hushed"}
		for i := 0; i < jobPool; i++ {
			pool = append(pool, fmt.Sprintf("job%03d", i))
		}
		assertJobShardsInvertBuckets(t, idx, pool...)
		assertJobShardsInvertBuckets(t, want, pool...)

		j := specsJSON2(t, idx)
		if prev != nil {
			if contentMoved, versionMoved := j != prevJSON, idx.Version() != prev.Version(); contentMoved != versionMoved {
				t.Fatalf("round %d: content moved=%v but version moved=%v (%d -> %d)",
					round, contentMoved, versionMoved, prev.Version(), idx.Version())
			}
		}
		if round == 20 {
			// An overflow is a bigger change set, not a rebuild: a bucket
			// keeps its array exactly when its content did not change.
			kept, replaced := 0, 0
			was, is := shardFingerprint(t, prev, numShards), shardFingerprint(t, idx, numShards)
			for s := range numShards {
				same := SameBucket(prev.ShardSpecs(shardmanager.ShardID(s)), idx.ShardSpecs(shardmanager.ShardID(s)))
				if equal := slices.Equal(was[s], is[s]); same != equal {
					t.Fatalf("overflow round, shard %d: content equal = %v, same array = %v", s, equal, same)
				}
				if len(is[s]) > 0 && same {
					kept++
				} else if !same {
					replaced++
				}
			}
			if kept == 0 || replaced == 0 {
				t.Fatalf("overflow round not exercised: %d non-empty buckets kept, %d replaced", kept, replaced)
			}
		}
		prev, prevJSON = idx, j
	}
}

// TestPublishedIndexImmutableUnderSplices pins that splicing later
// publishes around a published index never mutates it: the old index's
// buckets and specs are bit-stable after arbitrary follow-on churn.
func TestPublishedIndexImmutableUnderSplices(t *testing.T) {
	const numShards = 64
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	for i := 0; i < 25; i++ {
		commitJob(t, store, fmt.Sprintf("job%02d", i), 1+i%4, 1)
	}
	svc := New(store, clk, 90*time.Second, numShards)
	idx1 := svc.Index()
	fp := shardFingerprint(t, idx1, numShards)
	json1 := specsJSON2(t, idx1)

	// Churn every job, delete a few, quiesce a few.
	for i := 0; i < 25; i++ {
		name := fmt.Sprintf("job%02d", i)
		cfg := jobCfg(name, 1+i%4)
		cfg.Package.Version = "v9"
		doc := runningOf(cfg)
		store.CommitRunning(name, doc, 2)
	}
	store.DropRunning("job03")
	svc.Quiesce("job04")
	svc.Invalidate()
	idx2 := svc.Index()
	if idx2.Version() == idx1.Version() {
		t.Fatal("churn did not move the version")
	}

	// The old published index is untouched.
	if got := specsJSON2(t, idx1); got != json1 {
		t.Fatal("published index specs mutated by later splices")
	}
	fp2 := shardFingerprint(t, idx1, numShards)
	for s := range fp {
		if len(fp[s]) != len(fp2[s]) {
			t.Fatalf("shard %d of the old index changed size: %d -> %d", s, len(fp[s]), len(fp2[s]))
		}
		for i := range fp[s] {
			if fp[s][i] != fp2[s][i] {
				t.Fatalf("shard %d entry %d of the old index mutated", s, i)
			}
		}
	}

	// The SameBucket contract consumers reconcile by, inside one chunk
	// (64 shards are a single chunk, and the publish below clones it): a
	// bucket the publish changed is a new array, every other bucket of the
	// cloned chunk is the predecessor's own slice, an emptied one is nil.
	// job10 moves from 3 tasks to 1, job11 changes in place, job12 goes.
	commitJob(t, store, "job10", 1, 3)
	commitJob(t, store, "job11", 4, 3)
	store.DropRunning("job12")
	svc.Invalidate()
	idx3 := svc.Index()
	touched := make(map[shardmanager.ShardID]bool)
	for _, idx := range []*SnapshotIndex{idx2, idx3} {
		idx.Each(func(is IndexedSpec) {
			if j := is.Spec.Job; j == "job10" || j == "job11" || j == "job12" {
				touched[is.Shard] = true
			}
		})
	}
	same, changed := 0, 0
	for s := shardmanager.ShardID(0); s < numShards; s++ {
		before, after := idx2.ShardSpecs(s), idx3.ShardSpecs(s)
		switch {
		case len(after) == 0:
			if after != nil {
				t.Fatalf("shard %d: emptied bucket is not nil", s)
			}
		case !touched[s]:
			if !SameBucket(before, after) {
				t.Fatalf("shard %d: no job of it changed, yet the publish replaced its bucket", s)
			}
			same++
		default:
			if SameBucket(before, after) {
				t.Fatalf("shard %d: bucket changed in place (same array as the published predecessor)", s)
			}
			changed++
		}
	}
	if same == 0 || changed == 0 {
		t.Fatalf("contract not exercised: %d buckets kept, %d replaced", same, changed)
	}
	assertIndexEquivalent(t, idx3, scratchIndex(store, numShards, map[string]bool{"job04": true}), numShards)
}

// TestQuiesceSplicesWithoutRebuild: quiescing and unquiescing splice the
// cached group out of and back into the index without regenerating a
// single spec — every spec the index holds afterwards is the object it
// held before — and each toggle moves the version.
func TestQuiesceSplicesWithoutRebuild(t *testing.T) {
	const numShards = 64
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	for i := 0; i < 20; i++ {
		commitJob(t, store, fmt.Sprintf("job%02d", i), 3, 1)
	}
	svc := New(store, clk, 90*time.Second, numShards)
	idx1 := svc.Index()
	json1 := specsJSON2(t, idx1)
	specs1 := specPointers(idx1)

	svc.Quiesce("job05")
	idx2 := svc.Index()
	for id, spec := range specPointers(idx2) {
		if specs1[id] != spec {
			t.Fatalf("quiesce splice regenerated %s", id)
		}
	}
	if idx2.Version() == idx1.Version() {
		t.Fatal("quiesce did not move the version")
	}
	if idx2.Len() != idx1.Len()-3 {
		t.Fatalf("Len = %d after quiesce, want %d", idx2.Len(), idx1.Len()-3)
	}
	for s := 0; s < numShards; s++ {
		for _, is := range idx2.ShardSpecs(shardmanager.ShardID(s)) {
			if is.Spec.Job == "job05" {
				t.Fatalf("quiesced job still in shard %d", s)
			}
		}
	}

	svc.Unquiesce("job05")
	idx3 := svc.Index()
	if got := specPointers(idx3); !maps.Equal(got, specs1) {
		t.Fatal("unquiesce splice regenerated specs: the index no longer holds the objects it held before the quiesce")
	}
	if idx3.Version() == idx2.Version() {
		t.Fatal("unquiesce did not move the version")
	}
	if got := specsJSON2(t, idx3); got != json1 {
		t.Fatal("unquiesce did not restore the original content")
	}
	assertIndexEquivalent(t, idx3, scratchIndex(store, numShards, nil), numShards)
}

// TestCommitEntryForDroppedJob covers the delete-between-journal-and-read
// race shape: the journal carries a commit entry for a job whose running
// entry is gone by the time the regeneration reads it. The job must
// vanish from the snapshot, matching a from-scratch rebuild.
func TestCommitEntryForDroppedJob(t *testing.T) {
	const numShards = 64
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	commitJob(t, store, "a", 2, 1)
	commitJob(t, store, "b", 3, 1)
	svc := New(store, clk, 90*time.Second, numShards)
	if idx := svc.Index(); idx.Len() != 5 {
		t.Fatalf("setup Len = %d", idx.Len())
	}

	commitJob(t, store, "b", 4, 2) // journal: commit b
	store.DropRunning("b")         // journal: drop b — commit entry now points at nothing
	svc.Invalidate()
	idx := svc.Index()
	if idx.Len() != 2 {
		t.Fatalf("Len = %d after drop, want 2", idx.Len())
	}
	idx.Each(func(is IndexedSpec) {
		if is.Spec.Job != "a" {
			t.Fatalf("dropped job leaked: %+v", is.Spec)
		}
	})
	assertIndexEquivalent(t, idx, scratchIndex(store, numShards, nil), numShards)

	// Re-create after the drop: insert splice.
	commitJob(t, store, "b", 1, 3)
	svc.Invalidate()
	assertIndexEquivalent(t, svc.Index(), scratchIndex(store, numShards, nil), numShards)
}

// TestJournalOverflowResyncThenIncremental: after a burst larger than the
// journal ring turns the whole fleet into one change set, the service's
// cursor is caught up — the next one-job change goes back to rebuilding
// only that job.
func TestJournalOverflowResyncThenIncremental(t *testing.T) {
	const numShards = 64
	const tasks = 4
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	for i := 0; i < 30; i++ {
		commitJob(t, store, fmt.Sprintf("job%02d", i), tasks, 1)
	}
	svc := New(store, clk, 90*time.Second, numShards)
	svc.Index()

	// Flood the journal past its capacity.
	for i := 0; i < jobstore.JournalCap+10; i++ {
		cfg := jobCfg(fmt.Sprintf("job%02d", i%30), tasks)
		cfg.Package.Version = fmt.Sprintf("v%d", 2+i/30)
		doc := runningOf(cfg)
		store.CommitRunning(fmt.Sprintf("job%02d", i%30), doc, int64(2+i))
	}
	svc.Invalidate()
	idx := svc.Index()
	assertIndexEquivalent(t, idx, scratchIndex(store, numShards, nil), numShards)

	// After the overflow: journal-driven again. One changed job
	// regenerates exactly its own specs.
	cfg := jobCfg("job07", tasks)
	cfg.Package.Version = "v999"
	doc := runningOf(cfg)
	store.CommitRunning("job07", doc, 999)
	svc.Invalidate()
	idx2 := svc.Index()
	if got := regeneratedJobs(idx, idx2); !slices.Equal(got, []string{"job07"}) {
		t.Fatalf("post-overflow regeneration rebuilt jobs %v, want only job07", got)
	}
	assertIndexEquivalent(t, idx2, scratchIndex(store, numShards, nil), numShards)
}

// TestIndexReadersDoNotBlockOnRegeneration pins the PR 7 reader-stall
// fix: a fetch arriving while a regeneration is in flight returns the
// last published snapshot immediately instead of queuing behind the
// rebuild. (regenMu is held directly to model the in-flight round — the
// same state a slow regeneration produces.)
func TestIndexReadersDoNotBlockOnRegeneration(t *testing.T) {
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	commitJob(t, store, "a", 2, 1)
	svc := New(store, clk, 90*time.Second, 64)
	idx1 := svc.Index()

	commitJob(t, store, "a", 5, 2)
	svc.Invalidate()

	svc.regenMu.Lock() // a regeneration is "in flight"
	got := make(chan *SnapshotIndex)
	go func() { got <- svc.Index() }()
	select {
	case idx := <-got:
		if idx != idx1 {
			t.Fatal("mid-regeneration fetch did not serve the published snapshot")
		}
	case <-time.After(5 * time.Second):
		svc.regenMu.Unlock()
		t.Fatal("reader blocked behind an in-flight regeneration")
	}
	svc.regenMu.Unlock()

	// Once the in-flight regeneration is done, the next fetch sees the
	// new content.
	if specs, _ := svc.Snapshot(); len(specs) != 5 {
		t.Fatalf("post-regeneration fetch got %d specs, want 5", len(specs))
	}
}

// TestPublishOrderIsNameOrderWhateverTheJournalSays: publish orders a
// bucket's edits by their arrival, which is job-name order because the
// regeneration walks its change set sorted — not by the journal's order.
// Here every journal runs against name order, and many jobs share each of
// a few buckets: a first publish, then one regeneration that re-shards,
// drops and inserts jobs in reverse name order, must both splice to the
// from-scratch index.
func TestPublishOrderIsNameOrderWhateverTheJournalSays(t *testing.T) {
	const numShards = 8
	const jobs = 60
	store := jobstore.New()
	clk := simclock.NewSim(epoch)
	name := func(i int) string { return fmt.Sprintf("job%02d", i) }
	for i := jobs - 1; i >= 0; i-- {
		commitJob(t, store, name(i), 1+i%6, 1)
	}
	svc := New(store, clk, 90*time.Second, numShards)
	check := func(step string) {
		t.Helper()
		idx, want := svc.Index(), scratchIndex(store, numShards, nil)
		if !IndexEqual(idx, want) {
			t.Fatalf("%s: spliced index differs from the from-scratch one", step)
		}
		assertIndexEquivalent(t, idx, want, numShards)
	}
	check("first publish")

	for i := jobs - 1; i >= 0; i-- {
		switch i % 4 {
		case 0:
			store.DropRunning(name(i))
		case 1:
			commitJob(t, store, name(i)+"x", 1+i%5, 1) // a new job right after name(i)
			fallthrough
		default:
			commitJob(t, store, name(i), 1+(i+3)%6, 2) // re-sharded
		}
	}
	svc.Invalidate()
	check("reverse-order churn")
}
