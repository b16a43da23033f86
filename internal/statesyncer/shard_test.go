package statesyncer

// Sharded-topology tests: slice partitioning, the lease protocol's steal
// gates, adversarial mid-round kills, and the headline equivalence
// invariant — an N-shard deployment (even one that suffered a crash and
// a lease steal) must leave the Job Store byte-identical to a
// single-syncer deployment fed the same writes.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobstore"
	"repro/internal/simclock"
	"repro/internal/wire"
)

func TestShardStripeRangePartition(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 16, 64} {
		prevHi := 0
		for k := 0; k < n; k++ {
			lo, hi := ShardStripeRange(k, n)
			if lo != prevHi {
				t.Fatalf("n=%d: slice %d starts at %d, want %d (gap or overlap)", n, k, lo, prevHi)
			}
			if hi < lo {
				t.Fatalf("n=%d: slice %d has inverted range [%d,%d)", n, k, lo, hi)
			}
			prevHi = hi
		}
		if prevHi != jobstore.NumStripes {
			t.Fatalf("n=%d: slices cover [0,%d), want [0,%d)", n, prevHi, jobstore.NumStripes)
		}
		for i := 0; i < 1000; i++ {
			name := fmt.Sprintf("pipeline/job-%d", i)
			k := SliceOfName(name, n)
			lo, hi := ShardStripeRange(k, n)
			if st := jobstore.StripeOf(name); st < lo || st >= hi {
				t.Fatalf("n=%d: SliceOfName(%q)=%d covers [%d,%d) but stripe is %d", n, name, k, lo, hi, st)
			}
		}
	}
}

// shardJob creates one benchmark-shaped job.
func shardJob(t testing.TB, store *jobstore.Store, name string) {
	t.Helper()
	doc := config.Doc{
		"name": name, "taskCount": 4,
		"package":       config.Doc{"name": "tailer", "version": "v1"},
		"taskResources": config.Doc{"cpuCores": 0.5, "memoryBytes": 1 << 29},
		"input":         config.Doc{"category": name + "_in", "partitions": 16},
	}
	if err := store.Create(name, docBlob(doc), nil); err != nil {
		t.Fatal(err)
	}
}

// shardFleet builds a store with n jobs and N syncer Nodes on a shared
// sim clock. Nodes are built but not started: tests drive Tick directly.
func shardFleet(t testing.TB, jobs, shards int, wrap func(node, slice int, d ShardDriver) ShardDriver) (*jobstore.Store, []*Node, *simclock.Sim) {
	t.Helper()
	store := jobstore.New()
	clk := simclock.NewSim(time.Unix(0, 0))
	for i := 0; i < jobs; i++ {
		shardJob(t, store, fmt.Sprintf("j%05d", i))
	}
	nodes := make([]*Node, shards)
	for k := 0; k < shards; k++ {
		opts := NodeOptions{Shards: shards, Index: k}
		if wrap != nil {
			node := k
			opts.WrapDriver = func(slice int, d ShardDriver) ShardDriver { return wrap(node, slice, d) }
		}
		nodes[k] = NewNode(store, NopActuator{}, clk, opts)
	}
	return store, nodes, clk
}

// tickAll runs one scheduling pass on every live node and advances the
// shared clock by one round interval.
func tickAll(nodes []*Node, clk *simclock.Sim) {
	for _, n := range nodes {
		n.Tick()
	}
	clk.RunFor(30 * time.Second)
}

func TestNodeHomeLeaseAndStealGate(t *testing.T) {
	store, nodes, clk := shardFleet(t, 40, 2, nil)

	// Node 0 alone: it claims its home slice, and must never steal slice
	// 1 while that slice has no lease row — node 1 simply hasn't booted.
	for r := 0; r < 5; r++ {
		nodes[0].Tick()
		clk.RunFor(30 * time.Second)
	}
	if got := nodes[0].HeldSlices(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("node 0 holds %v, want [0] (stole an unclaimed slice)", got)
	}
	if _, ok := store.ShardLeaseOf(1); ok {
		t.Fatal("slice 1 has a lease row before its home node ever ran")
	}

	// Node 1 boots, claims home, then crashes. Its lease must survive
	// (sticky) until the TTL runs out, and only then be stolen.
	nodes[1].Tick()
	if got := nodes[1].HeldSlices(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("node 1 holds %v, want [1]", got)
	}
	nodes[1].Kill()
	nodes[0].Tick() // lease still live: no steal
	if got := nodes[0].HeldSlices(); len(got) != 1 {
		t.Fatalf("node 0 stole a live lease: holds %v", got)
	}
	clk.RunFor(2 * 90 * time.Second) // past the 3×interval TTL
	// Node 0's own home lease lapsed too while it idled: the first tick
	// notices the lapse and drops it, the second re-acquires — a Node
	// dark past its TTL goes back through Acquire rather than silently
	// extending itself.
	nodes[0].Tick()
	nodes[0].Tick()
	if got := nodes[0].HeldSlices(); len(got) != 2 {
		t.Fatalf("node 0 holds %v, want both slices after the TTL expired", got)
	}
	l, ok := store.ShardLeaseOf(1)
	if !ok || l.Holder != nodes[0].ID() || l.Epoch != 2 {
		t.Fatalf("slice 1 lease after steal = %+v, want holder %s epoch 2", l, nodes[0].ID())
	}
	if nodes[0].Violations()+nodes[1].Violations() != 0 {
		t.Fatal("lease violations in a clean steal")
	}
}

// crashDriver simulates the worst mid-round crash: the inner round runs
// (its commits land in the store) and then the process dies before it
// can renew — the response is lost. Armed once.
type crashDriver struct {
	inner ShardDriver
	node  **Node
	arm   *bool
}

func (d crashDriver) RunSliceRound() (RoundResult, error) {
	res, err := d.inner.RunSliceRound()
	if *d.arm {
		*d.arm = false
		(*d.node).Kill()
		return res, errKilled
	}
	return res, err
}

func TestShardedLeaseStealConvergence(t *testing.T) {
	const jobs, shards = 400, 4
	arm := false
	var victim *Node
	store, nodes, clk := shardFleet(t, jobs, shards, func(node, slice int, d ShardDriver) ShardDriver {
		if node == 1 && slice == 1 {
			return crashDriver{inner: d, node: &victim, arm: &arm}
		}
		return d
	})
	victim = nodes[1]
	tickAll(nodes, clk)
	total := 0
	for _, n := range nodes {
		total += n.Status()[n.HomeSlice()].LastRound.Simple
	}
	if total != jobs {
		t.Fatalf("initial rounds synced %d/%d jobs", total, jobs)
	}

	// Jobs homed on slice 1, for churning across the crash.
	var slice1 []string
	for i := 0; i < jobs; i++ {
		name := fmt.Sprintf("j%05d", i)
		if SliceOfName(name, shards) == 1 {
			slice1 = append(slice1, name)
		}
	}
	if len(slice1) < 4 {
		t.Fatalf("only %d jobs on slice 1; fleet too small for the test", len(slice1))
	}
	release := func(name, v string) {
		doc := config.Doc{"package": config.Doc{"version": v}}
		if _, err := store.SetLayer(name, config.LayerProvisioner, docBlob(doc), jobstore.Expected{Version: jobstore.AnyVersion}, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Adversarial point: node 1 commits a release and dies before
	// renewing. The work landed; the lease just stops being extended.
	release(slice1[0], "v2")
	arm = true
	nodes[1].Tick()
	if !nodes[1].Killed() {
		t.Fatal("crash driver did not fire")
	}
	if r, _, ok := store.RunningDoc(slice1[0]); !ok {
		t.Fatal("the crashing round's commit did not land")
	} else if v := r.Config.Package.Version; v != "v2" {
		t.Fatalf("the crashing round's commit did not land: running package.version = %v", v)
	}

	// Divergence accumulates on the dead node's slice.
	for _, name := range slice1[1:] {
		release(name, "v3")
	}
	release(slice1[0], "v3")

	// Before the TTL runs out nobody may touch slice 1.
	tickAll(nodes, clk)
	for _, n := range nodes[2:] {
		if got := n.HeldSlices(); len(got) != 1 {
			t.Fatalf("node %s stole a live lease: holds %v", n.ID(), got)
		}
	}

	// Past the TTL a peer steals the slice, and its first round — an
	// ordinary read of the slice's diverged set — converges every
	// divergence the dead owner left behind.
	clk.RunFor(3 * 90 * time.Second)
	tickAll(nodes, clk)
	var thief *Node
	for _, n := range nodes {
		if n == nodes[1] {
			continue
		}
		for _, sl := range n.HeldSlices() {
			if sl == 1 {
				thief = n
			}
		}
	}
	if thief == nil {
		t.Fatal("no peer stole the dead node's slice")
	}
	if l, _ := store.ShardLeaseOf(1); l.Epoch != 2 || l.Holder != thief.ID() {
		t.Fatalf("slice 1 lease = %+v, want holder %s epoch 2", l, thief.ID())
	}
	for _, name := range slice1 {
		r, _, ok := store.RunningDoc(name)
		if !ok {
			t.Fatalf("job %s not running after the steal", name)
		}
		if v := r.Config.Package.Version; v != "v3" {
			t.Fatalf("job %s not converged after the steal: running package.version = %v", name, v)
		}
	}
	lo, hi := ShardStripeRange(1, shards)
	if left := store.DivergedRangeInto(lo, hi, nil); len(left) != 0 {
		t.Fatalf("slice 1 still diverged after the thief's first round: %v", left)
	}
	// The thief's next round over the stolen slice finds no work.
	tickAll(nodes, clk)
	for _, st := range thief.Status() {
		if res := st.LastRound; st.Slice == 1 && res.Simple+res.Complex+res.Deleted+len(res.Failed) != 0 {
			t.Fatalf("the thief's second round over slice 1 still had work: %+v", res)
		}
	}
	for _, n := range nodes {
		if v := n.Violations(); v != 0 {
			t.Fatalf("node %s reports %d lease violations, want 0", n.ID(), v)
		}
	}
}

// TestResyncRoundSyncsOnlyItsSlice: after a Restore, the first round of a
// 4-slice engine syncs every divergence in its slice and touches nothing
// in the other slices, and its second round finds no work.
func TestResyncRoundSyncsOnlyItsSlice(t *testing.T) {
	const fleet, shards, slice = 200, 4, 1
	store, _, clk := shardFleet(t, fleet, shards, nil)
	engines := make([]*Syncer, shards)
	for k := range engines {
		lo, hi := ShardStripeRange(k, shards)
		engines[k] = NewStriped(store, nil, clk, Options{}, lo, hi)
		engines[k].RunRound() // the created fleet converges slice by slice
	}

	// Two divergences per slice: a layer release on the slice's first
	// fleet job, and a job created after the fleet converged.
	firstIn := func(prefix string, k int) string {
		for i := 0; ; i++ {
			if name := fmt.Sprintf("%s%05d", prefix, i); SliceOfName(name, shards) == k {
				return name
			}
		}
	}
	var victims []string
	for k := 0; k < shards; k++ {
		released, late := firstIn("j", k), firstIn("late", k)
		doc := config.Doc{"package": config.Doc{"version": "v2"}}
		if _, err := store.SetLayer(released, config.LayerProvisioner, docBlob(doc), jobstore.Expected{Version: jobstore.AnyVersion}, nil); err != nil {
			t.Fatal(err)
		}
		shardJob(t, store, late)
		victims = append(victims, released, late)
	}
	if err := store.Restore(snapshotOf(t, store)); err != nil {
		t.Fatal(err)
	}

	res := engines[slice].RunRound()
	if res.Simple != 2 || len(res.Failed) != 0 {
		t.Fatalf("first round after the restore = %+v, want the slice's 2 divergences synced", res)
	}
	lo, hi := ShardStripeRange(slice, shards)
	if left := store.DivergedRangeInto(lo, hi, nil); len(left) != 0 {
		t.Fatalf("slice %d still diverged after its first round: %v", slice, left)
	}
	for _, name := range victims {
		converged := store.PlanViewOf(name).Converged
		if inSlice := SliceOfName(name, shards) == slice; converged != inSlice {
			t.Fatalf("%s (slice %d) converged=%v after slice %d's round", name, SliceOfName(name, shards), converged, slice)
		}
	}
	if res := engines[slice].RunRound(); res.Simple+res.Complex+res.Deleted+len(res.Failed) != 0 {
		t.Fatalf("second round after the restore still had work: %+v", res)
	}
}

// TestShardedVsSingleEquivalence is the headline invariant: an N-Node
// deployment fed the same writes as the bare lease-free round engine
// must end with a byte-identical Job Store (lease table aside, which
// records who did the driving rather than what the fleet runs). N=4 runs
// through a node crash and the lease steal that recovers from it; N=1 —
// the deployment every single-syncer cluster now is — additionally
// matches the engine's Stats counter for counter.
func TestShardedVsSingleEquivalence(t *testing.T) {
	t.Run("shards=4", testFourShardsVsEngine)
	t.Run("shards=1", testOneSliceNodeVsEngine)
}

// testOneSliceNodeVsEngine drives a one-slice Node and a bare engine
// through the same commit / scale / delete schedule over flaky actuators
// failing the same calls: the lease layer must add nothing but the lease
// row.
func testOneSliceNodeVsEngine(t *testing.T) {
	const jobs = 120
	name := func(i int) string { return fmt.Sprintf("j%05d", i) }
	flaky := func() *fakeActuator {
		act := newFakeActuator()
		act.failStops[name(3)] = 2   // two failed rounds, then backoff, then success
		act.failStops[name(5)] = 1   // the teardown of a deleted job fails once
		act.failResumes[name(6)] = 1 // commit lands, follow-up retried
		return act
	}
	bare, noded := jobstore.New(), jobstore.New()
	stores := []*jobstore.Store{bare, noded}
	clkA, clkB := simclock.NewSim(epoch), simclock.NewSim(epoch)
	engine := New(bare, flaky(), clkA, Options{})
	node := NewNode(noded, flaky(), clkB, NodeOptions{})
	round := func() {
		engine.RunRound()
		node.Tick()
		clkA.RunFor(30 * time.Second)
		clkB.RunFor(30 * time.Second)
	}
	set := func(job string, layer config.Layer, path string, v any) {
		for _, store := range stores {
			doc, err := wire.EditBlob(nil, wire.Edit{Path: path, Value: v})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := store.SetLayer(job, layer, doc, jobstore.Expected{Version: jobstore.AnyVersion}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < jobs; i++ {
		shardJob(t, bare, name(i))
		shardJob(t, noded, name(i))
	}
	round()
	for r := 2; r < 12; r++ {
		for i := r; i < jobs; i += 7 { // commits: simple syncs
			set(name(i), config.LayerProvisioner, "package.version", fmt.Sprintf("v%d", r))
		}
		if r == 3 { // scales: complex syncs through the flaky actuator
			for _, i := range []int{3, 6, 9, 12} {
				set(name(i), config.LayerScaler, "taskCount", 8)
			}
		}
		if r == 5 { // deletes (i%7 == 5: no later commit touches them)
			for _, i := range []int{5, 19, 26} {
				for _, store := range stores {
					if err := store.Delete(name(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		round()
	}

	if v := node.Violations(); v != 0 {
		t.Fatalf("one-slice node reports %d lease violations", v)
	}
	if got, want := node.Stats(), engine.Stats(); got != want {
		t.Fatalf("one-slice node stats %+v, bare engine %+v", got, want)
	}
	if want := engine.Stats(); want.ComplexSyncs == 0 || want.Deletes != 3 || want.Failures == 0 {
		t.Fatalf("schedule did not exercise complex/delete/failure paths: %+v", want)
	}
	if l, ok := noded.ShardLeaseOf(0); !ok || l.Holder != node.ID() || l.Epoch != 1 {
		t.Fatalf("one-slice node's lease row = %+v, %v; want holder %s at epoch 1", l, ok, node.ID())
	}
	noded.ClearShardLeases()
	if a, b := snapshotOf(t, bare), snapshotOf(t, noded); string(a) != string(b) {
		t.Fatalf("bare engine and one-slice node diverged: %d vs %d bytes", len(a), len(b))
	}
}

func testFourShardsVsEngine(t *testing.T) {
	const jobs, shards, rounds = 300, 4, 6

	single := jobstore.New()
	clkA := simclock.NewSim(time.Unix(0, 0))
	syncer := New(single, NopActuator{}, clkA, Options{})
	sharded, nodes, clkB := shardFleet(t, jobs, shards, nil)
	for i := 0; i < jobs; i++ {
		shardJob(t, single, fmt.Sprintf("j%05d", i))
	}
	syncer.RunRound()
	tickAll(nodes, clkB)

	churnBoth := func(round int) {
		v := fmt.Sprintf("v%d", round)
		for i := 0; i < jobs; i += 7 {
			name := fmt.Sprintf("j%05d", i)
			doc := config.Doc{"package": config.Doc{"version": v}}
			for _, store := range []*jobstore.Store{single, sharded} {
				if _, err := store.SetLayer(name, config.LayerProvisioner, docBlob(doc), jobstore.Expected{Version: jobstore.AnyVersion}, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	for r := 2; r < 2+rounds; r++ {
		churnBoth(r)
		syncer.RunRound()
		tickAll(nodes, clkB)
		if r == 4 {
			// Crash node 2 mid-schedule; let its lease run down so a peer
			// steals the slice and later churn converges through the thief.
			nodes[2].Kill()
			clkB.RunFor(3 * 90 * time.Second)
		}
	}
	// One quiet pass so any divergence committed just before the steal
	// window has certainly been driven; the single deployment gets the
	// same extra round.
	syncer.RunRound()
	tickAll(nodes, clkB)

	stolen := false
	for _, n := range nodes {
		if n == nodes[2] {
			continue
		}
		for _, sl := range n.HeldSlices() {
			if sl == 2 {
				stolen = true
			}
		}
		if v := n.Violations(); v != 0 {
			t.Fatalf("node %s reports %d lease violations", n.ID(), v)
		}
	}
	if !stolen {
		t.Fatal("the dead node's slice was never stolen — the schedule did not exercise the steal")
	}

	single.ClearShardLeases()
	sharded.ClearShardLeases()
	if a, b := snapshotOf(t, single), snapshotOf(t, sharded); string(a) != string(b) {
		t.Fatalf("single and sharded deployments diverged: %d vs %d bytes", len(a), len(b))
	}
}
