package faultinject

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobstore"
	"repro/internal/shardmanager"
	"repro/internal/simclock"
	"repro/internal/statesyncer"
	"repro/internal/taskservice"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func driveOps(in *Injector, order []string) {
	act := in.Actuator(statesyncer.NopActuator{})
	for _, key := range order {
		_ = act.StopJobTasks(key)
	}
}

func keysOf(trace []Event, key string) []uint64 {
	var calls []uint64
	for _, e := range trace {
		if e.Key == key {
			calls = append(calls, e.Call)
		}
	}
	return calls
}

// TestSameSeedSameDecisionsAcrossInterleavings is the injector's core
// contract: decisions depend on (seed, op, key, per-key call number)
// only, so reordering calls across keys never changes which of a key's
// calls fault.
func TestSameSeedSameDecisionsAcrossInterleavings(t *testing.T) {
	rules := []Rule{{Op: OpActuatorStop, Rate: 0.3, Kind: KindError}}
	a := New(7, simclock.NewSim(epoch), rules)
	b := New(7, simclock.NewSim(epoch), rules)

	// Same per-key call counts, maximally different global order.
	seq := []string{}
	for i := 0; i < 50; i++ {
		seq = append(seq, "x", "y", "z")
	}
	driveOps(a, seq)
	rev := make([]string, len(seq))
	for i := range seq {
		rev[i] = seq[len(seq)-1-i]
	}
	driveOps(b, rev)

	for _, key := range []string{"x", "y", "z"} {
		ka, kb := keysOf(a.Trace(), key), keysOf(b.Trace(), key)
		if !reflect.DeepEqual(ka, kb) {
			t.Fatalf("key %s: faulted calls diverged across interleavings: %v vs %v", key, ka, kb)
		}
		if len(ka) == 0 {
			t.Fatalf("key %s: rate-0.3 rule never fired in 150 calls", key)
		}
	}
	if !reflect.DeepEqual(a.TraceKeys(), b.TraceKeys()) {
		t.Fatalf("trace digests differ:\n%v\n%v", a.TraceKeys(), b.TraceKeys())
	}

	// A different seed makes different decisions (not vacuously equal).
	c := New(8, simclock.NewSim(epoch), rules)
	driveOps(c, seq)
	if reflect.DeepEqual(keysOf(a.Trace(), "x"), keysOf(c.Trace(), "x")) &&
		reflect.DeepEqual(keysOf(a.Trace(), "y"), keysOf(c.Trace(), "y")) {
		t.Fatal("seeds 7 and 8 produced identical decision sequences")
	}
}

func TestRuleWindowKeyAndMaxHits(t *testing.T) {
	clk := simclock.NewSim(epoch)
	in := New(1, clk, []Rule{
		{Op: OpActuatorStop, Key: "only", Rate: 1, Kind: KindError,
			After: 10 * time.Second, Until: 20 * time.Second},
		{Op: OpActuatorResume, Rate: 1, Kind: KindError, MaxHits: 2},
	})
	act := in.Actuator(statesyncer.NopActuator{})

	if err := act.StopJobTasks("only"); err != nil {
		t.Fatalf("rule fired before its window: %v", err)
	}
	if err := act.StopJobTasks("other"); err != nil {
		t.Fatal("keyed rule fired for the wrong key")
	}
	clk.RunFor(15 * time.Second)
	if err := act.StopJobTasks("only"); err == nil {
		t.Fatal("rule silent inside its window")
	}
	if err := act.StopJobTasks("other"); err != nil {
		t.Fatal("keyed rule fired for the wrong key inside the window")
	}
	clk.RunFor(10 * time.Second)
	if err := act.StopJobTasks("only"); err != nil {
		t.Fatalf("rule fired after its window closed: %v", err)
	}

	// MaxHits caps total firings.
	for i := 0; i < 2; i++ {
		if err := act.ResumeJob("j"); err == nil {
			t.Fatalf("hit %d: rate-1 rule silent", i)
		}
	}
	if err := act.ResumeJob("j"); err != nil {
		t.Fatalf("rule fired beyond MaxHits: %v", err)
	}
}

func TestHeartbeatTimeoutSurfacesErrTimeout(t *testing.T) {
	clk := simclock.NewSim(epoch)
	in := New(1, clk, []Rule{{Op: OpSMHeartbeat, Key: "tc0", Rate: 1, Kind: KindTimeout}})
	sm := shardmanager.New(clk, shardmanager.Options{NumShards: 4})
	wrapped := in.ShardManagerClient("tc0", sm)
	if err := wrapped.Heartbeat("tc0"); !errors.Is(err, shardmanager.ErrTimeout) {
		t.Fatalf("blackout heartbeat error = %v, want shardmanager.ErrTimeout", err)
	}
	// Another container's link is untouched (registration is irrelevant
	// here: an unknown-container error would not be ErrTimeout anyway).
	clean := in.ShardManagerClient("tc1", sm)
	if err := clean.Heartbeat("tc1"); errors.Is(err, shardmanager.ErrTimeout) {
		t.Fatal("fault bled onto an unkeyed container")
	}
}

func TestCrashBeforeCommitRefusesWriteAndLatches(t *testing.T) {
	clk := simclock.NewSim(epoch)
	in := New(1, clk, []Rule{
		{Op: OpStoreCommit, Key: "j", Rate: 1, Kind: KindCrashBeforeCommit, MaxHits: 1},
		{Op: OpActuatorStop, Rate: 1, Kind: KindError},
	})
	store := jobstore.New()
	if err := store.Create("j", docBlob(config.Doc{"taskCount": 1}), nil); err != nil {
		t.Fatal(err)
	}
	in.InstallStoreHooks(store)

	var crashes []Event
	in.OnCrash(func(ev Event) { crashes = append(crashes, ev) })

	if err := store.CommitRunning("j", committed(config.Doc{"taskCount": 1}), 1); err == nil {
		t.Fatal("crash-before-commit did not refuse the write")
	}
	if _, ok := store.GetRunningShared("j"); ok {
		t.Fatal("refused commit still landed")
	}
	if len(crashes) != 1 || crashes[0].Kind != KindCrashBeforeCommit {
		t.Fatalf("crash handler calls = %+v", crashes)
	}
	if !in.Crashed() {
		t.Fatal("crash did not latch")
	}

	// Dead processes inject nothing: the actuator error rule is mute.
	act := in.Actuator(statesyncer.NopActuator{})
	if err := act.StopJobTasks("j"); err != nil {
		t.Fatalf("injection while crashed: %v", err)
	}
	in.Rearm()
	if err := act.StopJobTasks("j"); err == nil {
		t.Fatal("rule still mute after Rearm")
	}
	// The commit rule was MaxHits 1: the restarted process can commit.
	if err := store.CommitRunning("j", committed(config.Doc{"taskCount": 1}), 1); err != nil {
		t.Fatalf("commit after restart: %v", err)
	}
}

func TestCrashAfterCommitFiresOnceWriteIsDurable(t *testing.T) {
	clk := simclock.NewSim(epoch)
	in := New(1, clk, []Rule{
		{Op: OpStoreCommit, Key: "j", Rate: 1, Kind: KindCrashAfterCommit, MaxHits: 1},
	})
	store := jobstore.New()
	if err := store.Create("j", docBlob(config.Doc{"taskCount": 1}), nil); err != nil {
		t.Fatal(err)
	}
	in.InstallStoreHooks(store)

	var durableAtCrash bool
	in.OnCrash(func(ev Event) {
		_, durableAtCrash = store.GetRunningShared("j")
	})
	if err := store.CommitRunning("j", committed(config.Doc{"taskCount": 2}), 1); err != nil {
		t.Fatalf("crash-after-commit must not refuse the write: %v", err)
	}
	if !durableAtCrash {
		t.Fatal("crash handler ran before the write was durable")
	}
	if !in.Crashed() {
		t.Fatal("crash did not latch")
	}
	tr := in.Trace()
	if len(tr) != 1 || tr[0].Kind != KindCrashAfterCommit {
		t.Fatalf("trace = %+v", tr)
	}
}

type fakeTaskSource struct {
	indexes []*taskservice.SnapshotIndex
	fetches int
}

func (f *fakeTaskSource) Index() *taskservice.SnapshotIndex {
	i := f.fetches
	if i >= len(f.indexes) {
		i = len(f.indexes) - 1
	}
	f.fetches++
	return f.indexes[i]
}

// TestTaskSourceServesStaleCacheOnFault: a faulted fetch degrades to the
// last good snapshot index (the TM keeps acting on what it already saw,
// §IV-D) rather than surfacing an error or a nil index; a fault before
// any successful fetch falls through to the inner source.
func TestTaskSourceServesStaleCacheOnFault(t *testing.T) {
	a, b := &taskservice.SnapshotIndex{}, &taskservice.SnapshotIndex{}
	inner := &fakeTaskSource{indexes: []*taskservice.SnapshotIndex{a, b}}
	clk := simclock.NewSim(epoch)
	in := New(5, clk, []Rule{
		// First rule faults exactly one fetch (the very first), second
		// faults every fetch after 1m; the middle fetch is clean.
		{Op: OpTaskFetch, Rate: 1.0, Kind: KindError, MaxHits: 1},
		{Op: OpTaskFetch, Rate: 1.0, Kind: KindError, After: time.Minute},
	})
	src := in.TaskSource("tm0", inner)

	if got := src.Index(); got != a {
		t.Fatal("fault with an empty cache must fall through to the inner source")
	}
	if got := src.Index(); got != b {
		t.Fatal("clean fetch must refresh the cache")
	}
	clk.RunFor(2 * time.Minute)
	if got := src.Index(); got != b {
		t.Fatal("faulted fetch must serve the last good index")
	}
	if inner.fetches != 2 {
		t.Fatalf("inner fetched %d times, want 2 (faulted fetches must not hit the inner source)", inner.fetches)
	}
}
