package statesyncer

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobstore"
	"repro/internal/simclock"
)

// benchFleet builds a store with n jobs and a syncer, and converges the
// fleet once so subsequent rounds measure steady-state cost.
func benchFleet(b *testing.B, n int, opts Options) (*jobstore.Store, *Syncer) {
	b.Helper()
	store := jobstore.New()
	clk := simclock.NewSim(time.Unix(0, 0))
	syncer := New(store, NopActuator{}, clk, opts)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("j%05d", i)
		doc := config.Doc{
			"name": name, "taskCount": 4,
			"package":       config.Doc{"name": "tailer", "version": "v1"},
			"taskResources": config.Doc{"cpuCores": 0.5, "memoryBytes": 1 << 29},
			"input":         config.Doc{"category": name + "_in", "partitions": 16},
		}
		if err := store.Create(name, docBlob(doc), nil); err != nil {
			b.Fatal(err)
		}
	}
	if res := syncer.RunRound(); res.Simple != n {
		b.Fatalf("setup round synced %d/%d jobs", res.Simple, n)
	}
	return store, syncer
}

// churn bumps the Provisioner layer of every k-th job, making n/k jobs
// divergent (simple package releases).
func churn(b *testing.B, store *jobstore.Store, n, k, round int) {
	b.Helper()
	v := fmt.Sprintf("v%d", round)
	for i := 0; i < n; i += k {
		name := fmt.Sprintf("j%05d", i)
		doc := config.Doc{"package": config.Doc{"version": v}}
		if _, err := store.SetLayer(name, config.LayerProvisioner, docBlob(doc), jobstore.Expected{Version: jobstore.AnyVersion}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyncerRound50kConverged is the headline steady-state number:
// one synchronization round over 50 000 jobs that are all converged.
func BenchmarkSyncerRound50kConverged(b *testing.B) {
	_, syncer := benchFleet(b, 50_000, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syncer.RunRound()
	}
}

// BenchmarkSyncerRound50kChurn1pct measures a round in which 1% of the
// fleet (500 jobs) received a package release since the last round.
func BenchmarkSyncerRound50kChurn1pct(b *testing.B) {
	store, syncer := benchFleet(b, 50_000, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		churn(b, store, 50_000, 100, i+2)
		b.StartTimer()
		if res := syncer.RunRound(); res.Simple != 500 {
			b.Fatalf("round synced %d jobs, want 500", res.Simple)
		}
	}
}

// BenchmarkSyncerRound50kChurn10pct measures a round with 10% divergence
// (5 000 package releases).
func BenchmarkSyncerRound50kChurn10pct(b *testing.B) {
	store, syncer := benchFleet(b, 50_000, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		churn(b, store, 50_000, 10, i+2)
		b.StartTimer()
		if res := syncer.RunRound(); res.Simple != 5_000 {
			b.Fatalf("round synced %d jobs, want 5000", res.Simple)
		}
	}
}

// BenchmarkSyncerRound50kNodeVsEngineConverged is the guard on making the
// lease-coordinated Node the only topology: a converged one-slice
// Node.Tick (engine round + lease check + renewal) against the bare
// engine's RunRound over identical 50 000-job fleets, timed back-to-back
// inside every iteration in alternating order so machine-load drift
// cancels. Reports engine-ns/op, node-ns/op and their ratio, and fails if
// the pair allocates past the steady-state ceiling — either side
// allocating per round is a regression.
func BenchmarkSyncerRound50kNodeVsEngineConverged(b *testing.B) {
	const jobs = 50_000
	_, engine := benchFleet(b, jobs, Options{})
	_, nodes, clk := benchShardedFleet(b, jobs, 1)
	node := nodes[0]
	for r := 0; r < 10; r++ { // warm rounds: scratch at high water
		engine.RunRound()
		tickFleet(nodes, clk)
	}
	var tEngine, tNode time.Duration
	runEngine := func() {
		t0 := time.Now()
		engine.RunRound()
		tEngine += time.Since(t0)
	}
	runNode := func() {
		t0 := time.Now()
		node.Tick()
		tNode += time.Since(t0)
	}
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			runEngine()
			runNode()
		} else {
			runNode()
			runEngine()
		}
		clk.RunFor(30 * time.Second)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if per := float64(m1.Mallocs-m0.Mallocs) / float64(b.N); per > steadyAllocCeiling {
		b.Fatalf("converged engine round + one-slice node tick allocate %.1f objects/op, ceiling %d", per, steadyAllocCeiling)
	}
	if st := node.Status()[0]; !st.Held || st.Rounds < b.N {
		b.Fatalf("node did not drive its slice every tick: %+v", st)
	}
	b.ReportMetric(float64(tEngine.Nanoseconds())/float64(b.N), "engine-ns/op")
	b.ReportMetric(float64(tNode.Nanoseconds())/float64(b.N), "node-ns/op")
	b.ReportMetric(tNode.Seconds()/tEngine.Seconds(), "node/engine")
}
