package statesyncer

import (
	"testing"
	"unsafe"

	"repro/internal/config"
	"repro/internal/wire"
)

// TestRoundsReuseCachedMerges verifies that repeated synchronization
// rounds over jobs whose expected stack did not change never re-run the
// Algorithm 1 layer merge: the Job Store serves the per-version cached
// document — for a job written through the Job Service, the very merge
// the write validated.
func TestRoundsReuseCachedMerges(t *testing.T) {
	svc, syncer, act, clk := newWorld(t, Options{})
	for _, name := range []string{"a", "b", "c"} {
		svc.Provision(validConfig(name))
	}
	// Keep job "a" permanently unconverged: its StopJobTasks fails every
	// round, so the syncer re-reads its merged expected config each time.
	act.failStops["a"] = 1 << 30

	syncer.RunRound() // converges a, b, c (simple syncs, no running yet)
	// Parallelism change: a complex sync whose stop phase always fails.
	if err := svc.SetTaskCount("a", config.LayerOncall, 20); err != nil {
		t.Fatal(err)
	}

	syncer.RunRound() // plans a's complex sync; the stop action fails
	merged := func() []wire.Blob {
		var docs []wire.Blob
		for _, name := range []string{"a", "b", "c"} {
			m, _, err := svc.Store().MergedExpected(name)
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, m.Doc)
		}
		return docs
	}
	first := merged()

	// "a" is re-examined every round: each starts past its retry deadline,
	// and four failures in all stay short of the quarantine.
	for i := 0; i < quarantineAfter-2; i++ {
		clk.RunFor(pastLongestBackoff)
		syncer.RunRound()
	}
	for i, d := range merged() {
		if unsafe.SliceData(d) != unsafe.SliceData(first[i]) {
			t.Fatalf("rounds over an unchanged expected stack re-merged job %d", i)
		}
	}
	if syncer.FailureCount("a") == 0 {
		t.Fatal("setup: job a should be failing its sync")
	}
}
