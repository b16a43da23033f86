package statesyncer

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobstore"
)

// killAfterCommit installs commit hooks that simulate the syncer dying
// the instant a commit for job lands: the commit itself is durable, but
// nothing after it runs.
func killAfterCommit(store *jobstore.Store, syncer *Syncer, job string) {
	store.SetCommitHooks(&jobstore.CommitHooks{
		After: func(name string) {
			if name == job {
				syncer.Kill()
			}
		},
	})
}

// requireConverged fails unless the store's diverged set is empty.
func requireConverged(t *testing.T, store *jobstore.Store) {
	t.Helper()
	if left := store.DivergedRangeInto(0, jobstore.NumStripes, nil); len(left) != 0 {
		t.Fatalf("jobs still diverged: %v", left)
	}
}

// restoreInto snapshots src and restores it into a fresh store,
// modeling a replacement syncer booting from the durable database.
func restoreInto(t *testing.T, src *jobstore.Store) *jobstore.Store {
	t.Helper()
	dst := jobstore.New()
	if err := dst.Restore(snapshotOf(t, src)); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestCrashAfterCommitRestoreConvergesInOneRound is the restart-shaped
// acceptance test: a syncer killed mid-round — after a complex plan's
// commit landed but before its post-commit follow-ups ran — leaves a
// durable follow-up record. A replacement syncer restored from the store
// snapshot must finish the job within ONE ordinary round, and a second
// round must find no work.
func TestCrashAfterCommitRestoreConvergesInOneRound(t *testing.T) {
	svc, syncer, act, clk := newWorld(t, Options{})
	store := svc.Store()
	svc.Provision(validConfig("j1"))
	syncer.RunRound()
	svc.SetTaskCount("j1", config.LayerScaler, 20)

	killAfterCommit(store, syncer, "j1")
	syncer.RunRound() // dies mid-plan: commit landed, resume never ran
	store.SetCommitHooks(nil)

	if !syncer.Killed() {
		t.Fatal("commit hook did not kill the syncer")
	}
	if got := runningTaskCount(t, svc, "j1"); got != 20 {
		t.Fatalf("commit did not land before the crash: taskCount = %d", got)
	}
	if act.resumeCount("j1") != 0 {
		t.Fatal("resume ran despite the crash")
	}
	ss, ok := store.SyncStateOf("j1")
	if !ok || len(ss.FollowUps) != 1 || ss.FollowUps[0] != "resume" {
		t.Fatalf("durable follow-up record = %+v, %v", ss, ok)
	}

	// Boot a replacement syncer from a snapshot of the durable store.
	restored := restoreInto(t, store)
	successor := New(restored, act, clk, Options{})

	if res := successor.RunRound(); len(res.Failed) != 0 {
		t.Fatalf("restored syncer's first round failed: %+v", res)
	}
	if act.resumeCount("j1") != 1 {
		t.Fatalf("restored syncer resumed %d times, want 1", act.resumeCount("j1"))
	}
	if _, ok := restored.SyncStateOf("j1"); ok {
		t.Fatal("follow-up record not cleared after completion")
	}
	requireConverged(t, restored)
	// The one round fully converged the fleet: nothing for later rounds.
	if res2 := successor.RunRound(); res2.Simple+res2.Complex+res2.Deleted != 0 || len(res2.Failed) != 0 {
		t.Fatalf("second round still had work: %+v", res2)
	}
}

// TestCrashBeforeCommitRestoreReplansInOneRound covers the other crash
// edge: the syncer dies with the commit refused (crash-before-commit).
// The durable intent record replays "resume" — un-quiescing the job in
// its previous configuration, i.e. the rollback — and the job, still
// diverged, is re-planned and completed in the same round.
func TestCrashBeforeCommitRestoreReplansInOneRound(t *testing.T) {
	svc, syncer, act, clk := newWorld(t, Options{})
	store := svc.Store()
	svc.Provision(validConfig("j1"))
	syncer.RunRound()
	svc.SetTaskCount("j1", config.LayerScaler, 20)

	store.SetCommitHooks(&jobstore.CommitHooks{
		Before: func(name string) error {
			if name == "j1" {
				syncer.Kill()
				return errKilled
			}
			return nil
		},
	})
	syncer.RunRound()
	store.SetCommitHooks(nil)

	if got := runningTaskCount(t, svc, "j1"); got != 10 {
		t.Fatalf("refused commit leaked: taskCount = %d", got)
	}

	restored := restoreInto(t, store)
	successor := New(restored, act, clk, Options{})
	res := successor.RunRound()
	if res.Complex != 1 {
		t.Fatalf("restored round = %+v, want one complex sync", res)
	}
	cfg, _, ok := restored.RunningEntry("j1")
	if !ok || cfg == nil || cfg.TaskCount != 20 {
		t.Fatalf("not converged after one round: %+v, %v", cfg, ok)
	}
	requireConverged(t, restored)
	if res2 := successor.RunRound(); res2.Simple+res2.Complex+res2.Deleted != 0 || len(res2.Failed) != 0 {
		t.Fatalf("second round still had work: %+v", res2)
	}
}

// TestBackoffSkipsRetriesUntilDeadline verifies failing jobs are not
// retried every round: after the second consecutive failure the job
// waits out its backoff before the actuator is probed again.
func TestBackoffSkipsRetriesUntilDeadline(t *testing.T) {
	svc, syncer, act, clk := newWorld(t, Options{})
	svc.Provision(validConfig("j1"))
	syncer.RunRound()
	svc.SetTaskCount("j1", config.LayerScaler, 20)
	act.failStops["j1"] = 100

	syncer.RunRound() // streak 1: immediate retry allowed
	syncer.RunRound() // streak 2: backoff stamped (~30s)
	if got := syncer.FailureCount("j1"); got != 2 {
		t.Fatalf("streak = %d, want 2", got)
	}
	probes := 100 - act.failStops["j1"]

	// Same sim time: round must skip the job entirely.
	res := syncer.RunRound()
	if len(res.Failed) != 0 {
		t.Fatalf("backed-off job retried: %+v", res)
	}
	if 100-act.failStops["j1"] != probes {
		t.Fatal("actuator probed during backoff window")
	}
	// Past the deadline the retry happens.
	clk.RunFor(time.Minute)
	res = syncer.RunRound()
	if len(res.Failed) != 1 {
		t.Fatalf("retry after deadline missing: %+v", res)
	}
	if 100-act.failStops["j1"] != probes+1 {
		t.Fatal("no actuator probe after the backoff deadline")
	}
}

// TestDeleteMidStreakClearsAccounting (failure-accounting sweep): a job
// deleted mid-failure-streak must not leak its streak or trip a bogus
// quarantine once the teardown completes.
func TestDeleteMidStreakClearsAccounting(t *testing.T) {
	svc, syncer, act, clk := newWorld(t, Options{})
	svc.Provision(validConfig("j1"))
	syncer.RunRound()
	svc.SetTaskCount("j1", config.LayerScaler, 20)
	act.failStops["j1"] = 2

	syncer.RunRound()
	clk.RunFor(time.Minute)
	syncer.RunRound()
	if got := syncer.FailureCount("j1"); got != 2 {
		t.Fatalf("streak = %d, want 2", got)
	}

	svc.Delete("j1")
	clk.RunFor(time.Minute)
	res := syncer.RunRound()
	if res.Deleted != 1 {
		t.Fatalf("teardown round = %+v", res)
	}
	if got := syncer.FailureCount("j1"); got != 0 {
		t.Fatalf("streak leaked after teardown: %d", got)
	}
	if names := svc.Store().DivergedRangeInto(0, jobstore.NumStripes, nil); len(names) != 0 {
		t.Fatalf("sync state leaked after teardown: %v", names)
	}
	if st := syncer.Stats(); st.Quarantines != 0 {
		t.Fatalf("teardown mid-streak counted a quarantine: %+v", st)
	}
}

// TestQuarantineParksFollowUpsUntilCleared (failure-accounting sweep): a
// quarantined job's pending post-commit follow-ups are parked — neither
// retried (failure-storm) nor dropped (job quiesced forever) — and run
// to completion once the quarantine is cleared.
func TestQuarantineParksFollowUpsUntilCleared(t *testing.T) {
	svc, syncer, act, clk := newWorld(t, Options{})
	store := svc.Store()
	svc.Provision(validConfig("j1"))
	syncer.RunRound()
	svc.SetTaskCount("j1", config.LayerScaler, 20)
	act.failResumes["j1"] = quarantineAfter

	// The commit lands in the first round; its resume fails, and so does
	// every retry of it, until the streak quarantines the job.
	for i := 0; i < quarantineAfter; i++ {
		if res := syncer.RunRound(); len(res.Failed) != 1 {
			t.Fatalf("round %d = %+v", i, res)
		}
		clk.RunFor(pastLongestBackoff)
	}
	if _, ok := store.Quarantined("j1"); !ok {
		t.Fatal("job not quarantined")
	}
	ss, ok := store.SyncStateOf("j1")
	if !ok || len(ss.FollowUps) != 1 {
		t.Fatalf("follow-ups not parked: %+v, %v", ss, ok)
	}

	// While quarantined: parked, not retried.
	failuresBefore := syncer.Stats().Failures
	syncer.RunRound()
	if syncer.Stats().Failures != failuresBefore {
		t.Fatal("parked follow-up retried while quarantined")
	}
	if act.resumeCount("j1") != 0 {
		t.Fatal("resume ran while quarantined")
	}

	// Cleared: the next round finishes the follow-up and the job is clean.
	store.ClearQuarantine("j1")
	syncer.RunRound()
	if act.resumeCount("j1") != 1 {
		t.Fatalf("resume after clear ran %d times, want 1", act.resumeCount("j1"))
	}
	if _, ok := store.SyncStateOf("j1"); ok {
		t.Fatal("sync state leaked after follow-up completed")
	}
	requireConverged(t, store)
}

// TestRetryDeadlineNeverBeyondFourIntervals pins the bound that stands
// where a configurable backoff cap used to: across whole failure streaks,
// quarantines included, no NextRetryAt is ever stamped further than
// 4 × Interval past the failure that set it, and the Nth consecutive
// failure waits Interval·2^(N-2) less at most a quarter of jitter.
func TestRetryDeadlineNeverBeyondFourIntervals(t *testing.T) {
	for _, interval := range []time.Duration{30 * time.Second, 7 * time.Second} {
		svc, syncer, act, clk := newWorld(t, Options{Interval: interval})
		store := svc.Store()
		jobs := []string{"a", "b", "c", "d"}
		for _, j := range jobs {
			svc.Provision(validConfig(j))
		}
		syncer.RunRound()
		for _, j := range jobs {
			svc.SetTaskCount(j, config.LayerScaler, 20)
			act.failStops[j] = 1 << 30
		}
		streak := make(map[string]int)
		for round := 0; round < 60; round++ {
			res := syncer.RunRound()
			failedAt := clk.Now()
			for _, j := range res.Failed {
				streak[j]++
				ss, _ := store.SyncStateOf(j)
				wait := ss.NextRetryAt.Sub(failedAt)
				if ss.NextRetryAt.IsZero() {
					wait = 0
				}
				if wait > 4*interval {
					t.Fatalf("interval %v: %s waits %v after failure %d, beyond 4 × Interval", interval, j, wait, streak[j])
				}
				var nominal time.Duration
				switch n := streak[j]; {
				case n == quarantineAfter:
					if _, ok := store.Quarantined(j); !ok {
						t.Fatalf("interval %v: %s not quarantined after %d failures", interval, j, n)
					}
					streak[j] = 0
					store.ClearQuarantine(j)
				case n >= 2:
					nominal = interval << (n - 2)
				}
				if wait > nominal || wait < nominal-nominal/4 {
					t.Fatalf("interval %v: %s waits %v after failure %d, want %v less at most a quarter", interval, j, wait, streak[j], nominal)
				}
			}
			clk.RunFor(interval)
		}
		if st := syncer.Stats(); st.Quarantines < 2*len(jobs) {
			t.Fatalf("interval %v: %d quarantines in 60 rounds, want every job through two streaks", interval, st.Quarantines)
		}
	}
}
