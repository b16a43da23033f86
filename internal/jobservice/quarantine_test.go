package jobservice

import (
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/simclock"
	"repro/internal/statesyncer"
)

// TestQuarantineListAndClearResyncsNextRound drives the oncall workflow
// behind `turbinectl quarantine`/`unquarantine`: list quarantined jobs
// with their reasons, clear one, and verify the State Syncer picks the
// job back up on its very next round.
func TestQuarantineListAndClearResyncsNextRound(t *testing.T) {
	svc := newService(t)
	store := svc.Store()
	clk := simclock.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	syncer := statesyncer.New(store, statesyncer.NopActuator{}, clk, statesyncer.Options{})
	syncer.RunRound()
	if _, ok := store.GetRunningShared("j1"); !ok {
		t.Fatal("initial sync did not commit j1")
	}

	if got := svc.Quarantined(); len(got) != 0 {
		t.Fatalf("Quarantined on a healthy cluster = %+v", got)
	}
	if err := svc.ClearQuarantine("j1"); err == nil {
		t.Fatal("ClearQuarantine accepted a non-quarantined job")
	}

	store.SetQuarantine("j1", "quarantined after 3 consecutive sync failures; last: boom")
	got := svc.Quarantined()
	if len(got) != 1 || got[0].Name != "j1" || !strings.Contains(got[0].Reason, "3 consecutive") {
		t.Fatalf("Quarantined = %+v", got)
	}

	// While quarantined, a desired-state change is not acted on.
	if err := svc.SetTaskCount("j1", config.LayerOncall, 20); err != nil {
		t.Fatal(err)
	}
	syncer.RunRound()
	if r, _, _ := store.RunningDoc("j1"); r.Config.TaskCount == 20 {
		t.Fatal("syncer acted on a quarantined job")
	}

	if err := svc.ClearQuarantine("j1"); err != nil {
		t.Fatal(err)
	}
	if got := svc.Quarantined(); len(got) != 0 {
		t.Fatalf("Quarantined after clear = %+v", got)
	}
	// The clear marked the job dirty: the next ordinary round re-syncs it.
	res := syncer.RunRound()
	if res.Complex+res.Simple == 0 {
		t.Fatalf("cleared job not re-synced next round: %+v", res)
	}
	if r, _, _ := store.RunningDoc("j1"); r.Config.TaskCount != 20 {
		t.Fatalf("running taskCount = %v after clear+round, want 20", r.Config.TaskCount)
	}
}
